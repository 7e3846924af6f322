"""Experiment driver, config parsing, CSV output, CLI exit codes."""

import contextlib
import math
import os
import subprocess
import sys
import threading
import time
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from corrqec import experiment, trajectory
from corrqec.cli import main
from corrqec.config import load_config, parse_config
from corrqec.errors import (
    ConfigError,
    DomainError,
    IntegrationError,
    SimulationError,
    StepSizeError,
)
from corrqec.experiment import (
    ExperimentConfig,
    FidelityResult,
    FitResult,
    _code_and_state,
    fit_loglog,
    render_cycle_csv,
    render_jump_log_csv,
    render_scaling_csv,
    resolve_spec,
    run_cycle_fidelity,
    run_repetition_scaling,
    run_trajectory_logs,
    run_validation_suite,
)
from corrqec.noise import (
    CorrelationKernel,
    DirectNoise,
    NoiseSpec,
    build_channels,
    collective_axis_kernel,
    cross_axis_kernel,
    exponential_kernel,
    independent_kernel,
    integrate_kernel,
    lowering_kernel,
    max_rate,
    noise_spec_direct,
)
from corrqec.lindblad import _rhs, default_dt_integrator
from corrqec.operators import (
    basis_state,
    pauli_operator,
    pauli_stack,
    pure_state_fidelity,
    pure_state_projector,
)
from corrqec.qecc import _batch_syndrome_recover, correction_channel, five_qubit_code
from corrqec.trajectory import sample_ensemble

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
ZKERNEL = exponential_kernel(5, amplitude=1.0, correlation_length=2.0, tau_c=0.05, axis=3)


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


GOOD_YAML = """\
noise:
  kind: exponential
  num_qubits: 5
  amplitude: 1.0
  correlation_length: 2.0
  axis: z
  tau_c: 0.05
  g1: 1.0
  normalize: true
logical_state: [[0.6, 0.0], [0.0, 0.8]]
t_total: 0.5
n_values: [5, 10]
delta_t_values: [0.02, 0.05]
trajectories: 100
trajectory_substeps: 8
base_seed: 77
engine: trajectory
"""


# Per noise kind: a section of only the required keys, and a key that
# belongs to another kind.
MINIMAL_NOISE = {
    "independent": ({"num_qubits": 3}, "correlation_length"),
    "collective_axis": ({"num_qubits": 3}, "axis_block"),
    "exponential": ({"num_qubits": 3, "correlation_length": 2.0}, "axis_block"),
    "cross_axis": (
        {"num_qubits": 2, "axis_block": [[1.0, 0.5, 0.0], [0.5, 1.0, 0.0], [0.0, 0.0, 0.3]]},
        "amplitude",
    ),
    "lowering": ({"num_qubits": 2}, "amplitude"),
    "direct": ({"A": [[0.2, 0.0, 0.0], [0.0, 0.2, 0.0], [0.0, 0.0, 1.0]]}, "tau_c"),
}


# ---------------------------------------------------------------------------
# fit and config plumbing


def test_fit_loglog_exact_power_law():
    x = np.array([1.0, 2.0, 4.0, 8.0, 16.0])
    fit = fit_loglog(x, 3.0 * x**-0.9)
    assert fit.slope == pytest.approx(-0.9, abs=1e-12)
    assert fit.intercept == pytest.approx(np.log(3.0), abs=1e-12)
    assert fit.stderr == pytest.approx(0.0, abs=1e-12)
    assert fit.points == 5


def test_fit_loglog_insufficient_points():
    x = np.array([1.0, 2.0, 4.0, 8.0])
    assert fit_loglog(x, 3.0 * x**-0.9) is None
    # zero infidelities are skipped, dropping below the minimum
    x5 = np.array([1.0, 2.0, 4.0, 8.0, 16.0])
    y = 3.0 * x5**-0.9
    y[2] = 0.0
    assert fit_loglog(x5, y) is None


@pytest.mark.parametrize(
    "x, y",
    [
        ([0.01] * 5, [0.001, 0.002, 0.003, 0.004, 0.005]),
        ([1.0] * 5, [0.5, 0.4, 0.3, 0.2, 0.1]),  # log x is exactly 0
        ([0.2] * 7, [0.001] * 7),
        # two x values, but the points at 0.02 are skipped (y <= 0, x <= 0)
        ([0.01] * 5 + [0.02, 0.02, -0.02], [0.001, 0.002, 0.003, 0.004, 0.005, 0.0, -0.1, 0.1]),
    ],
)
def test_fit_loglog_one_repeated_x_is_no_fit(x, y):
    # Every surviving point at one x leaves no slope to fit; dividing by the
    # zero spread of log x gave a NaN slope and a RuntimeWarning.
    assert fit_loglog(x, y) is None


def test_resolve_spec_normalization():
    cfg = ExperimentConfig(noise=ZKERNEL)
    assert max_rate(resolve_spec(cfg)) == pytest.approx(1.0, abs=1e-12)
    raw = ExperimentConfig(noise=ZKERNEL, normalize_rates=False)
    assert max_rate(resolve_spec(raw)) != pytest.approx(1.0, abs=1e-6)


def test_normalize_rates_takes_numpy_bools_only_as_booleans():
    # The boolean rule: a Python or numpy bool; 1 and "yes" are not flags.
    for flag, unit in ((np.True_, True), (np.False_, False)):
        spec = resolve_spec(ExperimentConfig(noise=ZKERNEL, normalize_rates=flag))
        assert (max_rate(spec) == pytest.approx(1.0, abs=1e-12)) == unit
    for bad in (1, "yes"):
        with pytest.raises(ConfigError, match="normalize_rates"):
            ExperimentConfig(noise=ZKERNEL, normalize_rates=bad)


_ONE_CYCLE = ExperimentConfig(noise=ZKERNEL, t_total=0.02, n_values=(1,), delta_t_values=(0.02,))
_L2_CHANNELS = build_channels(
    resolve_spec(ExperimentConfig(noise=exponential_kernel(2, correlation_length=1.0)))
)


def _sweep_with(run):
    def call(correction):
        result = run(_ONE_CYCLE, correction=correction)
        return result.fidelities, result.corrected

    return call


# The library's flags, each as a call that takes the flag's value.
FLAG_ENTRY_POINTS = {
    "run_cycle_fidelity.correction": _sweep_with(run_cycle_fidelity),
    "run_repetition_scaling.correction": _sweep_with(run_repetition_scaling),
    "sample_ensemble.collect_logs": lambda flag: len(
        sample_ensemble(basis_state(0, 2), _L2_CHANNELS, 0.02, 0.005, 3, 4, collect_logs=flag)
    ),
}


@pytest.mark.parametrize("entry", FLAG_ENTRY_POINTS)
@pytest.mark.parametrize("value", [1, "no", None], ids=repr)
def test_flags_refuse_non_booleans(entry, value):
    # The boolean rule: correction="no" used to run the corrected sweep and
    # collect_logs="no" to return logs.
    with pytest.raises(DomainError, match=entry.split(".")[1]):
        FLAG_ENTRY_POINTS[entry](value)


@pytest.mark.parametrize("entry", FLAG_ENTRY_POINTS)
@pytest.mark.parametrize("flag", [True, False])
def test_flags_take_numpy_bools_as_booleans(entry, flag):
    call = FLAG_ENTRY_POINTS[entry]
    assert call(np.bool_(flag)) == call(flag)


def test_experiment_config_validation():
    with pytest.raises(ConfigError):
        ExperimentConfig(noise="not a kernel")
    with pytest.raises(ConfigError):
        ExperimentConfig(noise=ZKERNEL, code="steane")
    with pytest.raises(ConfigError):
        ExperimentConfig(noise=ZKERNEL, engine="tensor_network")
    with pytest.raises(ConfigError):
        ExperimentConfig(noise=ZKERNEL, logical_state=(1.0, 1.0))
    for state in ((math.nan, 0.0), (1.0, complex(0.0, math.nan)), (math.inf, 0.0)):
        with pytest.raises(ConfigError, match="finite"):
            ExperimentConfig(noise=ZKERNEL, logical_state=state)
    for state in ((1, "0"), (True, 0.0), 1, (1.0,), (1.0, 0.0, 0.0)):
        with pytest.raises(ConfigError, match="logical_state"):
            ExperimentConfig(noise=ZKERNEL, logical_state=state)
    with pytest.raises(ConfigError):
        ExperimentConfig(noise=ZKERNEL, t_total=0.0)
    for n in (0, True, 2.5):
        with pytest.raises(ConfigError, match="n_values"):
            ExperimentConfig(noise=ZKERNEL, n_values=(n, 5))
    with pytest.raises(ConfigError, match="n_values"):
        ExperimentConfig(noise=ZKERNEL, n_values=5)
    for values in ((), 0.01, (True,), ("0.1",)):
        with pytest.raises(ConfigError, match="delta_t_values"):
            ExperimentConfig(noise=ZKERNEL, delta_t_values=values)
    for bad in (math.nan, math.inf):
        with pytest.raises(ConfigError, match="delta_t_values"):
            ExperimentConfig(noise=ZKERNEL, delta_t_values=(0.01, bad))
    for bad in (math.nan, math.inf, True, "1", 1j):
        with pytest.raises(ConfigError, match="t_total"):
            ExperimentConfig(noise=ZKERNEL, t_total=bad)
    # YAML's integers and numpy scalars are numbers; t_total is stored as a float
    cfg = ExperimentConfig(noise=ZKERNEL, t_total=1, delta_t_values=(np.float64(0.5), 1))
    assert type(cfg.t_total) is float and cfg.delta_t_values == (0.5, 1.0)
    with pytest.raises(ConfigError, match="normalize_rates"):
        ExperimentConfig(noise=ZKERNEL, normalize_rates="yes")
    for trajectories in (0, 2.5, True, "10"):
        with pytest.raises(ConfigError, match="trajectories"):
            ExperimentConfig(noise=ZKERNEL, trajectories=trajectories)
    with pytest.raises(ConfigError):
        ExperimentConfig(noise=ZKERNEL, trajectory_substeps=0)
    for seed in (-1, True, 1.5):
        with pytest.raises(ConfigError, match="base_seed"):
            ExperimentConfig(noise=ZKERNEL, base_seed=seed)


def _sample(base_seed=0, num_trajectories=1):
    ch = build_channels(integrate_kernel(independent_kernel(1)))
    return sample_ensemble(basis_state(0, 1), ch, 0.01, 0.01, base_seed, num_trajectories)


def _config_field(name):
    def build(x):
        return ExperimentConfig(noise=ZKERNEL, **{name: (x,) if name == "n_values" else x})

    return build


def _yaml_field(name):
    def build(x):
        value = [x] if name == "n_values" else x
        return parse_config({"noise": {"kind": "independent", "num_qubits": 1},
                             "delta_t_values": [0.01], name: value})

    return build


def _yaml_num_qubits(kind):
    def build(x):
        section, _ = MINIMAL_NOISE[kind]
        return parse_config({"noise": {"kind": kind, **section, "num_qubits": x},
                             "delta_t_values": [0.01]})

    return build


_CONFIG_FIELDS = ("n_values", "trajectories", "trajectory_substeps", "base_seed")

# Every integer entry point: name -> (call with the integer, error, None accepted).
# Each call is valid when the integer is 1.
INTEGER_ENTRY_POINTS = {
    "independent_kernel": (independent_kernel, DomainError, False),
    "collective_axis_kernel": (collective_axis_kernel, DomainError, False),
    "exponential_kernel": (exponential_kernel, DomainError, False),
    "cross_axis_kernel": (lambda x: cross_axis_kernel(x, np.eye(3)), DomainError, False),
    "lowering_kernel": (lowering_kernel, DomainError, False),
    "CorrelationKernel": (lambda x: CorrelationKernel(x, np.eye(3), 0.5, 1.0), DomainError, False),
    "pauli_operator.num_qubits": (lambda x: pauli_operator(1, 3, x), DomainError, False),
    "pauli_operator.qubit": (lambda x: pauli_operator(x, 3, 3), DomainError, False),
    "basis_state": (lambda x: basis_state(0, x), DomainError, False),
    "basis_state.index": (lambda x: basis_state(x, 1), DomainError, False),
    "pauli_stack": (pauli_stack, DomainError, False),
    "noise_spec_direct": (lambda x: noise_spec_direct(np.eye(3), num_qubits=x), DomainError, True),
    "DirectNoise": (lambda x: DirectNoise(np.eye(3), num_qubits=x).resolve(), DomainError, True),
    "NoiseSpec": (lambda x: NoiseSpec(x, np.eye(3), np.zeros((3, 3))), DomainError, False),
    # the sweep's uniform draw, seeded from ExperimentConfig.base_seed
    "_uniform_table.base_seed": (lambda x: trajectory._uniform_table(x, 0, 2, 3), DomainError, False),
    "sample_ensemble.base_seed": (lambda x: _sample(base_seed=x), DomainError, False),
    "sample_ensemble.num_trajectories": (lambda x: _sample(num_trajectories=x), DomainError, False),
    **{f"ExperimentConfig.{f}": (_config_field(f), ConfigError, False) for f in _CONFIG_FIELDS},
    **{f"parse_config.{f}": (_yaml_field(f), ConfigError, False) for f in _CONFIG_FIELDS},
    **{
        f"parse_config.noise.{kind}.num_qubits": (
            _yaml_num_qubits(kind),
            ConfigError,
            kind == "direct",  # direct infers num_qubits from A when it is null
        )
        for kind in MINIMAL_NOISE
    },
}
NUMPY_INTEGERS = (np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64)


@pytest.mark.parametrize("entry", INTEGER_ENTRY_POINTS)
@pytest.mark.parametrize("make", (int, *NUMPY_INTEGERS), ids=lambda t: t.__name__)
def test_integer_entry_points_accept_numpy_integers(entry, make):
    call, _, _ = INTEGER_ENTRY_POINTS[entry]
    result = call(make(1))
    if isinstance(result, ExperimentConfig):
        # stored as Python ints, as t_total is stored as a float
        assert type(result.base_seed) is int and type(result.trajectories) is int
        assert type(result.trajectory_substeps) is int
        assert all(type(n) is int for n in result.n_values)


@pytest.mark.parametrize("entry", INTEGER_ENTRY_POINTS)
@pytest.mark.parametrize(
    "value", [True, np.True_, 1.0, 2.5, np.float64(2.0), "2", None], ids=repr
)
def test_integer_entry_points_refuse_non_integers(entry, value):
    call, error, none_ok = INTEGER_ENTRY_POINTS[entry]
    if value is None and none_ok:
        call(value)  # documented: None infers the qubit count from A
        return
    with pytest.raises(error):
        call(value)


def test_fidelity_result_rejects_out_of_range():
    with pytest.raises(SimulationError):
        FidelityResult(
            sweep="delta_t",
            sweep_values=(0.01,),
            delta_ts=(0.01,),
            fidelities=(1.5,),
            infidelities=(-0.5,),
            fit=None,
            engine="density",
            trajectories=0,
            base_seed=1,
            corrected=True,
            wall_time_s=0.0,
        )


def test_parse_config_round_trip(tmp_path):
    cfg = load_config(_write(tmp_path, "good.yaml", GOOD_YAML))
    assert isinstance(cfg.noise, CorrelationKernel)
    assert cfg.noise.kind == "exponential"
    assert cfg.logical_state == (0.6 + 0.0j, 0.8j)
    assert cfg.t_total == 0.5
    assert cfg.n_values == (5, 10)
    assert cfg.delta_t_values == (0.02, 0.05)
    assert cfg.trajectories == 100
    assert cfg.trajectory_substeps == 8
    assert cfg.base_seed == 77
    assert cfg.engine == "trajectory"
    assert cfg.normalize_rates is True


def test_parse_config_rejections():
    base = {
        "noise": {"kind": "independent", "num_qubits": 2},
        "delta_t_values": [0.01],
    }
    parse_config(dict(base))
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config({**base, "typo_key": 1})
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config({**base, "noise": {"kind": "independent", "num_qubits": 2, "foo": 1}})
    with pytest.raises(ConfigError, match="axis"):
        parse_config({**base, "noise": {"kind": "collective_axis", "num_qubits": 2, "axis": "w"}})
    with pytest.raises(ConfigError, match="kind"):
        parse_config({**base, "noise": {"kind": "thermal", "num_qubits": 2}})
    # every kind: a key of another kind does not apply, and each required key
    # left out is named
    for kind, (section, foreign) in MINIMAL_NOISE.items():
        noise = {"kind": kind, **section}
        parse_config({**base, "noise": noise})
        with pytest.raises(ConfigError, match="do not apply"):
            parse_config({**base, "noise": {**noise, foreign: 1.0}})
        for key in section:
            missing = {k: v for k, v in noise.items() if k != key}
            with pytest.raises(ConfigError, match=f"noise.{key} is required"):
                parse_config({**base, "noise": missing})
    # qubit counts the kernels refuse are config errors, not crashes
    for count in (13, -1, 0):
        with pytest.raises(ConfigError, match="invalid noise parameters"):
            parse_config({**base, "noise": {"kind": "independent", "num_qubits": count}})
    # malformed YAML values are config errors too
    for noise in (
        {"kind": "collective_axis", "num_qubits": 2, "axis": ["z"]},
        {"kind": ["independent"], "num_qubits": 2},
        {"kind": "cross_axis", "num_qubits": 1, "axis_block": [[1, 0], [0, 1, 0], [0]]},
        {"kind": "direct", "A": [1, 2]},
        {"kind": "independent", "num_qubits": 2, "normalize": "yes"},
    ):
        with pytest.raises(ConfigError):
            parse_config({**base, "noise": noise})
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config({**base, 5: 1})
    with pytest.raises(ConfigError, match="unit norm"):
        parse_config({**base, "logical_state": [[1.0, 0.0], [1.0, 0.0]]})
    for state in ([[1.0, "x"], 0.0], [1.0], "1, 0"):
        with pytest.raises(ConfigError, match="logical_state"):
            parse_config({**base, "logical_state": state})
    with pytest.raises(ConfigError, match="integer"):
        parse_config({**base, "n_values": [5, True]})
    with pytest.raises(ConfigError, match="number"):
        parse_config({**base, "t_total": "long"})
    with pytest.raises(ConfigError):
        parse_config({**base, "trajectory_substeps": 2.5})
    with pytest.raises(ConfigError):
        parse_config([1, 2, 3])


@pytest.mark.parametrize(
    "kind, factory",
    [
        ("independent", independent_kernel),
        ("collective_axis", collective_axis_kernel),
        ("exponential", exponential_kernel),
        ("cross_axis", cross_axis_kernel),
        ("lowering", lowering_kernel),
    ],
)
def test_parse_config_takes_factory_defaults(kind, factory):
    # a noise key left out takes the factory's default, not a copy of it
    section, _ = MINIMAL_NOISE[kind]
    cfg = parse_config({"noise": {"kind": kind, **section}})
    kernel = factory(**section)
    assert cfg.noise.spatial.tobytes() == kernel.spatial.tobytes()
    assert (cfg.noise.tau_c, cfg.noise.g1, cfg.noise.kind) == (
        kernel.tau_c,
        kernel.g1,
        kernel.kind,
    )


def test_parse_config_direct_defers_psd_gate():
    # a non-PSD matrix loads fine; the gate fires when the spec resolves
    data = {
        "noise": {"kind": "direct", "A": [[-1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]},
        "delta_t_values": [0.01],
    }
    cfg = parse_config(data)
    from corrqec.errors import DomainError

    with pytest.raises(DomainError):
        resolve_spec(cfg)
    # a valid direct spec resolves
    good = parse_config(
        {
            "noise": {
                "kind": "direct",
                "A": [[0.2, 0.0, 0.0], [0.0, 0.2, 0.0], [0.0, 0.0, 1.0]],
                "normalize": False,
            },
            "delta_t_values": [0.01],
        }
    )
    assert max_rate(resolve_spec(good)) == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# experiment runs


def test_noiseless_runs_have_zero_infidelity():
    zero = noise_spec_direct(np.zeros((15, 15)))
    for engine in ("density", "trajectory"):
        cfg = ExperimentConfig(
            noise=zero,
            t_total=0.1,
            n_values=(2,),
            delta_t_values=(0.05,),
            engine=engine,
            trajectories=50,
            normalize_rates=False,
        )
        result = run_repetition_scaling(cfg)
        assert result.infidelities[0] <= 1e-12
        assert result.fit is None


@pytest.mark.parametrize("engine", ["density", "trajectory"])
@pytest.mark.parametrize("correction", [True, False])
def test_single_cycle_equals_scaling_at_n1(engine, correction):
    cfg = ExperimentConfig(
        noise=ZKERNEL,
        t_total=0.02,
        n_values=(1,),
        delta_t_values=(0.02,),
        engine=engine,
        trajectories=200,
    )
    scaling = run_repetition_scaling(cfg, correction=correction)
    cycle = run_cycle_fidelity(cfg, correction=correction)
    assert scaling.fidelities[0] == cycle.fidelities[0]
    assert scaling.delta_ts[0] == pytest.approx(0.02)


def test_density_fidelity_improves_with_more_cycles():
    cfg = ExperimentConfig(noise=ZKERNEL, t_total=0.5, n_values=(5, 10, 20), engine="density")
    result = run_repetition_scaling(cfg)
    f = result.fidelities
    assert f[0] < f[1] < f[2]
    assert result.sweep == "N"
    assert result.trajectories == 0  # density runs carry no ensemble size


# A density sweep whose points each take a few RK4 steps.
SHORT_DENSITY = ExperimentConfig(
    noise=ZKERNEL,
    t_total=0.02,
    n_values=(1, 2, 3, 4, 5),
    delta_t_values=(0.002, 0.004, 0.006, 0.008, 0.01),
    engine="density",
)


def _sequential_fidelities(cfg, correction, delta_ts, n_cycles):
    # The loop the threaded density sweep replaces: one point after another.
    spec = resolve_spec(cfg)
    ch = build_channels(spec)
    code, psi0 = _code_and_state(cfg, spec)
    rho0 = pure_state_projector(psi0)
    dt_int = default_dt_integrator(ch)
    return [
        pure_state_fidelity(
            psi0, experiment._density_qec_run(rho0, ch, code, dt, n, dt_int, correction)
        )
        for dt, n in zip(delta_ts, n_cycles)
    ]


@pytest.mark.parametrize("threads", [1, 2, 8])
@pytest.mark.parametrize("correction", [True, False])
def test_threaded_density_sweeps_equal_a_sequential_loop(monkeypatch, threads, correction):
    # Whatever the number of threads, each point's fidelity has the bytes of
    # a lone run, in sweep order.
    monkeypatch.setattr(experiment, "_point_threads", lambda: threads)
    cfg = SHORT_DENSITY
    cycle = run_cycle_fidelity(cfg, correction)
    dts = cfg.delta_t_values
    expected = _sequential_fidelities(cfg, correction, dts, (1,) * len(dts))
    assert np.array(cycle.fidelities).tobytes() == np.array(expected).tobytes()
    scaling = run_repetition_scaling(cfg, correction)
    dts = [cfg.t_total / n for n in cfg.n_values]
    expected = _sequential_fidelities(cfg, correction, dts, cfg.n_values)
    assert np.array(scaling.fidelities).tobytes() == np.array(expected).tobytes()


def test_threaded_corrected_sweep_on_a_fresh_code(monkeypatch):
    # The code's recovery products are built with the code, so a corrected
    # sweep on two threads, the first to use a newly built code, reads no
    # state built lazily by its points: it gives the sequential loop's bytes.
    monkeypatch.setattr(experiment, "_point_threads", lambda: 2)
    five_qubit_code.cache_clear()
    cfg = SHORT_DENSITY
    cycle = run_cycle_fidelity(cfg, correction=True)
    dts = cfg.delta_t_values
    expected = _sequential_fidelities(cfg, True, dts, (1,) * len(dts))
    assert np.array(cycle.fidelities).tobytes() == np.array(expected).tobytes()


@pytest.mark.parametrize(
    "settings, threads",
    [
        ({}, 1),
        ({"OPENBLAS_NUM_THREADS": "1"}, 4),
        ({"OMP_NUM_THREADS": "1"}, 4),
        ({"MKL_NUM_THREADS": "2"}, 2),
        ({"OPENBLAS_NUM_THREADS": "3", "OMP_NUM_THREADS": "1"}, 1),
        ({"OPENBLAS_NUM_THREADS": "8"}, 1),
        ({"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "2"}, 2),
        ({"OMP_NUM_THREADS": "4,2"}, 1),
    ],
)
def test_point_threads_are_the_cores_the_blas_leaves_free(monkeypatch, settings, threads):
    # On four usable cores: a BLAS on every core (no count set) leaves one
    # thread for the points, a one-thread BLAS leaves four.  The first
    # variable with a positive count wins, in OpenBLAS's order.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    for name in experiment._BLAS_THREAD_VARS:
        monkeypatch.delenv(name, raising=False)
    for name, value in settings.items():
        monkeypatch.setenv(name, value)
    assert experiment._point_threads() == threads


def test_point_threads_count_the_cpus_without_an_affinity_call(monkeypatch):
    # Where os has no sched_getaffinity the usable cores are os.cpu_count(),
    # and one when that cannot tell.
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    for name in experiment._BLAS_THREAD_VARS:
        monkeypatch.delenv(name, raising=False)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    monkeypatch.setattr(os, "cpu_count", lambda: 6)
    assert experiment._point_threads() == 3
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    assert experiment._point_threads() == 6
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert experiment._point_threads() == 1


def test_threaded_density_sweep_takes_each_point_once_under_stress(monkeypatch):
    # More threads than cores and a thread switch every microsecond: the
    # pool must still hand each point to one thread, so that none runs
    # twice and none is skipped.
    monkeypatch.setattr(experiment, "_point_threads", lambda: 8)
    run = experiment._density_qec_run
    taken = []

    def counting(rho0, ch, code, delta_t, n_cycles, dt_integrator, correction):
        taken.append(delta_t)
        return run(rho0, ch, code, delta_t, n_cycles, dt_integrator, correction)

    monkeypatch.setattr(experiment, "_density_qec_run", counting)
    dts = tuple(0.0005 * k for k in range(1, 17))
    cfg = ExperimentConfig(noise=ZKERNEL, delta_t_values=dts, engine="density")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        result = run_cycle_fidelity(cfg)
    finally:
        sys.setswitchinterval(interval)
    assert sorted(taken) == sorted(dts)
    expected = _sequential_fidelities(cfg, True, dts, (1,) * len(dts))
    assert np.array(result.fidelities).tobytes() == np.array(expected).tobytes()


def test_threaded_density_sweep_raises_the_earliest_failure(monkeypatch, tmp_path, caplog):
    # Points 1 and 3 fail, on three threads point 1 only after point 3 has.
    # The sweep reads the results in sweep order, so point 1's error is
    # raised, once the running points are done; no pool thread outlives the
    # sweep, and no point runs twice.  With one core no pool starts: the
    # calling thread runs the points in order and stops at point 1, as the
    # sequential loop did.  The error keeps its type and names its point,
    # by delta_t in a cycle sweep and by N in a scaling sweep.
    run = experiment._density_qec_run
    started, point_3_failed, threaded = [], threading.Event(), [True]

    def failing(rho0, ch, code, delta_t, n_cycles, dt_integrator, correction):
        index = SHORT_DENSITY.delta_t_values.index(delta_t)
        started.append(index)
        if index == 1 and threaded[0]:
            assert point_3_failed.wait(timeout=60)
        if index in (1, 3):
            if index == 3:
                point_3_failed.set()
            raise IntegrationError(f"point {index} failed")
        return run(rho0, ch, code, delta_t, n_cycles, dt_integrator, correction)

    monkeypatch.setattr(experiment, "_density_qec_run", failing)
    before = threading.active_count()
    for threads, expected in ((3, [0, 1, 2, 3]), (1, [0, 1])):
        monkeypatch.setattr(experiment, "_point_threads", lambda: threads)
        threaded[0] = threads > 1
        started.clear()
        with pytest.raises(IntegrationError, match="point 1 failed") as cycle:
            run_cycle_fidelity(SHORT_DENSITY)
        assert str(cycle.value) == "delta_t=0.004: point 1 failed"
        assert threading.active_count() == before
        # Point 4 may start before point 1's failure is read, never twice.
        assert sorted(set(started)) == sorted(started)
        assert [i for i in sorted(started) if i != 4] == expected

    def failing_scaling(rho0, ch, code, delta_t, n_cycles, dt_integrator, correction):
        if n_cycles in (2, 4):
            raise IntegrationError(f"point {n_cycles - 1} failed")
        return run(rho0, ch, code, delta_t, n_cycles, dt_integrator, correction)

    monkeypatch.setattr(experiment, "_density_qec_run", failing_scaling)
    for threads in (3, 1):
        monkeypatch.setattr(experiment, "_point_threads", lambda: threads)
        with pytest.raises(IntegrationError, match="point 1 failed") as scaling:
            run_repetition_scaling(SHORT_DENSITY)
        assert str(scaling.value) == "N=2 (delta_t=0.01): point 1 failed"
        assert threading.active_count() == before
    monkeypatch.setattr(experiment, "_density_qec_run", failing)
    # The CLI reports it as a numerical gate, exit 2.
    monkeypatch.setattr(experiment, "_point_threads", lambda: 3)
    config = _write(
        tmp_path,
        "short.yaml",
        GOOD_YAML.replace("engine: trajectory", "engine: density")
        .replace("t_total: 0.5", "t_total: 0.02")
        .replace("[0.02, 0.05]", "[0.002, 0.004, 0.006, 0.008, 0.01]"),
    )
    assert main(["cycle", "--config", config]) == 2
    assert "point 1 failed" in caplog.text
    assert threading.active_count() == before


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_density_sweep_raises_a_point_interrupt(monkeypatch, threads):
    # A point that raises a BaseException that is not an Exception stops the
    # sweep with it on any number of threads.  No pool thread outlives the
    # sweep, no point runs twice, and the points that have not started when
    # it is read never start: the other points take 0.1 s each, so all 16
    # would start only if the sweep stalled for about half a second.
    dts = tuple(0.0005 * k for k in range(1, 17))
    started, lock = [], threading.Lock()

    def interrupted(rho0, ch, code, delta_t, n_cycles, dt_integrator, correction):
        index = dts.index(delta_t)
        with lock:
            started.append(index)
        if index == 1:
            raise KeyboardInterrupt
        time.sleep(0.1)
        return rho0

    monkeypatch.setattr(experiment, "_density_qec_run", interrupted)
    monkeypatch.setattr(experiment, "_point_threads", lambda: threads)
    cfg = ExperimentConfig(noise=ZKERNEL, delta_t_values=dts, engine="density")
    before = threading.active_count()
    with pytest.raises(KeyboardInterrupt):
        run_cycle_fidelity(cfg)
    assert threading.active_count() == before
    assert sorted(set(started)) == sorted(started)
    assert {0, 1} <= set(started) and len(started) < len(dts)


def test_correction_beats_no_correction():
    cfg = ExperimentConfig(noise=ZKERNEL, delta_t_values=(0.02,), engine="density")
    corrected = run_cycle_fidelity(cfg, correction=True)
    control = run_cycle_fidelity(cfg, correction=False)
    assert corrected.fidelities[0] > control.fidelities[0]
    assert corrected.corrected and not control.corrected


def _cycle_series(cfg, correction, terms=5):
    # f_k = <psi|C(L^k rho0)|psi> / k! for k = 1..terms, with L the
    # density engine's right-hand side and C the correction channel (or
    # none), so that the one-cycle fidelity is 1 + sum_k f_k dt^k.
    spec = resolve_spec(cfg)
    ch = build_channels(spec)
    code, psi = _code_and_state(cfg, spec)
    rhs, rho = _rhs(ch), pure_state_projector(psi)
    series = []
    for k in range(1, terms + 1):
        rho = rhs(rho)
        image = correction_channel(rho, code) if correction else rho
        series.append(pure_state_fidelity(psi, image) / math.factorial(k))
    return series


@pytest.mark.parametrize("name", ["exponential_scaling", "collective_z"])
def test_corrected_cycle_series_has_no_first_order(name):
    # The paper's claim with no fit and no sweep: after correction the
    # first-order term of the one-cycle fidelity is roundoff (-1.7e-16 and
    # -1.4e-16 measured), while without it the term is the noise's own
    # (-1.8679 and -1.0).  Five terms reproduce every density `cycle`
    # infidelity (worst relative error 9.0e-7 and 1.03e-6, at dt = 0.02).
    cfg = load_config(CONFIG_DIR / f"{name}.yaml")
    corrected = _cycle_series(cfg, correction=True)
    assert abs(corrected[0]) <= 1e-12
    assert _cycle_series(cfg, correction=False)[0] < -0.5
    result = run_cycle_fidelity(cfg)
    for dt, infidelity in zip(result.delta_ts, result.infidelities):
        series = -sum(f * dt**k for k, f in enumerate(corrected, start=1))
        assert series == pytest.approx(infidelity, rel=1e-5, abs=0.0)


def test_engines_agree_on_corrected_fidelity():
    # trajectory estimate within 3 binomial standard errors of the integrator
    m = 2000
    dens = run_repetition_scaling(
        ExperimentConfig(noise=ZKERNEL, t_total=0.5, n_values=(5,), engine="density")
    )
    traj = run_repetition_scaling(
        ExperimentConfig(
            noise=ZKERNEL,
            t_total=0.5,
            n_values=(5,),
            engine="trajectory",
            trajectories=m,
            base_seed=2024,
        )
    )
    f = dens.fidelities[0]
    assert abs(traj.fidelities[0] - f) <= 3 * np.sqrt(f * (1 - f) / m)


# ---------------------------------------------------------------------------
# trajectory sweeps: the sweep points in lockstep on one block of all the
# trajectories.  The reference runs the sweep point by point, each point
# drawing its own uniform table.


def _trajectory_qec_run(psi0, ch, code, delta_t, n_cycles, num_trajectories, base_seed,
                        correction, substeps):
    stepper = trajectory.BatchStepper(ch, delta_t / substeps)
    draws_per_cycle = substeps + (len(code.generators) if correction else 0)
    uniforms = trajectory._uniform_table(base_seed, 0, num_trajectories, n_cycles * draws_per_cycle)
    uniforms = uniforms.reshape(num_trajectories, n_cycles, draws_per_cycle)
    psi = np.tile(psi0, (num_trajectories, 1))
    for c in range(n_cycles):
        for k in range(substeps):
            psi, _, _ = stepper.step(psi, uniforms[:, c, k])
        if correction:
            psi = _batch_syndrome_recover(psi, uniforms[:, c, substeps:], code)
    return psi.rows()


def _reference_point(cfg, correction, delta_t, n_cycles, trajectories=None):
    spec = resolve_spec(cfg)
    ch = build_channels(spec)
    code, psi0 = _code_and_state(cfg, spec)
    states = _trajectory_qec_run(
        psi0, ch, code, delta_t, n_cycles, trajectories or cfg.trajectories, cfg.base_seed,
        correction, cfg.trajectory_substeps,
    )
    return float(np.mean(np.abs(states @ psi0.conj()) ** 2))


@pytest.mark.parametrize("correction", [True, False])
@settings(max_examples=6, deadline=None)
@given(
    n_values=st.lists(st.integers(1, 6), min_size=1, max_size=4),
    trajectories=st.integers(1, 40),
)
# Four points of different lengths over 37 trajectories.
@example(n_values=[2, 5, 4, 8], trajectories=37)
def test_trajectory_sweeps_match_point_by_point_reference(correction, n_values, trajectories):
    # Points in any order, repeats included; each cycle sweep point is one
    # cycle of a scaling point's length.  Steps of at most 0.025 keep every
    # state within the first-order gate.
    cfg = ExperimentConfig(
        noise=ZKERNEL,
        t_total=0.1,
        n_values=tuple(n_values),
        delta_t_values=tuple(0.1 / n for n in n_values),
        engine="trajectory",
        trajectories=trajectories,
        trajectory_substeps=4,
        base_seed=1234,
    )
    cycle = run_cycle_fidelity(cfg, correction)
    scaling = run_repetition_scaling(cfg, correction)
    expected_cycle = [_reference_point(cfg, correction, dt, 1) for dt in cfg.delta_t_values]
    expected_scaling = [
        _reference_point(cfg, correction, dt, n) for dt, n in zip(scaling.delta_ts, cfg.n_values)
    ]
    assert list(cycle.fidelities) == expected_cycle
    assert list(scaling.fidelities) == expected_scaling


@contextlib.contextmanager
def _recorded_sweep_calls():
    """Record a sweep's stream seedings, draws, steps and recoveries in call order.

    ("seed", args) per _pcg64_streams call, ("draw", out.shape) per draw,
    ("step", delta_t, u.shape, u is C-contiguous, returned block) per
    BatchStepper.step call and ("recover", block) per recovery.
    """
    calls = []
    streams, step = trajectory._pcg64_streams, trajectory.BatchStepper.step
    recover = experiment._batch_syndrome_recover

    def seed(*args):
        calls.append(("seed", args))
        draw = streams(*args)

        def counted(out):
            calls.append(("draw", out.shape))
            return draw(out)

        return counted

    def stepped(self, block, u):
        out = step(self, block, u)
        calls.append(("step", self.delta_t, u.shape, u.flags.c_contiguous, out[0]))
        return out

    def recovered(block, uniforms, code):
        calls.append(("recover", block))
        return recover(block, uniforms, code)

    with (
        mock.patch.object(trajectory, "_pcg64_streams", seed),
        mock.patch.object(trajectory.BatchStepper, "step", stepped),
        mock.patch.object(experiment, "_batch_syndrome_recover", recovered),
    ):
        yield calls


def _after_one_seeding(calls, cfg):
    """The calls after the sweep's one seeding, of all cfg.trajectories streams."""
    assert calls[0] == ("seed", (cfg.base_seed, 0, cfg.trajectories))
    assert all(call[0] != "seed" for call in calls[1:])
    return calls[1:]


def test_trajectory_sweep_names_the_earliest_failing_point():
    # Steps of 0.04 pass the gate at the codeword (total 0.075) but not after
    # the dominant jump (0.125): with seed 1 the first 8 trajectories never
    # fail, but among 24 one does.  Steps of 0.08 or more fail at once.
    cfg = ExperimentConfig(
        noise=ZKERNEL,
        t_total=0.16,
        n_values=(2, 1),
        delta_t_values=(0.08, 0.4),
        engine="trajectory",
        trajectories=24,
        trajectory_substeps=2,
        base_seed=1,
    )
    for n in (1, 2):
        assert 0.0 < _reference_point(cfg, True, 0.08, n, trajectories=8) <= 1.0
        with pytest.raises(StepSizeError) as late:
            _reference_point(cfg, True, 0.08, n)
        assert str(late.value).startswith("total jump probability 0.1248 exceeds")
    with pytest.raises(StepSizeError) as cycle:
        run_cycle_fidelity(cfg)
    with pytest.raises(StepSizeError) as scaling:
        run_repetition_scaling(cfg)
    with pytest.raises(StepSizeError) as second:
        run_cycle_fidelity(ExperimentConfig(**{**vars(cfg), "delta_t_values": (0.01, 0.4)}))
    # The streams of all 24 trajectories are seeded once.
    spy = mock.patch.object(trajectory, "_pcg64_streams", wraps=trajectory._pcg64_streams)
    with spy as streams, pytest.raises(StepSizeError) as first:
        run_cycle_fidelity(ExperimentConfig(**{**vars(cfg), "delta_t_values": (0.4, 0.01)}))
    assert [c.args for c in streams.call_args_list] == [(cfg.base_seed, 0, 24)]
    assert str(cycle.value) == f"delta_t=0.08: {late.value}"
    assert str(scaling.value) == f"N=2 (delta_t=0.08): {late.value}"
    for only in (second, first):
        assert str(only.value) == (
            "delta_t=0.4: total jump probability 0.3736 exceeds the first-order gate 0.1; "
            "reduce delta_t below 0.2"
        )


def test_trajectory_sweep_names_the_point_of_any_simulation_error(monkeypatch):
    # A recovery's SimulationError is raised again as the same type, prefixed
    # by its point.  In a scaling sweep over N = 3, 1 the recoveries run
    # point 0, point 1 (cycle 0), then point 0 twice: when point 1 fails in
    # cycle 0 and point 0 in cycle 2, the earlier point is named.
    cfg = ExperimentConfig(
        noise=ZKERNEL,
        t_total=0.06,
        n_values=(3, 1),
        engine="trajectory",
        trajectories=6,
        trajectory_substeps=2,
    )
    recover = experiment._batch_syndrome_recover
    for failing, named in (({1}, "N=1 (delta_t=0.06)"), ({1, 3}, "N=3 (delta_t=0.02)")):
        calls = []

        def recovered(block, uniforms, code):
            calls.append(len(calls))
            if calls[-1] in failing:
                raise SimulationError(f"recovery {calls[-1]} collapsed")
            return recover(block, uniforms, code)

        monkeypatch.setattr(experiment, "_batch_syndrome_recover", recovered)
        with pytest.raises(SimulationError) as err:
            run_repetition_scaling(cfg)
        assert type(err.value) is SimulationError
        assert str(err.value) == f"{named}: recovery {max(failing)} collapsed"
        assert str(err.value.__cause__) == f"recovery {max(failing)} collapsed"
        assert calls == [0, 1, 2, 3]


def _assert_draws_each_block_once(correction, trajectories):
    # One seeding of all the trajectories' streams, and as many draws as the
    # longest point reads: no point redraws a prefix.
    cfg = ExperimentConfig(
        noise=ZKERNEL,
        t_total=0.06,
        n_values=(1, 3, 2),
        delta_t_values=(0.02, 0.01, 0.03),
        engine="trajectory",
        trajectories=trajectories,
        trajectory_substeps=2,
    )
    per_cycle = 2 + (4 if correction else 0)
    for run, longest in ((run_cycle_fidelity, 1), (run_repetition_scaling, 3)):
        with _recorded_sweep_calls() as calls:
            run(cfg, correction)
        calls = _after_one_seeding(calls, cfg)
        draws = [c for c in calls if c[0] == "draw"]
        assert draws == [("draw", (trajectories,))] * (longest * per_cycle)
        # Each step reads one draw's uniforms of every row, contiguous.
        steps = [c for c in calls if c[0] == "step"]
        assert steps and all(c[2] == (trajectories,) and c[3] for c in steps)


@pytest.mark.parametrize("correction", [True, False])
def test_trajectory_sweep_draws_each_block_once(correction):
    _assert_draws_each_block_once(correction, 10)


@pytest.mark.parametrize("trajectories", [8, 3, 1])
@pytest.mark.parametrize("correction", [True, False])
def test_trajectory_sweep_draws_each_block_once_for_any_count(correction, trajectories):
    # A few trajectories, and one.
    _assert_draws_each_block_once(correction, trajectories)


def test_trajectory_sweep_steps_one_block_above_8192_rows():
    # 8193 trajectories are one block: one seeding, and every step reads a
    # contiguous (8193,) row of uniforms.
    cfg = ExperimentConfig(
        noise=ZKERNEL,
        delta_t_values=(0.01, 0.02),
        engine="trajectory",
        trajectories=8193,
        trajectory_substeps=2,
    )
    with _recorded_sweep_calls() as calls:
        run_cycle_fidelity(cfg)
    steps = [c for c in _after_one_seeding(calls, cfg) if c[0] == "step"]
    assert len(steps) == 4 and all(c[2] == (8193,) and c[3] for c in steps)


@pytest.mark.parametrize("correction", [True, False])
def test_trajectory_sweep_steps_each_points_cycle_whole_in_sweep_order(correction):
    # In each cycle the points with cycles left step in sweep order, and a
    # point's substeps, then its recovery, are contiguous: the order of the
    # step calls whose jump decisions the trajectory_qec benchmark's
    # reference records.  Distinct intervals name the points.
    substeps = 3
    cfg = ExperimentConfig(
        noise=ZKERNEL,
        t_total=0.06,
        n_values=(2, 3, 1),
        delta_t_values=(0.02, 0.01, 0.03),
        engine="trajectory",
        trajectories=6,
        trajectory_substeps=substeps,
    )
    for run, cycles in ((run_cycle_fidelity, (1, 1, 1)), (run_repetition_scaling, cfg.n_values)):
        with _recorded_sweep_calls() as calls:
            result = run(cfg, correction)
        point = {dt / substeps: i for i, dt in enumerate(result.delta_ts)}
        assert len(point) == 3
        expected = [
            (kind, i)
            for c in range(max(cycles))
            for i in range(3)
            if c < cycles[i]
            for kind in ["step"] * substeps + (["recover"] if correction else [])
        ]
        calls = [c for c in _after_one_seeding(calls, cfg) if c[0] != "draw"]
        order = []
        for prev, call in zip([None, *calls], calls):
            if call[0] == "step":
                order.append(("step", point[call[1]]))
            else:
                # A recovery takes the block its point's last step returned.
                assert prev[0] == "step" and call[1] is prev[4]
                order.append(("recover", point[prev[1]]))
        assert order == expected


def test_run_trajectory_logs_requires_commensurate_times():
    cfg = ExperimentConfig(
        noise=ZKERNEL, t_total=0.5, delta_t_values=(0.03,), engine="trajectory", trajectories=10
    )
    with pytest.raises(ConfigError):
        run_trajectory_logs(cfg)


def test_trajectory_logs_interval_check_is_the_samplers(tmp_path):
    # 1.0 / 0.3 is not an integer: the sampler's own interval count rejects it,
    # the library reports a ConfigError and the CLI exits 1.
    cfg = ExperimentConfig(
        noise=ZKERNEL, t_total=1.0, delta_t_values=(0.3,), engine="trajectory", trajectories=10
    )
    with pytest.raises(ConfigError, match="must be a multiple of") as info:
        run_trajectory_logs(cfg)
    assert isinstance(info.value.__cause__, DomainError)
    bad = _write(
        tmp_path,
        "t1.yaml",
        CHEAP_TRAJECTORY_YAML.replace("t_total: 0.1", "t_total: 1.0").replace(
            "delta_t_values: [0.05]", "delta_t_values: [0.3]"
        ),
    )
    assert main(["trajectories", "--config", bad]) == 1


def test_run_trajectory_logs_structure():
    cfg = ExperimentConfig(
        noise=ZKERNEL,
        t_total=0.1,
        delta_t_values=(0.01,),
        engine="trajectory",
        trajectories=60,
        base_seed=99,
    )
    logs = run_trajectory_logs(cfg)
    assert logs == sorted(logs, key=lambda row: (row[0], row[1]))
    for idx, t, n in logs:
        assert 0 <= idx < 60
        assert 0.0 <= t < 0.1
        assert 0 <= n < 15


def test_validation_suite_passes_on_reference_config():
    cfg = ExperimentConfig(noise=ZKERNEL, engine="density")
    report = run_validation_suite(cfg)
    assert report.passed, report.render()
    names = [c.name for c in report.checks]
    assert names == [
        "noise_psd_gate",
        "jump_probability_gate",
        "gram_orthogonality",
        "recovery_exhaustive",
        "unraveling_consistency",
        "first_order_channel_convergence",
    ]
    text = report.render()
    assert "6/6 checks passed" in text


def test_validation_suite_flags_bad_noise():
    bad = ExperimentConfig(
        noise=noise_spec_direct(np.diag([0.2, 0.2, 1.0])), normalize_rates=False
    )
    # sneak a negative rate past the constructor by rebuilding A in place is
    # impossible (arrays are frozen), so use the deferred direct form instead
    from corrqec.noise import DirectNoise

    deferred = ExperimentConfig(
        noise=DirectNoise(A=np.diag([-1.0, 0.0, 0.0]), B=None, num_qubits=1),
        normalize_rates=False,
    )
    report = run_validation_suite(deferred)
    assert not report.passed
    psd = report.checks[0]
    assert psd.name == "noise_psd_gate" and not psd.passed
    assert run_validation_suite(bad).checks[0].passed


def test_validation_psd_gate_measures_a_direct_input_below_the_floor():
    # the spec does not resolve, so the gate reports the input's lowest eigenvalue
    cfg = ExperimentConfig(
        noise=DirectNoise(A=np.diag([1.0, 0.5, -0.01])), normalize_rates=False
    )
    line = run_validation_suite(cfg).render().splitlines()[0]
    assert line == "FAIL noise_psd_gate: measured=-1.000e-02 bound=>=-1e-10"
    # an input the matrix gate refuses is still reported as an error
    skew = np.diag([1.0, 0.5, 0.2]).astype(complex)
    skew[0, 1] = 1.0
    check = run_validation_suite(ExperimentConfig(noise=DirectNoise(A=skew))).checks[0]
    assert (check.passed, check.measured) == (False, "error")
    assert "DomainError: A is not Hermitian" in check.detail


def test_validation_suite_builds_its_inputs_once():
    # one spec resolution and one channel build for the configured noise; the
    # unraveling check builds its own L=2 channels
    cfg = ExperimentConfig(noise=ZKERNEL, engine="density")
    with mock.patch("corrqec.experiment.resolve_spec", wraps=resolve_spec) as resolve, \
            mock.patch("corrqec.experiment.build_channels", wraps=build_channels) as build:
        report = run_validation_suite(cfg)
    assert report.passed, report.render()
    assert resolve.call_count == 1
    assert build.call_count == 2


def test_validation_probability_gate_binds_trajectory_engine_only():
    # unit-rate dephasing at a 0.5 interval: total jump probability 0.5, over
    # the gate; reported as a failure for the trajectory engine, as passing
    # (not binding) for the density engine, and never raised
    hot = dict(
        noise=noise_spec_direct(np.diag([0.0, 0.0, 1.0])),
        normalize_rates=False,
        t_total=0.5,
        n_values=(1,),
        delta_t_values=(0.5,),
    )
    for engine, passed in (("trajectory", False), ("density", True)):
        report = run_validation_suite(ExperimentConfig(engine=engine, **hot))
        gate = report.checks[1]
        assert gate.name == "jump_probability_gate"
        assert gate.measured == "0.5000"
        assert gate.passed is passed
        assert ("not binding" in gate.detail) is passed


def test_validation_channel_order_passes_on_a_stationary_state():
    # |0000> does not evolve under collective z dephasing, so both errors are
    # roundoff and their ratio (about 2) used to FAIL the check
    noise = collective_axis_kernel(4, axis=3, amplitude=0.2)
    check = run_validation_suite(ExperimentConfig(noise=noise)).checks[-1]
    assert check.name == "first_order_channel_convergence"
    assert check.passed, check.detail
    assert check.detail.startswith(
        "stationary state, channel and integrator agree to roundoff: errors "
    )
    # a state the dephasing acts on is still held to the 4 +/- 0.5 ratio
    moving = ExperimentConfig(noise=noise, logical_state=(0.6, 0.8))
    check = run_validation_suite(moving).checks[-1]
    assert check.passed and check.detail.startswith("errors ")
    assert 3.5 <= float(check.measured) <= 4.5


# ---------------------------------------------------------------------------
# CSV rendering


def test_render_cycle_csv_golden():
    result = FidelityResult(
        sweep="delta_t",
        sweep_values=(0.01, 0.02),
        delta_ts=(0.01, 0.02),
        fidelities=(0.999, 0.996),
        infidelities=(0.001, 0.004),
        fit=None,
        engine="density",
        trajectories=0,
        base_seed=7,
        corrected=True,
        wall_time_s=0.0,
    )
    assert render_cycle_csv(result) == (
        "delta_t,fidelity,infidelity,engine,M,seed\n"
        "0.01,0.999,0.001,density,0,7\n"
        "0.02,0.996,0.004,density,0,7\n"
        "# fit: insufficient positive points\n"
    )


def test_render_scaling_csv_golden():
    result = FidelityResult(
        sweep="N",
        sweep_values=(5, 10),
        delta_ts=(0.1, 0.05),
        fidelities=(0.9, 0.95),
        infidelities=(0.1, 0.05),
        fit=FitResult(slope=-0.9, intercept=1.1, stderr=0.025, points=5),
        engine="trajectory",
        trajectories=4000,
        base_seed=11,
        corrected=True,
        wall_time_s=1.0,
    )
    assert render_scaling_csv(result) == (
        "N,delta_t,final_fidelity,final_infidelity,engine,M,seed\n"
        "5,0.1,0.9,0.1,trajectory,4000,11\n"
        "10,0.05,0.95,0.05,trajectory,4000,11\n"
        "# fit: slope=-0.9 stderr=0.025 points=5\n"
    )


def test_render_jump_log_csv_golden():
    text = render_jump_log_csv([(0, 0.27, 5), (1, 0.0, 2)])
    assert text == "trajectory_index,t,channel\n0,0.27,5\n1,0.0,2\n"


# ---------------------------------------------------------------------------
# CLI


CHEAP_DENSITY_YAML = """\
noise:
  kind: collective_axis
  num_qubits: 5
  amplitude: 0.2
  axis: z
t_total: 0.1
delta_t_values: [0.02, 0.05]
engine: density
base_seed: 3
"""

CHEAP_TRAJECTORY_YAML = """\
noise:
  kind: exponential
  num_qubits: 5
  amplitude: 1.0
  correlation_length: 2.0
  axis: z
  tau_c: 0.05
t_total: 0.1
delta_t_values: [0.05]
trajectories: 100
trajectory_substeps: 4
engine: trajectory
base_seed: 41
"""


def test_cli_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "cycle" in capsys.readouterr().out


def test_cli_missing_and_invalid_config(tmp_path, capsys):
    assert main(["cycle", "--config", str(tmp_path / "missing.yaml")]) == 1
    bad = _write(tmp_path, "bad.yaml", "noise: [unclosed")
    assert main(["cycle", "--config", bad]) == 1
    unknown = _write(tmp_path, "unknown.yaml", CHEAP_DENSITY_YAML + "mystery: 1\n")
    assert main(["cycle", "--config", unknown]) == 1
    assert main(["nonsense", "--config", unknown]) == 1
    too_big = CHEAP_DENSITY_YAML.replace("num_qubits: 5", "num_qubits: 13")
    assert too_big != CHEAP_DENSITY_YAML
    assert main(["cycle", "--config", _write(tmp_path, "too_big.yaml", too_big)]) == 1
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("command", ["validate", "cycle"])
def test_cli_undecodable_config_bytes_are_invalid_yaml(tmp_path, capsys, caplog, command):
    # Bytes that are not UTF-8, in a comment: PyYAML reads the file as bytes
    # and reports them as invalid YAML, whatever the locale's encoding.
    path = tmp_path / "bad_bytes.yaml"
    text = CHEAP_DENSITY_YAML.encode().replace(b"engine: density", b"engine: density  # \xff\xfe")
    assert b"\xff" in text
    path.write_bytes(text)
    assert main([command, "--config", str(path)]) == 1
    assert f"configuration error: invalid YAML in {path}" in caplog.text
    assert capsys.readouterr().out == ""


def test_cli_over_cap_direct_register_exits_one(tmp_path):
    # a 39x39 A is a 13-qubit register; the direct kind checks it only when
    # the experiment resolves the spec
    a = "\n".join(
        "    - [" + ", ".join("0.1" if i == j else "0.0" for j in range(39)) + "]"
        for i in range(39)
    )
    text = f"noise:\n  kind: direct\n  num_qubits: 13\n  A:\n{a}\ndelta_t_values: [0.01]\n"
    path = _write(tmp_path, "over_cap.yaml", text)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    for command in ("cycle", "scaling", "trajectories"):
        proc = subprocess.run(
            [sys.executable, "-m", "corrqec.cli", command, "--config", path],
            env=env,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1, (command, proc.stderr)
        assert "Traceback" not in proc.stderr
        assert "configuration error" in proc.stderr
    assert main(["validate", "--config", path]) == 3


def test_cli_rejects_non_finite_times(tmp_path):
    # YAML's .nan and .inf load as floats; each is a config error, not a crash
    texts = (
        CHEAP_DENSITY_YAML.replace("[0.02, 0.05]", "[0.02, .nan]"),
        CHEAP_DENSITY_YAML.replace("[0.02, 0.05]", "[.inf]"),
        CHEAP_DENSITY_YAML.replace("t_total: 0.1", "t_total: .inf"),
    )
    for i, text in enumerate(texts):
        assert text != CHEAP_DENSITY_YAML
        path = _write(tmp_path, f"non_finite_{i}.yaml", text)
        for command in ("cycle", "scaling", "validate"):
            assert main([command, "--config", path]) == 1


@pytest.mark.parametrize("key", ["tau_c", "g1"])
def test_cli_non_finite_noise_parameter_is_a_config_error(tmp_path, key):
    # tau_c: .inf used to reach the integrator as a non-finite A and exit 2
    text = CHEAP_DENSITY_YAML.replace("  axis: z\n", f"  axis: z\n  {key}: .inf\n")
    assert text != CHEAP_DENSITY_YAML
    path = _write(tmp_path, "non_finite_noise.yaml", text)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    for command in ("cycle", "validate"):
        proc = subprocess.run(
            [sys.executable, "-m", "corrqec.cli", command, "--config", path],
            env=env,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1, (command, proc.stderr)
        assert "configuration error" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert "RuntimeWarning" not in proc.stderr


def test_cli_rejects_nan_logical_state(tmp_path):
    # The unit-norm test is false for NaN; the state must not reach the engines.
    text = CHEAP_DENSITY_YAML + "logical_state: [[.nan, 0.0], [0.0, 0.0]]\n"
    path = _write(tmp_path, "nan_state.yaml", text)
    for command in ("cycle", "scaling", "validate"):
        assert main([command, "--config", path]) == 1


def test_cli_cycle_writes_csv(tmp_path, capsys):
    cfg = _write(tmp_path, "cycle.yaml", CHEAP_DENSITY_YAML)
    out = tmp_path / "cycle.csv"
    assert main(["cycle", "--config", cfg, "--out", str(out)]) == 0
    text = out.read_text()
    assert text.startswith("delta_t,fidelity,infidelity,engine,M,seed\n")
    assert ",density,0,3" in text
    # stdout path
    assert main(["cycle", "--config", cfg]) == 0
    assert capsys.readouterr().out == text


def test_cli_unwritable_out_is_a_config_error(tmp_path, capsys, caplog):
    # The OSError of the write is logged as a configuration error, not a traceback.
    cfg = _write(tmp_path, "cycle.yaml", CHEAP_DENSITY_YAML)
    out = tmp_path / "missing" / "out.csv"
    assert main(["cycle", "--config", cfg, "--out", str(out)]) == 1
    assert not out.exists()
    assert f"configuration error: cannot write {out}" in caplog.text
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("command, runner", [("cycle", "run_cycle_fidelity"),
                                             ("validate", "run_validation_suite")])
@pytest.mark.parametrize("parent", ["missing", "file"])
def test_cli_unwritable_out_fails_before_the_run(tmp_path, caplog, command, runner, parent):
    # An --out whose directory is missing, or is a file, is refused before
    # the sweep or the suite runs.
    cfg = _write(tmp_path, "cycle.yaml", CHEAP_DENSITY_YAML)
    (tmp_path / "file").write_text("")
    out = tmp_path / parent / "x.csv"
    with mock.patch(f"corrqec.cli.{runner}") as run:
        assert main([command, "--config", cfg, "--out", str(out)]) == 1
    run.assert_not_called()
    reason = "No such file or directory" if parent == "missing" else "Not a directory"
    assert f"configuration error: cannot write {out}: {reason}" in caplog.text


@pytest.mark.parametrize("kind", ["directory", "empty"])
def test_cli_out_directory_fails_before_the_sweep(tmp_path, monkeypatch, capsys, caplog, kind):
    # An existing directory, or "" (the current one), cannot be the output
    # file: it is a configuration error, with the reason a write would give,
    # before the scaling sweep runs.
    cfg = _write(tmp_path, "cycle.yaml", CHEAP_DENSITY_YAML)
    monkeypatch.chdir(tmp_path)
    out = str(tmp_path) if kind == "directory" else ""
    with mock.patch("corrqec.cli.run_repetition_scaling") as run:
        assert main(["scaling", "--config", cfg, "--out", out]) == 1
    run.assert_not_called()
    assert f"configuration error: cannot write {out}: Is a directory" in caplog.text
    assert capsys.readouterr().out == ""


def test_cli_scaling_no_correction(tmp_path):
    cfg = _write(
        tmp_path,
        "scaling.yaml",
        CHEAP_DENSITY_YAML.replace("delta_t_values: [0.02, 0.05]", "n_values: [2, 4]"),
    )
    out = tmp_path / "scaling.csv"
    assert main(["scaling", "--config", cfg, "--no-correction", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "N,delta_t,final_fidelity,final_infidelity,engine,M,seed"
    assert len(lines) == 4  # header, two rows, fit trailer
    assert lines[-1].startswith("# fit:")


def test_cli_trajectory_determinism_and_seed_override(tmp_path):
    cfg = _write(tmp_path, "traj.yaml", CHEAP_TRAJECTORY_YAML)
    out1, out2, out3 = (tmp_path / f"run{i}.csv" for i in range(3))
    assert main(["cycle", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["cycle", "--config", cfg, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert main(["cycle", "--config", cfg, "--seed", "42", "--out", str(out3)]) == 0
    assert out1.read_bytes() != out3.read_bytes()
    assert ",trajectory,100,41" in out1.read_text()
    assert ",trajectory,100,42" in out3.read_text()


def test_cli_negative_seed_is_a_config_error(tmp_path, caplog):
    cfg = _write(tmp_path, "traj.yaml", CHEAP_TRAJECTORY_YAML)
    assert main(["cycle", "--config", cfg, "--seed", "-1"]) == 1
    assert "configuration error" in caplog.text
    assert "base_seed must be a nonnegative integer" in caplog.text


def test_cli_simulation_invariant_exits_two(tmp_path, monkeypatch, caplog):
    # a bare SimulationError (norm collapse, a branch probability outside
    # [0, 1], a fidelity outside [0, 1]) is a numerical gate, not a traceback
    def collapse(cfg, correction=True):
        raise SimulationError("trajectory state norm collapsed during a step")

    monkeypatch.setattr("corrqec.cli.run_cycle_fidelity", collapse)
    cfg = _write(tmp_path, "cycle.yaml", CHEAP_DENSITY_YAML)
    assert main(["cycle", "--config", cfg]) == 2
    assert "numerical gate: trajectory state norm collapsed" in caplog.text


def test_cli_engine_override(tmp_path):
    cfg = _write(tmp_path, "cycle.yaml", CHEAP_TRAJECTORY_YAML)
    out = tmp_path / "dens.csv"
    assert main(["cycle", "--config", cfg, "--engine", "density", "--out", str(out)]) == 0
    assert ",density,0,41" in out.read_text()


def test_cli_gate_violation_exits_two(tmp_path):
    cfg = _write(
        tmp_path,
        "hot.yaml",
        CHEAP_TRAJECTORY_YAML.replace("delta_t_values: [0.05]", "delta_t_values: [2.0]").replace(
            "trajectory_substeps: 4", "trajectory_substeps: 1"
        ),
    )
    assert main(["cycle", "--config", cfg]) == 2


def test_cli_trajectories_command(tmp_path):
    # raw logs step at delta_t directly, so it must sit under the jump gate
    cfg = _write(
        tmp_path,
        "traj.yaml",
        CHEAP_TRAJECTORY_YAML.replace("delta_t_values: [0.05]", "delta_t_values: [0.01]"),
    )
    out = tmp_path / "jumps.csv"
    assert main(["trajectories", "--config", cfg, "--out", str(out)]) == 0
    assert out.read_text().startswith("trajectory_index,t,channel\n")
    # non-commensurate t_total is a config failure
    bad = _write(
        tmp_path,
        "badt.yaml",
        CHEAP_TRAJECTORY_YAML.replace("delta_t_values: [0.05]", "delta_t_values: [0.03]"),
    )
    assert main(["trajectories", "--config", bad]) == 1


@pytest.mark.parametrize("path", sorted(CONFIG_DIR.glob("*.yaml")), ids=lambda p: p.name)
def test_packaged_configs_pass_validate(path, capsys):
    assert main(["validate", "--config", str(path)]) == 0, capsys.readouterr().out


def test_cli_validate_pass_and_fail(tmp_path, capsys):
    good = _write(tmp_path, "good.yaml", CHEAP_DENSITY_YAML)
    assert main(["validate", "--config", good]) == 0
    assert "6/6 checks passed" in capsys.readouterr().out
    bad = _write(
        tmp_path,
        "bad.yaml",
        "noise:\n"
        "  kind: direct\n"
        "  A: [[-1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]\n"
        "delta_t_values: [0.01]\n",
    )
    assert main(["validate", "--config", bad]) == 3
    assert "FAIL noise_psd_gate" in capsys.readouterr().out
