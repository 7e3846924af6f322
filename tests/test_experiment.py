"""Experiment driver, config parsing, CSV output, CLI exit codes."""

import math
from unittest import mock

import numpy as np
import pytest

from corrqec import trajectory
from corrqec.cli import main
from corrqec.config import load_config, parse_config
from corrqec.errors import ConfigError, DomainError, SimulationError, StepSizeError
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
    build_channels,
    exponential_kernel,
    max_rate,
    noise_spec_direct,
)
from corrqec.qecc import _batch_syndrome_recover

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
    assert fit_loglog(x5, y, min_points=4).points == 4


def test_resolve_spec_normalization():
    cfg = ExperimentConfig(noise=ZKERNEL)
    assert max_rate(resolve_spec(cfg)) == pytest.approx(1.0, abs=1e-12)
    raw = ExperimentConfig(noise=ZKERNEL, normalize_rates=False)
    assert max_rate(resolve_spec(raw)) != pytest.approx(1.0, abs=1e-6)


def test_experiment_config_validation():
    with pytest.raises(ConfigError):
        ExperimentConfig(noise="not a kernel")
    with pytest.raises(ConfigError):
        ExperimentConfig(noise=ZKERNEL, code="steane")
    with pytest.raises(ConfigError):
        ExperimentConfig(noise=ZKERNEL, engine="tensor_network")
    with pytest.raises(ConfigError):
        ExperimentConfig(noise=ZKERNEL, logical_state=(1.0, 1.0))
    with pytest.raises(ConfigError):
        ExperimentConfig(noise=ZKERNEL, t_total=0.0)
    with pytest.raises(ConfigError):
        ExperimentConfig(noise=ZKERNEL, n_values=(0,))
    with pytest.raises(ConfigError):
        ExperimentConfig(noise=ZKERNEL, delta_t_values=())
    for trajectories in (0, 2.5, True, "10"):
        with pytest.raises(ConfigError, match="trajectories"):
            ExperimentConfig(noise=ZKERNEL, trajectories=trajectories)
    with pytest.raises(ConfigError):
        ExperimentConfig(noise=ZKERNEL, trajectory_substeps=0)
    for seed in (-1, True, 1.5):
        with pytest.raises(ConfigError, match="base_seed"):
            ExperimentConfig(noise=ZKERNEL, base_seed=seed)


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
    with pytest.raises(ConfigError, match="correlation_length"):
        parse_config({**base, "noise": {"kind": "exponential", "num_qubits": 2}})
    with pytest.raises(ConfigError, match="do not apply"):
        parse_config({**base, "noise": {"kind": "lowering", "num_qubits": 2, "amplitude": 1.0}})
    with pytest.raises(ConfigError, match="unit norm"):
        parse_config({**base, "logical_state": [[1.0, 0.0], [1.0, 0.0]]})
    with pytest.raises(ConfigError, match="integer"):
        parse_config({**base, "n_values": [5, True]})
    with pytest.raises(ConfigError, match="number"):
        parse_config({**base, "t_total": "long"})
    with pytest.raises(ConfigError):
        parse_config({**base, "trajectory_substeps": 2.5})
    with pytest.raises(ConfigError):
        parse_config([1, 2, 3])


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


def test_correction_beats_no_correction():
    cfg = ExperimentConfig(noise=ZKERNEL, delta_t_values=(0.02,), engine="density")
    corrected = run_cycle_fidelity(cfg, correction=True)
    control = run_cycle_fidelity(cfg, correction=False)
    assert corrected.fidelities[0] > control.fidelities[0]
    assert corrected.corrected and not control.corrected


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
# trajectory sweeps: blocks outside, sweep points inside.  The reference runs
# the sweep point by point, each point drawing its own uniform tables.


def _trajectory_qec_run(psi0, ch, code, delta_t, n_cycles, num_trajectories, base_seed,
                        correction, substeps):
    stepper = trajectory.BatchStepper(ch, delta_t / substeps)
    draws_per_cycle = substeps + (len(code.generators) if correction else 0)
    states = np.empty((num_trajectories, ch.dim), dtype=complex)
    blocks = trajectory.uniform_blocks(base_seed, num_trajectories, n_cycles * draws_per_cycle)
    for start, uniforms in blocks:
        count = uniforms.shape[0]
        uniforms = uniforms.reshape(count, n_cycles, draws_per_cycle)
        psi = np.tile(psi0, (count, 1))
        for c in range(n_cycles):
            for k in range(substeps):
                psi, _, _ = stepper.step(psi, uniforms[:, c, k])
            if correction:
                psi = _batch_syndrome_recover(psi, uniforms[:, c, substeps:], code)
        states[start : start + count] = psi
    return states


def _ensemble_fidelity(psi0, states):
    overlaps = states @ psi0.conj()
    return float(np.mean(np.abs(overlaps) ** 2))


def _reference_point(cfg, correction, delta_t, n_cycles, trajectories=None):
    spec = resolve_spec(cfg)
    ch = build_channels(spec)
    code, psi0 = _code_and_state(cfg, spec)
    states = _trajectory_qec_run(
        psi0, ch, code, delta_t, n_cycles, trajectories or cfg.trajectories, cfg.base_seed,
        correction, cfg.trajectory_substeps,
    )
    return _ensemble_fidelity(psi0, states)


@pytest.mark.parametrize("correction", [True, False])
def test_trajectory_sweeps_match_point_by_point_reference(correction):
    # 37 trajectories in blocks of 8: four full blocks and a short one.
    cfg = ExperimentConfig(
        noise=ZKERNEL,
        t_total=0.2,
        n_values=(2, 5, 4, 8),
        delta_t_values=(0.05, 0.12, 0.1, 0.08),
        engine="trajectory",
        trajectories=37,
        trajectory_substeps=4,
        base_seed=1234,
    )
    with mock.patch.object(trajectory, "_BLOCK", 8):
        cycle = run_cycle_fidelity(cfg, correction)
        scaling = run_repetition_scaling(cfg, correction)
        expected_cycle = [_reference_point(cfg, correction, dt, 1) for dt in cfg.delta_t_values]
        expected_scaling = [
            _reference_point(cfg, correction, dt, n)
            for dt, n in zip(scaling.delta_ts, cfg.n_values)
        ]
    assert list(cycle.fidelities) == expected_cycle
    assert list(scaling.fidelities) == expected_scaling


def test_trajectory_sweep_names_the_earliest_failing_point():
    # Steps of 0.04 pass the gate at the codeword (total 0.075) but not after
    # the dominant jump (0.125): with seed 1 the first such failure is in the
    # third block of 4.  Steps of 0.08 or more fail at once, in block 0, so
    # with blocks outside the later point fails first; the earlier one is named.
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
    with mock.patch.object(trajectory, "_BLOCK", 4):
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
        # Once the first point has failed, no further block is drawn.
        spy = mock.patch.object(trajectory, "_uniform_table", wraps=trajectory._uniform_table)
        with spy as table, pytest.raises(StepSizeError) as first:
            run_cycle_fidelity(ExperimentConfig(**{**vars(cfg), "delta_t_values": (0.4, 0.01)}))
        assert table.call_count == 1
    assert str(cycle.value) == f"delta_t=0.08: {late.value}"
    assert str(scaling.value) == f"N=2 (delta_t=0.08): {late.value}"
    for only in (second, first):
        assert str(only.value) == (
            "delta_t=0.4: total jump probability 0.3736 exceeds the first-order gate 0.1; "
            "reduce delta_t below 0.2"
        )


@pytest.mark.parametrize("correction", [True, False])
def test_trajectory_sweep_draws_each_block_once(correction):
    cfg = ExperimentConfig(
        noise=ZKERNEL,
        t_total=0.06,
        n_values=(1, 3, 2),
        delta_t_values=(0.02, 0.01, 0.03),
        engine="trajectory",
        trajectories=10,
        trajectory_substeps=2,
    )
    per_cycle = 2 + (4 if correction else 0)
    spy = mock.patch.object(trajectory, "_uniform_table", wraps=trajectory._uniform_table)
    for run, longest in ((run_cycle_fidelity, 1), (run_repetition_scaling, 3)):
        with mock.patch.object(trajectory, "_BLOCK", 4), spy as table:
            run(cfg, correction)
        assert table.call_count == math.ceil(10 / 4)
        assert [c.args[1:] for c in table.call_args_list] == [
            (start, min(4, 10 - start), longest * per_cycle) for start in (0, 4, 8)
        ]


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


def test_cli_missing_and_invalid_config(tmp_path):
    assert main(["cycle", "--config", str(tmp_path / "missing.yaml")]) == 1
    bad = _write(tmp_path, "bad.yaml", "noise: [unclosed")
    assert main(["cycle", "--config", bad]) == 1
    unknown = _write(tmp_path, "unknown.yaml", CHEAP_DENSITY_YAML + "mystery: 1\n")
    assert main(["cycle", "--config", unknown]) == 1
    assert main(["nonsense", "--config", unknown]) == 1


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
