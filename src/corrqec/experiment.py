"""Experiment drivers: per-cycle fidelity, repetition scaling, validation, CSV.

Two quantitative claims are orchestrated here for the five-qubit code under
correlated noise:

* per correction interval delta_t, the corrected fidelity is 1 - O(delta_t^2),
  i.e. the log-log slope of infidelity against delta_t is close to 2 (without
  correction it is close to 1);
* splitting a fixed total time T0 into N correction cycles leaves a residual
  infidelity proportional to N * (T0/N)^2 = T0^2 / N, i.e. slope -1 in N.

The density engine (exact integration + deterministic correction channel) is
the default and produces noise-free slopes; the trajectory engine samples the
same experiment stochastically and is validated against it.  All runs are
reproducible from (config, base_seed): identical inputs give bit-identical
CSV output.  A trajectory sweep steps its points in lockstep on one block
of all its trajectories, one cycle's uniforms at a time, and each point
reads a prefix of every row's stream, so the randomness contract is
unchanged.
"""

from __future__ import annotations

import functools
import logging
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import trajectory
from .errors import ConfigError, DomainError, SimulationError
from .lindblad import (
    EvolutionConfig,
    _rhs,
    default_dt_integrator,
    evolve_exact,
)
from .noise import (
    CorrelationKernel,
    DirectNoise,
    JumpChannelSet,
    NoiseSpec,
    build_channels,
    exponential_kernel,
    integrate_kernel,
    max_rate,
    rescale_to_unit_max_rate,
)
from .operators import (
    _PSD_FLOOR,
    StateBlock,
    check_state_vector,
    is_boolean,
    is_integer,
    is_number,
    is_positive,
    meets_psd_floor,
    pure_state_fidelity,
    pure_state_projector,
    trace_distance,
)
from .qecc import (
    _batch_syndrome_recover,
    _gram_deviation,
    correction_channel,
    encode,
    five_qubit_code,
)
from .trajectory import (
    SUM_P_GATE,
    BatchStepper,
    apply_first_order_channel,
    build_first_order_channel,
    ensemble_density,
    jump_rate_operator,
    sample_ensemble,
    step_count,
    total_jump_probability,
)

logger = logging.getLogger(__name__)

ENGINES = ("density", "trajectory")

# Both first-order convergence errors at or under this are roundoff: the
# reference state does not evolve.  The smallest on a packaged config is 2e-4.
_STATIONARY_ERROR = 1e-12


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to reproduce a run.

    `noise` is either a CorrelationKernel (integrated on demand) or an
    explicit NoiseSpec; `normalize_rates` rescales it so the largest jump
    rate is 1, which sets the time unit for t_total and the delta_t values.
    """

    noise: object
    code: str = "five_qubit"
    logical_state: tuple = (1.0 + 0.0j, 0.0j)
    t_total: float = 0.5
    n_values: tuple = (5, 10, 20, 40, 80)
    delta_t_values: tuple = (0.002, 0.003, 0.004, 0.006, 0.008, 0.012, 0.016, 0.02)
    trajectories: int = 2000
    base_seed: int = 12345
    engine: str = "density"
    normalize_rates: bool = True
    # Unraveling intervals per correction cycle for the trajectory engine.
    # Double jumps inside one interval are unresolvable, and those events
    # dominate the corrected infidelity, so the relative bias is about
    # 1/trajectory_substeps; 16 keeps it well under the Monte Carlo error.
    trajectory_substeps: int = 16

    def __post_init__(self):
        if not isinstance(self.noise, (CorrelationKernel, NoiseSpec, DirectNoise)):
            raise ConfigError(
                "noise must be a CorrelationKernel, NoiseSpec or DirectNoise"
            )
        if not is_boolean(self.normalize_rates):
            raise ConfigError(f"normalize_rates must be a boolean, got {self.normalize_rates!r}")
        if self.code != "five_qubit":
            raise ConfigError(f"unsupported code {self.code!r}; only 'five_qubit'")
        if self.engine not in ENGINES:
            raise ConfigError(f"engine must be one of {ENGINES}, got {self.engine!r}")
        state = self.logical_state
        if not (
            isinstance(state, (tuple, list)) and len(state) == 2 and all(map(is_number, state))
        ):
            raise ConfigError(f"logical_state must be two numbers, got {state!r}")
        try:
            check_state_vector(state, 2)
        except DomainError as err:
            raise ConfigError(
                f"logical_state amplitudes must be finite with unit norm, got {state!r}: {err}"
            ) from None
        alpha, beta = state
        if not is_positive(self.t_total):
            raise ConfigError(f"t_total must be a positive finite number, got {self.t_total!r}")
        dts = self.delta_t_values
        if not isinstance(dts, (tuple, list)) or not dts or not all(map(is_positive, dts)):
            raise ConfigError(f"delta_t_values must be positive finite numbers, got {dts!r}")
        if not isinstance(self.n_values, (tuple, list)) or not self.n_values:
            raise ConfigError(f"n_values must be positive integers, got {self.n_values!r}")
        # The integer fields, stored as Python ints as t_total is stored as a float.
        for name, values, least, rule in (
            ("n_values", self.n_values, 1, "positive integers"),
            ("trajectories", (self.trajectories,), 1, "a positive integer"),
            ("trajectory_substeps", (self.trajectory_substeps,), 1, "a positive integer"),
            ("base_seed", (self.base_seed,), 0, "a nonnegative integer"),
        ):
            if not all(is_integer(n) and n >= least for n in values):
                raise ConfigError(f"{name} must be {rule}, got {getattr(self, name)!r}")
            ints = tuple(map(int, values))
            object.__setattr__(self, name, ints if name == "n_values" else ints[0])
        object.__setattr__(self, "logical_state", (complex(alpha), complex(beta)))
        object.__setattr__(self, "t_total", float(self.t_total))
        object.__setattr__(self, "delta_t_values", tuple(float(x) for x in self.delta_t_values))


@dataclass(frozen=True)
class FitResult:
    slope: float
    intercept: float
    stderr: float
    points: int


# Fewest positive points a log-log fit is made from.
_MIN_FIT_POINTS = 5


def fit_loglog(x, y):
    """OLS fit of log(y) against log(x), skipping nonpositive values.

    Returns a FitResult, or None when fewer than _MIN_FIT_POINTS survive
    or when the surviving x are all one value, which leaves no slope to fit.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    mask = (x > 0) & (y > 0)
    if mask.sum() < _MIN_FIT_POINTS:
        return None
    lx, ly = np.log(x[mask]), np.log(y[mask])
    if (lx == lx[0]).all():
        return None
    n = len(lx)
    dx = lx - lx.mean()
    sxx = float(dx @ dx)
    slope = float(dx @ (ly - ly.mean()) / sxx)
    intercept = float(ly.mean() - slope * lx.mean())
    resid = ly - (slope * lx + intercept)
    stderr = float(np.sqrt((resid @ resid) / (n - 2) / sxx))  # n >= _MIN_FIT_POINTS > 2
    return FitResult(slope=slope, intercept=intercept, stderr=stderr, points=n)


@dataclass(frozen=True)
class FidelityResult:
    """Sweep output: one fidelity per sweep value plus the log-log fit."""

    sweep: str
    sweep_values: tuple
    delta_ts: tuple
    fidelities: tuple
    infidelities: tuple
    fit: object
    engine: str
    trajectories: int
    base_seed: int
    corrected: bool
    wall_time_s: float

    def __post_init__(self):
        for f in self.fidelities:
            if not -1e-12 <= f <= 1.0 + 1e-9:
                raise SimulationError(f"fidelity {f!r} outside [0, 1]")


def resolve_spec(cfg: ExperimentConfig) -> NoiseSpec:
    """Integrate or validate the noise input and apply the rate normalization."""
    if isinstance(cfg.noise, CorrelationKernel):
        spec = integrate_kernel(cfg.noise)
    elif isinstance(cfg.noise, DirectNoise):
        spec = cfg.noise.resolve()
    else:
        spec = cfg.noise
    if cfg.normalize_rates:
        spec = rescale_to_unit_max_rate(spec)
    return spec


def _product_state(alpha: complex, beta: complex, num_qubits: int) -> np.ndarray:
    single = np.array([alpha, beta], dtype=complex)
    psi = np.ones(1, dtype=complex)
    for _ in range(num_qubits):
        psi = np.kron(psi, single)
    return psi


def _code_and_state(cfg: ExperimentConfig, spec: NoiseSpec):
    """The code and the codeword of cfg.logical_state: the one codeword rule.

    The register fits the code when the noise acts on as many qubits as the
    code has; anything else is a ConfigError.
    """
    code = five_qubit_code()
    if spec.num_qubits != code.n_physical:
        raise ConfigError(
            f"{cfg.code} needs {code.n_physical} qubits, noise has {spec.num_qubits}"
        )
    return code, encode(*cfg.logical_state, code)


def _density_qec_run(
    rho0: np.ndarray,
    ch: JumpChannelSet,
    code,
    delta_t: float,
    n_cycles: int,
    dt_integrator: float,
    correction: bool,
) -> np.ndarray:
    rho = rho0
    cfg = EvolutionConfig(dt_integrator=dt_integrator, t_final=delta_t)
    for _ in range(n_cycles):
        rho = evolve_exact(rho, ch, cfg)
        if correction:
            rho = correction_channel(rho, code)
    return rho


# The variables a BLAS takes its thread count from: OpenBLAS's, in its
# order of precedence, then MKL's.  OMP_NUM_THREADS serves both.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS")


def _point_threads() -> int:
    """Threads a density sweep runs its points on: the cores its BLAS leaves free.

    Each matrix product runs on as many BLAS threads as the first of
    _BLAS_THREAD_VARS that holds a positive integer says, or on every usable
    core when none does.  Points on more threads than the usable cores over
    that count make a multithreaded BLAS's calls wait for each other: with
    two BLAS threads on two cores, `corrqec scaling` on the packaged
    exponential config took 2.3-2.6 s on two points at once, against
    2.0-2.2 s one after the other.
    """
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cores = os.cpu_count() or 1
    for name in _BLAS_THREAD_VARS:
        value = os.environ.get(name, "")
        if value.isdigit() and int(value) > 0:
            return max(1, cores // int(value))
    return 1


def _density_fidelities(psi0, ch, code, delta_ts, n_cycles, correction, where) -> list:
    """Fidelity of every density sweep point's final state, points run concurrently.

    The points are independent: each integrates from rho0.  They run on a
    pool of min(points, _point_threads()) threads, and BLAS releases the GIL,
    so the points' matrix products overlap.  With one thread no pool starts
    and the calling thread runs every point in order.  The channel set's
    cached stacks and the skip for its shape are built lazily and not under
    a lock, so they are built here, before any point runs; each evolve_exact
    call then owns its block row.  Results are read in sweep order, so the
    lowest-index failure is raised, as the sequential loop would raise it:
    the points not yet started are cancelled, and the running ones finish
    first.  A point's SimulationError is raised again as the same type,
    prefixed by where(i).
    """
    dt_int = default_dt_integrator(ch)
    rho0 = pure_state_projector(psi0)
    # The lazily built state every point reads, built before any point runs.
    _rhs(ch)
    points = len(delta_ts)

    def point(i):
        try:
            rho = _density_qec_run(rho0, ch, code, delta_ts[i], n_cycles[i], dt_int, correction)
        except SimulationError as err:
            raise type(err)(f"{where(i)}: {err}") from err
        return pure_state_fidelity(psi0, rho)

    threads = min(points, _point_threads())
    if threads <= 1:
        return list(map(point, range(points)))
    with ThreadPoolExecutor(threads) as pool:
        return list(pool.map(point, range(points)))


def _trajectory_fidelities(cfg, ch, code, psi0, correction, delta_ts, n_cycles, where) -> list:
    """Ensemble fidelity of every trajectory sweep point's final states.

    All M trajectories are one block, and the points step in lockstep on
    it: the M streams are seeded once, each cycle draws every row's next
    per_cycle uniforms into one buffer, and every live point with cycles
    left steps that cycle, its substeps then its recovery, before the next
    point does.  A row's k-th draw does not depend on how many are drawn,
    so point i reads the uniforms of its first n_i cycles, exactly those it
    would draw alone.  A point's StateBlock lives from its first cycle to
    its last, when the point's fidelity is taken from it.

    The lowest-index point that fails raises its SimulationError again as
    the same type, prefixed by where(i).  A failed point and the points
    after it are dropped, as they cannot change which failure is raised.
    """
    substeps = cfg.trajectory_substeps
    # The uniforms a cycle reads: one per jump interval, then one per generator.
    per_cycle = substeps + (len(code.generators) if correction else 0)
    steppers = [BatchStepper(ch, dt / substeps) for dt in delta_ts]
    m = cfg.trajectories
    # Through the module, so that a wrapper of it sees the seeding.
    draw = trajectory._pcg64_streams(cfg.base_seed, 0, m)
    u = np.empty((per_cycle, m))
    # The points with cycles left, in sweep order, and their blocks.  A
    # point's block is made at its first step, so that in a cycle sweep one
    # point's block is alive at a time.
    psi = dict.fromkeys(range(len(delta_ts)))
    fidelities, failed, failure = [None] * len(delta_ts), None, None
    c = 0
    while psi:
        for row in u:
            draw(row)
        for i in list(psi):
            try:
                for k in range(substeps):
                    psi[i], _, _ = steppers[i].step(psi[i] or StateBlock.shared(psi0, m), u[k])
                if correction:
                    psi[i] = _batch_syndrome_recover(psi[i], u[substeps:].T, code)
            except SimulationError as err:
                failed, failure = i, err
                psi = {j: block for j, block in psi.items() if j < i}
                break
            if c + 1 == n_cycles[i]:
                overlaps = psi.pop(i).rows() @ psi0.conj()
                fidelities[i] = float(np.mean(np.abs(overlaps) ** 2))
        c += 1
    if failure is not None:
        raise type(failure)(f"{where(failed)}: {failure}") from failure
    return fidelities


def _run_sweep(
    cfg: ExperimentConfig, correction: bool, sweep: str, sweep_values, delta_ts, n_cycles
) -> FidelityResult:
    """Fidelity after n_cycles evolve-and-correct intervals of delta_t, per point.

    A density sweep runs its points concurrently on the cores its BLAS
    leaves free (_density_fidelities); each point's bytes are those of a
    lone run.  A trajectory sweep runs on the calling thread: it seeds the
    streams of all its trajectories once and steps its points in lockstep
    on one block, cycle by cycle, so each point reads a prefix of every
    row's stream and the randomness contract is unchanged
    (_trajectory_fidelities).  Either engine raises the SimulationError of
    the earliest failing point in sweep order as the same type, named by
    where(i): "delta_t=..." in a cycle sweep, "N=... (delta_t=...)" in a
    scaling sweep.  correction passes the boolean rule (is_boolean);
    anything else is a DomainError.
    """
    if not is_boolean(correction):
        raise DomainError(f"correction must be a boolean, got {correction!r}")
    t0 = time.perf_counter()
    spec = resolve_spec(cfg)
    ch = build_channels(spec)
    code, psi0 = _code_and_state(cfg, spec)

    def where(i):
        dt = delta_ts[i]
        return f"delta_t={dt!r}" if sweep == "delta_t" else f"N={n_cycles[i]} (delta_t={dt!r})"

    if cfg.engine == "density":
        fidelities = _density_fidelities(psi0, ch, code, delta_ts, n_cycles, correction, where)
    else:
        fidelities = _trajectory_fidelities(
            cfg, ch, code, psi0, correction, delta_ts, n_cycles, where
        )

    infidelities = [1.0 - f for f in fidelities]
    return FidelityResult(
        sweep=sweep,
        sweep_values=tuple(sweep_values),
        delta_ts=tuple(delta_ts),
        fidelities=tuple(fidelities),
        infidelities=tuple(infidelities),
        fit=fit_loglog(sweep_values, infidelities),
        engine=cfg.engine,
        trajectories=cfg.trajectories if cfg.engine == "trajectory" else 0,
        base_seed=cfg.base_seed,
        corrected=correction,
        wall_time_s=time.perf_counter() - t0,
    )


def run_cycle_fidelity(cfg: ExperimentConfig, correction: bool = True) -> FidelityResult:
    """Fidelity after a single evolve-and-correct interval, swept over delta_t."""
    dts = cfg.delta_t_values
    return _run_sweep(cfg, correction, "delta_t", dts, dts, (1,) * len(dts))


def run_repetition_scaling(
    cfg: ExperimentConfig, correction: bool = True
) -> FidelityResult:
    """Final fidelity after splitting t_total into N correction cycles, over N."""
    dts = [cfg.t_total / n for n in cfg.n_values]
    return _run_sweep(cfg, correction, "N", cfg.n_values, dts, cfg.n_values)


def run_trajectory_logs(cfg: ExperimentConfig):
    """Raw unraveling diagnostics: jump logs over t_total at delta_t_values[0].

    The initial state is the per-qubit product of the logical amplitudes,
    which works at any qubit count; no correction is applied.
    """
    spec = resolve_spec(cfg)
    ch = build_channels(spec)
    delta_t = cfg.delta_t_values[0]
    try:
        step_count(cfg.t_total, delta_t)
    except DomainError as err:
        raise ConfigError(
            f"t_total={cfg.t_total!r} must be a multiple of delta_t_values[0]="
            f"{delta_t!r} for trajectory logs"
        ) from err
    alpha, beta = cfg.logical_state
    psi0 = _product_state(alpha, beta, spec.num_qubits)
    _, counts, logs = sample_ensemble(
        psi0,
        ch,
        cfg.t_total,
        delta_t,
        cfg.base_seed,
        cfg.trajectories,
        collect_logs=True,
    )
    logger.info(
        "sampled %d trajectories, mean jump count %.3f",
        cfg.trajectories,
        float(counts.mean()),
    )
    return logs


# ---------------------------------------------------------------------------
# CSV output.  Floats are written with repr() so identical runs are
# bit-identical and values round-trip exactly.


def _fmt(x) -> str:
    return repr(float(x)) if isinstance(x, float) else str(x)


def _render_sweep_csv(header: str, columns, result: FidelityResult) -> str:
    lines = [header]
    for row in zip(*columns):
        cells = (*row, result.engine, result.trajectories, result.base_seed)
        lines.append(",".join(_fmt(x) for x in cells))
    fit = result.fit
    if fit is None:
        lines.append("# fit: insufficient positive points")
    else:
        lines.append(
            f"# fit: slope={_fmt(fit.slope)} stderr={_fmt(fit.stderr)} "
            f"points={fit.points}"
        )
    return "\n".join(lines) + "\n"


def render_cycle_csv(result: FidelityResult) -> str:
    return _render_sweep_csv(
        "delta_t,fidelity,infidelity,engine,M,seed",
        (result.delta_ts, result.fidelities, result.infidelities),
        result,
    )


def render_scaling_csv(result: FidelityResult) -> str:
    return _render_sweep_csv(
        "N,delta_t,final_fidelity,final_infidelity,engine,M,seed",
        (result.sweep_values, result.delta_ts, result.fidelities, result.infidelities),
        result,
    )


def render_jump_log_csv(logs) -> str:
    lines = ["trajectory_index,t,channel"]
    for index, t, channel in logs:
        lines.append(f"{index},{_fmt(t)},{channel}")
    return "\n".join(lines) + "\n"


def write_text(path, text: str) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# Validation suite.


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    measured: str
    bound: str
    detail: str = ""


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def render(self) -> str:
        lines = []
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            line = f"{status} {c.name}: measured={c.measured} bound={c.bound}"
            if c.detail:
                line += f" ({c.detail})"
            lines.append(line)
        n_pass = sum(c.passed for c in self.checks)
        lines.append(f"{n_pass}/{len(self.checks)} checks passed")
        return "\n".join(lines) + "\n"


def _check(name, bound, fn) -> CheckResult:
    try:
        measured, passed, detail = fn()
        return CheckResult(name, bool(passed), measured, bound, detail)
    except Exception as err:  # report, never crash the suite
        return CheckResult(name, False, "error", bound, f"{type(err).__name__}: {err}")


def run_validation_suite(cfg: ExperimentConfig) -> ValidationReport:
    """Cross-module invariant checks against the configured experiment.

    Bundles the noise PSD gate, the first-order jump-probability gate, the
    code orthogonality and recovery sweeps, a reduced unraveling-consistency
    check, and the first-order channel convergence order.  The spec, its
    channels and the initial state are built on first use and shared; a spec
    that fails to resolve is the error of every check that needs it.
    """
    checks = []

    @functools.cache
    def resolved():
        return resolve_spec(cfg)

    @functools.cache
    def channels_and_state():
        spec = resolved()
        try:
            psi = _code_and_state(cfg, spec)[1]
        except ConfigError:  # the register does not fit the code
            psi = _product_state(*cfg.logical_state, spec.num_qubits)
        return build_channels(spec), psi

    def psd_gate():
        try:
            w = np.linalg.eigvalsh(resolved().A)
        except DomainError as err:
            # Resolving stopped at the PSD floor: report the input's eigenvalues.
            w = getattr(err, "eigenvalues", None)
            if w is None:
                raise
        return f"{float(w.min()):.3e}", meets_psd_floor(w), ""

    checks.append(_check("noise_psd_gate", f">={_PSD_FLOOR:g}", psd_gate))

    def probability_gate():
        ch, psi = channels_and_state()
        dt_max = max(max(cfg.delta_t_values), cfg.t_total / min(cfg.n_values))
        # Largest unraveling interval any configured run would use: correction
        # cycles are split into trajectory_substeps, raw trajectory logs step
        # at delta_t_values[0] directly.
        dt_step = max(dt_max / cfg.trajectory_substeps, cfg.delta_t_values[0])
        total = float(total_jump_probability(psi, jump_rate_operator(ch, dt_step)))
        # The gate binds only the trajectory unraveling; the density engine
        # integrates the master equation and has no per-step jump budget.
        passed = total <= SUM_P_GATE or cfg.engine == "density"
        detail = f"delta_t={dt_step!r}"
        if total > SUM_P_GATE and cfg.engine == "density":
            detail += "; density engine, gate not binding"
        return f"{total:.4f}", passed, detail

    checks.append(_check("jump_probability_gate", f"<={SUM_P_GATE}", probability_gate))

    def gram():
        code = five_qubit_code()
        rng = np.random.default_rng(np.random.SeedSequence((cfg.base_seed, 0x6E3A)))
        states = [
            code.logical_zero,
            code.logical_one,
            (code.logical_zero + code.logical_one) / np.sqrt(2.0),
        ]
        for _ in range(10):
            v = rng.normal(size=4).view(complex)
            v /= np.linalg.norm(v)
            states.append(encode(v[0], v[1], code))
        worst = max(_gram_deviation(code, psi) for psi in states)
        return f"{worst:.3e}", worst <= 1e-10, "3 fixed + 10 random states"

    checks.append(_check("gram_orthogonality", "<=1e-10", gram))

    def recovery():
        code = five_qubit_code()
        rng = np.random.default_rng(np.random.SeedSequence((cfg.base_seed, 0x6E3B)))
        errors = code.error_basis[1:]
        states, uniforms = [], []
        for _ in range(10):
            v = rng.normal(size=4).view(complex)
            v /= np.linalg.norm(v)
            states.append(encode(v[0], v[1], code))
            uniforms.append(rng.random((len(errors), len(code.generators))))
        images = np.concatenate([errors @ psi for psi in states])
        recovered = _batch_syndrome_recover(images, np.concatenate(uniforms), code)
        psi = np.repeat(states, len(errors), axis=0)
        overlaps = np.einsum("bi,bi->b", psi.conj(), recovered.rows())
        worst = max(0.0, float(np.max(1.0 - np.abs(overlaps) ** 2)))
        return f"{worst:.3e}", worst <= 1e-9, "15 errors x 10 states"

    checks.append(_check("recovery_exhaustive", "<=1e-9", recovery))

    def unraveling():
        kernel = exponential_kernel(2, amplitude=1.0, correlation_length=1.0)
        spec = rescale_to_unit_max_rate(integrate_kernel(kernel))
        ch = build_channels(spec)
        alpha, beta = cfg.logical_state
        psi0 = _product_state(alpha, beta, 2)
        t, dt, m_traj = 0.5, 0.005, 2000
        states, _ = sample_ensemble(psi0, ch, t, dt, cfg.base_seed, m_traj)
        rho_mc = ensemble_density(states)
        rho_exact = evolve_exact(
            pure_state_projector(psi0),
            ch,
            EvolutionConfig(default_dt_integrator(ch), t),
        )
        td = trace_distance(rho_mc, rho_exact)
        return f"{td:.4f}", td <= 0.03, f"L=2 exponential, M={m_traj}"

    checks.append(_check("unraveling_consistency", "<=0.03", unraveling))

    def channel_order():
        ch, psi = channels_and_state()
        rho0 = pure_state_projector(psi)
        dt = 0.02 / max(max_rate(resolved()), 1e-12)
        # At most half the first-order gate of jump probability from psi, so
        # build_first_order_channel accepts both steps.
        rate = float(total_jump_probability(psi, jump_rate_operator(ch, 1.0)))
        if rate > 0:
            dt = min(dt, SUM_P_GATE / 2 / rate)
        dt_int = default_dt_integrator(ch)
        errs = []
        for d in (dt, dt / 2):
            channel = build_first_order_channel(psi, ch, d)
            approx = apply_first_order_channel(rho0, channel)
            exact = evolve_exact(rho0, ch, EvolutionConfig(dt_int, d))
            errs.append(float(np.linalg.norm(approx - exact)))
        ratio = errs[0] / errs[1] if errs[1] > 0 else float("inf")
        detail = f"errors {errs[0]:.2e}/{errs[1]:.2e}"
        # A state the noise leaves alone has no error to converge: both
        # errors are roundoff, and their ratio says nothing.
        if max(errs) <= _STATIONARY_ERROR:
            detail = f"stationary state, channel and integrator agree to roundoff: {detail}"
            return f"{ratio:.3f}", True, detail
        return f"{ratio:.3f}", 3.5 <= ratio <= 4.5, detail

    checks.append(_check("first_order_channel_convergence", "4 +/- 0.5", channel_order))

    return ValidationReport(checks=tuple(checks))
