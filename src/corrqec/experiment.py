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
CSV output.  A trajectory sweep draws each block's uniforms once, and each
point reads a prefix of every row's stream, so the randomness contract is
unchanged.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError, SimulationError, StepSizeError
from .lindblad import (
    EvolutionConfig,
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
from .operators import pure_state_fidelity, pure_state_projector, trace_distance
from .qecc import (
    _batch_syndrome_recover,
    _gram_deviation,
    correction_channel,
    encode,
    five_qubit_code,
    measure_syndrome,
    recover,
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
    uniform_blocks,
)

logger = logging.getLogger(__name__)

ENGINES = ("density", "trajectory")


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
        if self.code != "five_qubit":
            raise ConfigError(f"unsupported code {self.code!r}; only 'five_qubit'")
        if self.engine not in ENGINES:
            raise ConfigError(f"engine must be one of {ENGINES}, got {self.engine!r}")
        alpha, beta = self.logical_state
        if abs(abs(alpha) ** 2 + abs(beta) ** 2 - 1.0) > 1e-10:
            raise ConfigError("logical_state amplitudes must have unit norm")
        if not self.t_total > 0:
            raise ConfigError(f"t_total must be positive, got {self.t_total}")
        if not self.n_values or any(
            (not float(n).is_integer()) or n < 1 for n in self.n_values
        ):
            raise ConfigError("n_values must be positive integers")
        if not self.delta_t_values or any(dt <= 0 for dt in self.delta_t_values):
            raise ConfigError("delta_t_values must be positive")
        for name, least in (("trajectories", 1), ("trajectory_substeps", 1), ("base_seed", 0)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int) or value < least:
                sign = "positive" if least else "nonnegative"
                raise ConfigError(f"{name} must be a {sign} integer, got {value!r}")
        object.__setattr__(self, "logical_state", (complex(alpha), complex(beta)))
        object.__setattr__(self, "n_values", tuple(int(n) for n in self.n_values))
        object.__setattr__(self, "delta_t_values", tuple(float(x) for x in self.delta_t_values))


@dataclass(frozen=True)
class FitResult:
    slope: float
    intercept: float
    stderr: float
    points: int


def fit_loglog(x, y, min_points: int = 5):
    """OLS fit of log(y) against log(x), skipping nonpositive values.

    Returns a FitResult, or None when fewer than min_points survive.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    mask = (x > 0) & (y > 0)
    if mask.sum() < min_points:
        return None
    lx, ly = np.log(x[mask]), np.log(y[mask])
    n = len(lx)
    dx = lx - lx.mean()
    sxx = float(dx @ dx)
    slope = float(dx @ (ly - ly.mean()) / sxx)
    intercept = float(ly.mean() - slope * lx.mean())
    resid = ly - (slope * lx + intercept)
    stderr = (
        float(np.sqrt((resid @ resid) / (n - 2) / sxx)) if n > 2 else float("nan")
    )
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


def _qec_block(psi0, ch, code, uniforms, delta_t, n_cycles, substeps, correction):
    """Final states of a block of trajectories after n_cycles correction cycles.

    Row b of uniforms is trajectory b's stream, of which only the first
    n_cycles cycles are read.  Each cycle of length delta_t is unraveled
    with `substeps` jump intervals, one uniform each, followed by one
    uniform per stabilizer generator when correcting.
    """
    stepper = BatchStepper(ch, delta_t / substeps)
    per_cycle = substeps + (len(code.generators) if correction else 0)
    rows = uniforms.shape[0]
    cycles = uniforms[:, : n_cycles * per_cycle].reshape(rows, n_cycles, per_cycle)
    psi = np.tile(psi0, (rows, 1))
    for c in range(n_cycles):
        for k in range(substeps):
            psi, _, _ = stepper.step(psi, cycles[:, c, k])
        if correction:
            psi = _batch_syndrome_recover(psi, cycles[:, c, substeps:], code)
    return psi


def _trajectory_overlaps(cfg, ch, code, psi0, correction, delta_ts, n_cycles):
    """Overlaps <psi0|psi_b> of every sweep point's final states, and the earliest failure.

    Blocks of trajectories run outside and sweep points inside: a block's
    uniforms are drawn once, as many cycles as the longest point runs, and
    point i steps the view of each row's first n_i cycles.  A row's first k
    draws do not depend on how many are drawn, so each point reads exactly
    the uniforms it would draw alone.

    Returns (overlaps, failure): overlaps has shape (points, M), and failure
    is None or (i, StepSizeError) for the lowest-index point that fails in
    any block, in which case overlaps is incomplete.  A failed point and the
    points after it are skipped in later blocks, as they cannot change which
    failure is reported; once the first point fails no further block is drawn.
    """
    substeps = cfg.trajectory_substeps
    per_cycle = substeps + (len(code.generators) if correction else 0)
    overlaps = np.empty((len(delta_ts), cfg.trajectories), dtype=complex)
    live, failure = len(delta_ts), None
    blocks = uniform_blocks(cfg.base_seed, cfg.trajectories, max(n_cycles) * per_cycle)
    for start, table in blocks:
        rows = slice(start, start + table.shape[0])
        for i in range(live):
            dt, n = delta_ts[i], n_cycles[i]
            try:
                psi = _qec_block(psi0, ch, code, table, dt, n, substeps, correction)
            except StepSizeError as err:
                live, failure = i, (i, err)
                break
            overlaps[i, rows] = psi @ psi0.conj()
            del psi  # not held while the next point steps its own block
        del table  # free this block's draws before the next block's are made
        if not live:
            break
    return overlaps, failure


def _run_sweep(
    cfg: ExperimentConfig, correction: bool, sweep: str, sweep_values, delta_ts, n_cycles
) -> FidelityResult:
    """Fidelity after n_cycles evolve-and-correct intervals of delta_t, per point.

    A trajectory sweep draws each block's uniforms once for all points, and
    each point reads a prefix of every row's stream, so the randomness
    contract is unchanged.  A StepSizeError names the earliest failing
    point in sweep order.
    """
    t0 = time.perf_counter()
    spec = resolve_spec(cfg)
    ch = build_channels(spec)
    code, psi0 = _code_and_state(cfg, spec)

    if cfg.engine == "density":
        dt_int = default_dt_integrator(ch)
        rho0 = pure_state_projector(psi0)
        fidelities = [
            pure_state_fidelity(psi0, _density_qec_run(rho0, ch, code, dt, n, dt_int, correction))
            for dt, n in zip(delta_ts, n_cycles)
        ]
    else:
        overlaps, failure = _trajectory_overlaps(
            cfg, ch, code, psi0, correction, delta_ts, n_cycles
        )
        if failure is not None:
            i, err = failure
            dt = delta_ts[i]
            where = f"delta_t={dt!r}" if sweep == "delta_t" else f"N={n_cycles[i]} (delta_t={dt!r})"
            raise StepSizeError(f"{where}: {err}") from err
        fidelities = [float(np.mean(np.abs(o) ** 2)) for o in overlaps]

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
    check, and the first-order channel convergence order.
    """
    checks = []

    def initial_state(spec):
        # The codeword when the register fits the code, else the product state.
        code = five_qubit_code()
        alpha, beta = cfg.logical_state
        if spec.num_qubits == code.n_physical:
            return encode(alpha, beta, code)
        return _product_state(alpha, beta, spec.num_qubits)

    def psd_gate():
        spec = resolve_spec(cfg)
        w_min = float(np.linalg.eigvalsh(spec.A).min())
        return f"{w_min:.3e}", w_min >= -1e-10, ""

    checks.append(_check("noise_psd_gate", ">=-1e-10", psd_gate))

    def probability_gate():
        spec = resolve_spec(cfg)
        ch = build_channels(spec)
        psi = initial_state(spec)
        dt_max = max(cfg.delta_t_values)
        if cfg.n_values:
            dt_max = max(dt_max, cfg.t_total / min(cfg.n_values))
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
        worst = 0.0
        for _ in range(10):
            v = rng.normal(size=4).view(complex)
            v /= np.linalg.norm(v)
            psi = encode(v[0], v[1], code)
            for r in code.error_basis[1:]:
                outcome = measure_syndrome(r @ psi, code, rng)
                recovered = recover(outcome, code)
                worst = max(worst, 1.0 - abs(psi.conj() @ recovered) ** 2)
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
        spec = resolve_spec(cfg)
        ch = build_channels(spec)
        psi = initial_state(spec)
        rho0 = pure_state_projector(psi)
        xi_max = max(max_rate(spec), 1e-12)
        dt = 0.02 / xi_max
        dt_int = default_dt_integrator(ch)
        errs = []
        for d in (dt, dt / 2):
            channel = build_first_order_channel(psi, ch, d)
            approx = apply_first_order_channel(rho0, channel)
            exact = evolve_exact(rho0, ch, EvolutionConfig(dt_int, d))
            errs.append(float(np.linalg.norm(approx - exact)))
        ratio = errs[0] / errs[1] if errs[1] > 0 else float("inf")
        return f"{ratio:.3f}", 3.5 <= ratio <= 4.5, f"errors {errs[0]:.2e}/{errs[1]:.2e}"

    checks.append(_check("first_order_channel_convergence", "4 +/- 0.5", channel_order))

    return ValidationReport(checks=tuple(checks))
