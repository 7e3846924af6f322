"""Stochastic unraveling of the master equation and the first-order error channel.

A trajectory alternates non-Hermitian no-jump evolution with random quantum
jumps: over an interval delta_t the jump into channel n fires with
probability p_n = xi_n delta_t <psi|s_n^dag s_n|psi>, otherwise the state is
propagated by K = 1 - i delta_t H_eff (or its exact exponential) and
renormalized.  Averaging |psi><psi| over many trajectories recovers the
density-matrix evolution.

Whether a jump fires at all is decided from the total <psi|Gamma|psi>, with
Gamma = sum_n xi_n delta_t s_n^dag s_n built once per interval length; the
per-channel probabilities and the jump images s_n psi are built only for the
states that jump.

The same interval, frozen against a reference state, defines the first-order
error channel {Q_n, p_n}: Q_0 = exp(-i H_eff delta_t)/sqrt(p_0) is the
effective-evolution error and Q_n = sqrt(xi_n delta_t / p_n) s_n the jump
errors, complete to O(delta_t) with probabilities summing to one.

Randomness contract: trajectory b of a run seeded with base_seed draws from
numpy's default generator seeded with SeedSequence((base_seed, b)), one
uniform per interval; the jump decision and the channel choice share that
uniform.  This makes every trajectory reproducible in isolation; the
sequential sampler is the batched one run on a one-row block, so both take
the same decisions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, SimulationError, StepSizeError
from .noise import JumpChannelSet
from .operators import check_state_vector, matrix_exponential

# First-order validity gate on the total jump probability per interval.
SUM_P_GATE = 0.1

_BLOCK = 8192  # trajectories per vectorized block; bounds memory, not results


@dataclass(frozen=True)
class FirstOrderChannel:
    """Complete first-order error set for one interval against a reference state.

    operators[0] is the effective-evolution error Q_0; operators[n] for
    n = 1..3L follows the flat channel index.  Channels with zero jump
    probability carry a zero operator and are excluded from sampling.
    """

    delta_t: float
    operators: np.ndarray
    probabilities: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probabilities, dtype=float)
        if p.min(initial=0.0) < 0.0:
            raise DomainError(f"negative channel probability {p.min():.3e}")
        if abs(p.sum() - 1.0) > 1e-9 * len(p):
            raise DomainError(f"channel probabilities sum to {p.sum()!r}, not 1")
        object.__setattr__(self, "probabilities", p)
        object.__setattr__(self, "operators", np.asarray(self.operators, dtype=complex))


def apply_first_order_channel(rho0: np.ndarray, channel: FirstOrderChannel) -> np.ndarray:
    """Apply sum_n p_n Q_n rho Q_n^dag and renormalize to unit trace.

    The output matches lindblad.evolve_exact over the same interval up to
    O(delta_t^2).
    """
    rho0 = np.asarray(rho0, dtype=complex)
    out = np.zeros_like(rho0)
    for p, q in zip(channel.probabilities, channel.operators):
        if p <= 0.0:
            continue
        out += p * (q @ rho0 @ q.conj().T)
    tr = float(out.trace().real)
    if tr <= 0.0:
        raise DomainError("first-order channel output has nonpositive trace")
    return out / tr


@dataclass
class TrajectoryState:
    """One realization: final state, elapsed time, seed key, jump history.

    jump_log holds (t, n) pairs, t being the start of the interval in which
    channel n fired.
    """

    psi: np.ndarray
    t: float
    seed_key: tuple[int, int]
    jump_log: list = field(default_factory=list)


def trajectory_rng(base_seed: int, trajectory_index: int) -> np.random.Generator:
    """The package-wide RNG stream for one trajectory."""
    return np.random.default_rng(np.random.SeedSequence((base_seed, trajectory_index)))


def _step_count(t_total: float, delta_t: float) -> int:
    if not delta_t > 0:
        raise DomainError(f"delta_t must be positive, got {delta_t}")
    m = round(t_total / delta_t)
    if m < 0 or abs(m * delta_t - t_total) > 1e-9 * max(t_total, delta_t):
        raise DomainError(
            f"t_total={t_total!r} is not an integer multiple of delta_t={delta_t!r}"
        )
    return m


def _active_rates(ch: JumpChannelSet) -> np.ndarray:
    # Inert channels get exactly zero weight so they can never fire.
    return np.where(ch.inert, 0.0, ch.eigenvalues)


def _check_gate(total: float, delta_t: float) -> None:
    if total > SUM_P_GATE:
        raise StepSizeError(
            f"total jump probability {total:.4f} exceeds the first-order gate "
            f"{SUM_P_GATE}; reduce delta_t below {delta_t:.3g}"
        )


def _jump_images(psi: np.ndarray, jump_ops: np.ndarray, weights: np.ndarray):
    """Images s_n psi_b, shape (rows, channels, dim), and p_n = w_n ||s_n psi_b||^2."""
    rows, dim = psi.shape
    s_psi = (psi @ jump_ops.reshape(-1, dim).T).reshape(rows, -1, dim)
    v = s_psi.view(float)  # Re/Im interleaved: sum of squares = ||s_n psi||^2
    return s_psi, np.clip(weights * np.einsum("bnk,bnk->bn", v, v), 0.0, None)


def jump_rate_operator(ch: JumpChannelSet, delta_t: float) -> np.ndarray:
    """Gamma = sum_n xi_n delta_t s_n^dag s_n, inert channels weighted 0.

    Gamma is positive semidefinite and <psi|Gamma|psi> is the total jump
    probability of the interval (see total_jump_probability).
    """
    if delta_t < 0:
        raise DomainError(f"delta_t must be nonnegative, got {delta_t}")
    s = ch.jump_ops
    weighted = (_active_rates(ch) * delta_t)[:, None, None] * s
    gamma = weighted.reshape(-1, ch.dim).conj().T @ s.reshape(-1, ch.dim)
    return 0.5 * (gamma + gamma.conj().T)


def total_jump_probability(psi: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """<psi|Gamma|psi> for a state (dim,) or for every row of a block (M, dim)."""
    psi = np.ascontiguousarray(psi, dtype=complex)
    # Re<psi|v> as a real dot product over the interleaved Re/Im parts.
    return np.einsum("...k,...k->...", psi.view(float), (psi @ gamma.T).view(float))


def jump_probabilities(psi: np.ndarray, ch: JumpChannelSet, delta_t: float) -> np.ndarray:
    """p_n = xi_n delta_t ||s_n psi||^2 for every channel, in flat order.

    Raises StepSizeError when the total exceeds the first-order gate 0.1.
    """
    if delta_t < 0:
        raise DomainError(f"delta_t must be nonnegative, got {delta_t}")
    psi = np.asarray(psi, dtype=complex)
    if psi.shape != (ch.dim,):
        raise DomainError(f"state shape {psi.shape} does not match dimension {ch.dim}")
    _, p = _jump_images(psi[None], ch.jump_ops, _active_rates(ch) * delta_t)
    _check_gate(p.sum(), delta_t)
    return p[0]


def apply_jump(psi: np.ndarray, ch: JumpChannelSet, n: int) -> np.ndarray:
    """Collapse psi -> s_n psi / ||s_n psi|| after a jump in channel n."""
    v = ch.jump_ops[n] @ np.asarray(psi, dtype=complex)
    norm = np.linalg.norm(v)
    if norm <= 1e-12:
        raise SimulationError(
            f"jump channel {n} annihilated the state; a zero-probability channel "
            f"must never be sampled"
        )
    return v / norm


def _no_jump_propagator(ch: JumpChannelSet, delta_t: float, mode: str) -> np.ndarray:
    if mode == "first_order":
        return np.eye(ch.dim, dtype=complex) - 1j * delta_t * ch.H_eff
    if mode == "exact":
        return matrix_exponential(ch.H_eff, -1j * delta_t)
    raise DomainError(f"mode must be 'first_order' or 'exact', got {mode!r}")


def no_jump_step(
    psi: np.ndarray, ch: JumpChannelSet, delta_t: float, mode: str = "first_order"
) -> tuple[np.ndarray, float]:
    """Propagate without a jump; returns (normalized state, squared norm before)."""
    phi = _no_jump_propagator(ch, delta_t, mode) @ np.asarray(psi, dtype=complex)
    p0 = float(np.real(phi.conj() @ phi))
    if p0 <= 1e-12:
        raise StepSizeError(
            f"no-jump norm collapsed (p0={p0:.3e}); delta_t={delta_t:.3g} is too large"
        )
    return phi / np.sqrt(p0), p0


def sample_trajectory(
    psi0: np.ndarray,
    ch: JumpChannelSet,
    t_total: float,
    delta_t: float,
    base_seed: int,
    trajectory_index: int = 0,
    mode: str = "first_order",
) -> TrajectoryState:
    """Propagate one trajectory for t_total = m * delta_t intervals."""
    n_steps = _step_count(t_total, delta_t)
    log: list[tuple[int, float, int]] = []
    psi, _ = _propagate(
        BatchStepper(ch, delta_t, mode),
        check_state_vector(psi0),
        _uniform_table(base_seed, trajectory_index, 1, n_steps),
        delta_t,
        trajectory_index,
        log,
    )
    return TrajectoryState(
        psi=psi[0],
        t=n_steps * delta_t,
        seed_key=(base_seed, trajectory_index),
        jump_log=[(t, n) for _, t, n in log],
    )


class BatchStepper:
    """Vectorized single-interval update for a block of trajectory states.

    Precomputes Gamma = sum_n xi_n delta_t s_n^dag s_n and the no-jump
    propagator once.  `step` advances a (M, dim) block with one uniform per
    row: one product with Gamma gives every row's total jump probability
    <psi|Gamma|psi>, and only the rows that jump get per-channel
    probabilities and jump images.
    """

    def __init__(self, ch: JumpChannelSet, delta_t: float, mode: str = "first_order"):
        self.delta_t = delta_t
        self.gamma = jump_rate_operator(ch, delta_t)
        self.weights = _active_rates(ch) * delta_t
        self.jump_ops = ch.jump_ops
        self.prop = _no_jump_propagator(ch, delta_t, mode)

    def step(self, psi: np.ndarray, u: np.ndarray):
        """Advance the block one interval.

        Returns (psi_next, jumped, channel) where jumped is a boolean row
        mask and channel holds the flat channel index for jumped rows
        (unspecified elsewhere).
        """
        total = total_jump_probability(psi, self.gamma)
        _check_gate(total.max(initial=0.0), self.delta_t)
        jumped = u < total
        channel = np.zeros(psi.shape[0], dtype=np.intp)
        phi = psi @ self.prop.T
        rows = np.flatnonzero(jumped)
        if rows.size:
            # Inverse CDF over the jumped rows' channel probabilities.  A u in
            # the roundoff gap between the Gamma total and the summed p_n is
            # clamped to the last channel; a pick with zero probability (the
            # clamped one, or a leading one under u == 0.0) goes to the first
            # active channel.
            s_psi, p = _jump_images(psi[rows], self.jump_ops, self.weights)
            cum = np.cumsum(p, axis=1)
            pick = np.minimum((cum < u[rows, None]).sum(axis=1), p.shape[1] - 1)
            k = np.arange(rows.size)
            bad = p[k, pick] <= 0.0
            if np.any(bad):
                pick[bad] = np.argmax(p[bad] > 0.0, axis=1)
            channel[rows] = pick
            phi[rows] = s_psi[k, pick]
        norms = np.linalg.norm(phi, axis=1)
        if norms.min(initial=1.0) <= 1e-12:
            raise SimulationError("trajectory state norm collapsed during a step")
        phi /= norms[:, None]
        return phi, jumped, channel


def _propagate(
    stepper: BatchStepper,
    psi0: np.ndarray,
    uniforms: np.ndarray,
    delta_t: float,
    index0: int,
    logs: list | None,
) -> tuple[np.ndarray, np.ndarray]:
    """Step copies of psi0, one row per row of uniforms, one interval per column.

    Returns (states, jump_counts); when logs is a list, appends a
    (index0 + row, t, channel) triple per jump.
    """
    psi = np.tile(psi0, (uniforms.shape[0], 1))
    counts = np.zeros(uniforms.shape[0], dtype=np.int64)
    for step in range(uniforms.shape[1]):
        psi, jumped, channel = stepper.step(psi, uniforms[:, step])
        counts += jumped
        if logs is not None:
            for b in np.flatnonzero(jumped):
                logs.append((index0 + int(b), step * delta_t, int(channel[b])))
    return psi, counts


def _uniform_table(base_seed: int, index0: int, count: int, draws: int) -> np.ndarray:
    """Per-trajectory uniforms, row b = stream of trajectory index0 + b."""
    table = np.empty((count, draws))
    for b in range(count):
        table[b] = trajectory_rng(base_seed, index0 + b).random(draws)
    return table


def uniform_blocks(base_seed: int, num_trajectories: int, draws: int):
    """Yield (start, uniforms) over blocks of at most _BLOCK trajectories.

    Row b of uniforms holds the first `draws` uniforms of trajectory
    start + b's stream.
    """
    for start in range(0, num_trajectories, _BLOCK):
        count = min(_BLOCK, num_trajectories - start)
        yield start, _uniform_table(base_seed, start, count, draws)


def sample_ensemble(
    psi0: np.ndarray,
    ch: JumpChannelSet,
    t_total: float,
    delta_t: float,
    base_seed: int,
    num_trajectories: int,
    mode: str = "first_order",
    collect_logs: bool = False,
):
    """Propagate num_trajectories trajectories; vectorized over blocks.

    Returns (states, jump_counts) with states of shape (M, 2^L), or
    (states, jump_counts, logs) when collect_logs is set, logs being
    (trajectory_index, t, channel) triples sorted by trajectory then time.
    Jump decisions (times, channels, counts) are identical to running
    sample_trajectory per index; states agree to float roundoff, the batched
    matmul summing in a different order.
    """
    if num_trajectories < 1:
        raise DomainError(f"need at least one trajectory, got {num_trajectories}")
    n_steps = _step_count(t_total, delta_t)
    psi0 = check_state_vector(psi0)
    stepper = BatchStepper(ch, delta_t, mode)

    states = np.empty((num_trajectories, ch.dim), dtype=complex)
    jump_counts = np.zeros(num_trajectories, dtype=np.int64)
    logs = [] if collect_logs else None

    for start, uniforms in uniform_blocks(base_seed, num_trajectories, n_steps):
        rows = slice(start, start + uniforms.shape[0])
        states[rows], jump_counts[rows] = _propagate(
            stepper, psi0, uniforms, delta_t, start, logs
        )

    if collect_logs:
        logs.sort(key=lambda row: (row[0], row[1]))
        return states, jump_counts, logs
    return states, jump_counts


def ensemble_density(states) -> np.ndarray:
    """Monte Carlo density estimate (1/M) sum |psi><psi| over the ensemble."""
    psi = np.asarray(states, dtype=complex)
    if psi.ndim == 1:
        psi = psi[None, :]
    if psi.ndim != 2 or psi.shape[0] == 0:
        raise DomainError("ensemble_density needs at least one state vector")
    rho = np.einsum("bi,bj->ij", psi, psi.conj()) / psi.shape[0]
    return 0.5 * (rho + rho.conj().T)


def build_first_order_channel(
    psi_ref: np.ndarray, ch: JumpChannelSet, delta_t: float
) -> FirstOrderChannel:
    """Freeze the interval's error set {Q_n, p_n} against a reference state.

    p_0 is fixed as 1 - sum of jump probabilities, making the probabilities
    an exact distribution; Q_0 uses the exact exponential of H_eff.
    """
    psi_ref = check_state_vector(psi_ref)
    p_jump = jump_probabilities(psi_ref, ch, delta_t)
    p0 = 1.0 - p_jump.sum()

    dim = ch.dim
    ops = np.zeros((ch.num_channels + 1, dim, dim), dtype=complex)
    ops[0] = matrix_exponential(ch.H_eff, -1j * delta_t) / np.sqrt(p0)
    for n in range(ch.num_channels):
        if p_jump[n] > 0.0:
            ops[n + 1] = np.sqrt(ch.eigenvalues[n] * delta_t / p_jump[n]) * ch.jump_ops[n]
    probs = np.concatenate(([p0], p_jump))
    return FirstOrderChannel(delta_t=delta_t, operators=ops, probabilities=probs)
