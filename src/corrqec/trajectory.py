"""Stochastic unraveling of the master equation and the first-order error channel.

A trajectory alternates non-Hermitian no-jump evolution with random quantum
jumps: over an interval delta_t the jump into channel n fires with
probability p_n = xi_n delta_t <psi|s_n^dag s_n|psi>, otherwise the state is
propagated by K = 1 - i delta_t H_eff and renormalized.  Averaging
|psi><psi| over many trajectories recovers the density-matrix evolution.

Whether a jump fires at all is decided from the total <psi|Gamma|psi>, with
Gamma = sum_n xi_n delta_t s_n^dag s_n built once per interval length; the
per-channel probabilities and the jump images s_n psi are built only for the
states that jump.  For a unit state the total is at most lambda_max(Gamma),
so when that bound is within the first-order gate only the rows whose
uniform falls under it have their totals computed; the others cannot jump.
Above the gate every row is such a candidate, so the gate sees every total.
The candidates' totals come from a product of at least min(2, M) rows of the
(M, dim) block, so each is the total the whole block's product gives, bit
for bit: numpy runs a one-row product through gemv, which can differ from a
GEMM row in the last bit, while the rows of a GEMM do not depend on how many
rows it has (checked with OpenBLAS at dim 2..32 for 2..8192 rows).

The same interval, frozen against a reference state, defines the first-order
error channel {Q_n, p_n}: one BatchStepper supplies the propagator K, the
weights xi_n delta_t and the jump operators, Q_0 = K/sqrt(p_0) is the
effective-evolution error and Q_n = sqrt(xi_n delta_t / p_n) s_n the jump
errors, complete to O(delta_t) with probabilities summing to one.

Randomness contract: row b of sample_ensemble(..., base_seed, M) draws from
numpy's default generator seeded with SeedSequence((base_seed, b)), one
uniform per interval, whatever the block size; the jump decision and the
channel choice share that uniform.  Trajectory b therefore takes the same
jump decisions in every ensemble of more than b trajectories.

The uniform table is built without a generator per row: the SeedSequence
hash of every row's entropy runs at once in vectorized uint32 arithmetic,
then one reused PCG64, set to each row's state, draws that row.

Buffers: BatchStepper.step takes ownership of the block it advances, uses it
as scratch and writes the following step's result into it, so a block
lives in two arrays; per step only the candidate rows are gathered, and
that is all M rows only when the bound is above the gate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SimulationError, StepSizeError
from .noise import JumpChannelSet
from .operators import (
    check_density_matrix,
    check_state_vector,
    divide_rows,
    is_integer,
    is_nonnegative,
    is_positive,
    row_norms,
)

# First-order validity gate on the total jump probability per interval.
SUM_P_GATE = 0.1

_BLOCK = 8192  # trajectories per vectorized block; bounds memory, not results

# numpy's SeedSequence (NumPy NEP 19): pool size and hash constants.
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = np.uint32(16)
_MASK32 = 0xFFFFFFFF
# PCG64's 128-bit LCG multiplier (O'Neill, HMC-CS-2014-0905).
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


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
        # Written as "not >=" and "not <=" so that a NaN fails them too.
        if not p.min(initial=0.0) >= 0.0:
            raise DomainError(f"channel probability {p.min():.3e} is negative or not finite")
        if not abs(p.sum() - 1.0) <= 1e-9 * len(p):
            raise DomainError(f"channel probabilities sum to {p.sum()!r}, not 1")
        object.__setattr__(self, "probabilities", p)
        object.__setattr__(self, "operators", np.asarray(self.operators, dtype=complex))


def apply_first_order_channel(rho0: np.ndarray, channel: FirstOrderChannel) -> np.ndarray:
    """Apply sum_n p_n Q_n rho Q_n^dag and renormalize to unit trace.

    The output matches lindblad.evolve_exact over the same interval up to
    O(delta_t^2).
    """
    rho0 = check_density_matrix(rho0, channel.operators.shape[-1])
    out = np.zeros_like(rho0)
    for p, q in zip(channel.probabilities, channel.operators):
        if p <= 0.0:
            continue
        out += p * (q @ rho0 @ q.conj().T)
    tr = float(out.trace().real)
    if not tr > 0.0:  # a NaN trace fails too
        raise DomainError("first-order channel output has nonpositive or non-finite trace")
    return out / tr


def step_count(t_total: float, delta_t: float) -> int:
    """Number of intervals m with m * delta_t == t_total; DomainError otherwise."""
    if not is_positive(delta_t):
        raise DomainError(f"delta_t must be positive and finite, got {delta_t}")
    if not is_nonnegative(t_total):
        raise DomainError(f"t_total must be nonnegative and finite, got {t_total}")
    m = round(t_total / delta_t)
    if abs(m * delta_t - t_total) > 1e-9 * max(t_total, delta_t):
        raise DomainError(
            f"t_total={t_total!r} is not an integer multiple of delta_t={delta_t!r}"
        )
    return m


def _channel_weights(ch: JumpChannelSet, delta_t: float) -> np.ndarray:
    """w_n = xi_n delta_t per channel, so that p_n = w_n ||s_n psi||^2; checks delta_t."""
    if not is_nonnegative(delta_t):
        raise DomainError(f"delta_t must be nonnegative and finite, got {delta_t}")
    # Inert channels get exactly zero weight so they can never fire.
    return np.where(ch.inert, 0.0, ch.eigenvalues) * delta_t


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
    s = ch.jump_ops
    weighted = _channel_weights(ch, delta_t)[:, None, None] * s
    gamma = weighted.reshape(-1, ch.dim).conj().T @ s.reshape(-1, ch.dim)
    return 0.5 * (gamma + gamma.conj().T)


def total_jump_probability(psi: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """<psi|Gamma|psi> for a state (dim,) or for every row of a block (M, dim)."""
    psi = np.ascontiguousarray(psi, dtype=complex)
    v = psi @ gamma.T
    # Re<psi|v> as a real dot product over the interleaved Re/Im parts.
    return np.einsum("...k,...k->...", psi.view(float), v.view(float))


class BatchStepper:
    """Vectorized single-interval update for a block of trajectory states.

    Precomputes Gamma = sum_n xi_n delta_t s_n^dag s_n, its largest
    eigenvalue as `bound` and the no-jump propagator once.  `step` advances
    a (M, dim) block of unit states with one uniform per row.  A row whose
    uniform is at or above `bound` cannot jump; when `bound` is within the
    first-order gate, no row can fail the gate either, and only the other
    rows get their total jump probability <psi|Gamma|psi>, from a product
    of at least min(2, M) rows.  Otherwise every row is a candidate and
    every total is gated.  Only the rows that jump get per-channel probabilities and jump
    images.  A step takes ownership of the block it is given, and the
    stepper writes its next step's result into it.
    """

    def __init__(self, ch: JumpChannelSet, delta_t: float):
        self.delta_t = delta_t
        self.gamma = jump_rate_operator(ch, delta_t)
        # <psi|Gamma|psi> <= lambda_max for a unit state; the margin covers
        # the roundoff of a computed total, so it never changes a decision.
        self.bound = float(np.linalg.eigvalsh(self.gamma)[-1]) * (1.0 + 1e-9)
        self.weights = _channel_weights(ch, delta_t)
        self.jump_ops = ch.jump_ops
        self.prop = np.eye(ch.dim, dtype=complex) - 1j * delta_t * ch.H_eff
        self._spare = None  # the block consumed by the last step

    def step(self, psi: np.ndarray, u: np.ndarray):
        """Advance the block one interval.

        Returns (psi_next, jumped, channel) where jumped is a boolean row
        mask and channel holds the flat channel index for jumped rows
        (unspecified elsewhere).  psi is overwritten, and psi_next is
        written into the block the previous step consumed, so a (M, dim)
        trajectory block lives in two arrays; a caller that still needs psi
        passes a copy.
        """
        psi = np.require(psi, complex, "CW")
        phi = self._spare
        if phi is None or phi.shape != psi.shape or np.may_share_memory(phi, psi):
            phi = np.empty_like(psi)
        # A row with u >= bound cannot jump.  Above the gate every row is a
        # candidate, so that the gate sees every total.
        screen = self.bound if self.bound <= SUM_P_GATE else np.inf
        candidates = np.flatnonzero(u < screen)
        # A lone candidate in a block of several rows goes in a two-row
        # product, so that its total is the block product's to the bit.
        if candidates.size == 1 < psi.shape[0]:
            block = psi[np.repeat(candidates, 2)]
        else:
            block = psi[candidates]
        total = total_jump_probability(block, self.gamma)[: candidates.size]
        _check_gate(total.max(initial=0.0), self.delta_t)
        jumped = np.zeros(psi.shape[0], dtype=bool)
        jumped[candidates] = u[candidates] < total
        channel = np.zeros(psi.shape[0], dtype=np.intp)
        np.matmul(psi, self.prop.T, out=phi)
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
        norms = row_norms(phi, scratch=psi)
        # Written as "not > " so that a NaN norm fails the gate too.
        if not norms.min(initial=1.0) > 1e-12:
            raise SimulationError("trajectory state norm collapsed or is not finite during a step")
        divide_rows(phi, norms)
        self._spare = psi
        return phi, jumped, channel


def _seed_words(base_seed: int) -> list:
    """Little-endian uint32 words of a nonnegative seed, 0 -> [0], as SeedSequence splits it.

    The one library check of a seed: a nonnegative integer (is_integer).
    """
    if not is_integer(base_seed) or base_seed < 0:
        raise DomainError(f"base_seed must be a nonnegative integer, got {base_seed!r}")
    seed = int(base_seed)
    words = [seed & _MASK32]
    seed >>= 32
    while seed:
        words.append(seed & _MASK32)
        seed >>= 32
    return words


def _pcg64_seeds(base_seed: int, index0: int, count: int) -> list:
    """SeedSequence((base_seed, index0 + b)).generate_state(4, uint64) for b < count.

    Returns the four words as (count,) uint64 arrays, computed for all rows
    at once: the entropy mixing into the pool, then the state generation.
    """
    if index0 < 0 or index0 + count > 2**32:
        raise DomainError(f"trajectory indices {index0}..{index0 + count - 1} exceed 2^32 - 1")
    entropy = [np.full(count, w, dtype=np.uint32) for w in _seed_words(base_seed)]
    entropy.append(np.arange(index0, index0 + count, dtype=np.uint32))
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> _XSHIFT)

    def mix(x, y):
        result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return result ^ (result >> _XSHIFT)

    zero = np.zeros(count, dtype=np.uint32)
    pool = [hashmix(entropy[i] if i < len(entropy) else zero) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))

    hash_const = _INIT_B
    state = []
    for i in range(8):
        value = pool[i % _POOL_SIZE] ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * np.uint32(hash_const)
        state.append((value ^ (value >> _XSHIFT)).astype(np.uint64))
    return [state[i] | (state[i + 1] << np.uint64(32)) for i in range(0, 8, 2)]


def _uniform_table(base_seed: int, index0: int, count: int, draws: int) -> np.ndarray:
    """Per-trajectory uniforms, row b = stream of trajectory index0 + b.

    Row b equals default_rng(SeedSequence((base_seed, index0 + b))).random(draws)
    bit for bit.  PCG64 seeds itself from the four SeedSequence words
    w0..w3 as inc = (w2 * 2^64 + w3) * 2 + 1 and
    state = (w0 * 2^64 + w1 + inc) * _PCG_MULT + inc, both modulo 2^128.
    """
    words = _pcg64_seeds(base_seed, index0, count)
    table = np.empty((count, draws))
    bitgen = np.random.PCG64(0)
    gen = np.random.Generator(bitgen)
    pcg = {"state": 0, "inc": 0}
    full_state = {"bit_generator": "PCG64", "state": pcg, "has_uint32": 0, "uinteger": 0}
    for row, w0, w1, w2, w3 in zip(table, *(w.tolist() for w in words)):
        inc = ((((w2 << 64) | w3) << 1) | 1) & _MASK128
        pcg["inc"] = inc
        pcg["state"] = ((inc + ((w0 << 64) | w1)) * _PCG_MULT + inc) & _MASK128
        bitgen.state = full_state
        gen.random(out=row)
    return table


def uniform_blocks(base_seed: int, num_trajectories: int, draws: int):
    """Yield (start, uniforms) over blocks of at most _BLOCK trajectories.

    Row b of uniforms holds the first `draws` uniforms of trajectory
    start + b's stream.  num_trajectories and draws are nonnegative integers
    (is_integer); anything else is a DomainError at the first block.
    """
    for name, value in (("num_trajectories", num_trajectories), ("draws", draws)):
        if not is_integer(value) or value < 0:
            raise DomainError(f"{name} must be a nonnegative integer, got {value!r}")
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
    collect_logs: bool = False,
):
    """Propagate num_trajectories trajectories; vectorized over blocks.

    Returns (states, jump_counts) with states of shape (M, 2^L), or
    (states, jump_counts, logs) when collect_logs is set, logs being
    (trajectory_index, t, channel) triples sorted by trajectory then time,
    t the start of the interval in which the jump fired.  num_trajectories
    must be a positive integer and base_seed a nonnegative one (checked
    where the streams are seeded, _seed_words); numpy integers are accepted.
    """
    if not is_integer(num_trajectories) or num_trajectories < 1:
        raise DomainError(f"num_trajectories must be a positive integer, got {num_trajectories!r}")
    n_steps = step_count(t_total, delta_t)
    psi0 = check_state_vector(psi0)
    stepper = BatchStepper(ch, delta_t)

    states = np.empty((num_trajectories, ch.dim), dtype=complex)
    jump_counts = np.zeros(num_trajectories, dtype=np.int64)
    logs = []

    for start, uniforms in uniform_blocks(base_seed, num_trajectories, n_steps):
        rows = slice(start, start + uniforms.shape[0])
        psi = np.tile(psi0, (uniforms.shape[0], 1))
        for step in range(n_steps):
            psi, jumped, channel = stepper.step(psi, uniforms[:, step])
            jump_counts[rows] += jumped
            if collect_logs:
                for b in np.flatnonzero(jumped):
                    logs.append((start + int(b), step * delta_t, int(channel[b])))
        states[rows] = psi

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

    The interval is BatchStepper(ch, delta_t)'s: p_n = w_n ||s_n psi_ref||^2
    from its weights and jump operators, gated like a step, Q_0 = K/sqrt(p_0)
    from its propagator K = 1 - i delta_t H_eff and Q_n = sqrt(w_n / p_n) s_n.
    p_0 is fixed as 1 - sum of jump probabilities, making the probabilities
    an exact distribution.
    """
    psi_ref = check_state_vector(psi_ref)
    if psi_ref.shape != (ch.dim,):
        raise DomainError(f"state shape {psi_ref.shape} does not match dimension {ch.dim}")
    stepper = BatchStepper(ch, delta_t)
    _, p = _jump_images(psi_ref[None], stepper.jump_ops, stepper.weights)
    p_jump = p[0]
    _check_gate(p_jump.sum(), delta_t)
    p0 = 1.0 - p_jump.sum()

    ops = np.zeros((ch.num_channels + 1, ch.dim, ch.dim), dtype=complex)
    ops[0] = stepper.prop / np.sqrt(p0)
    for n in np.flatnonzero(p_jump > 0.0):
        ops[n + 1] = np.sqrt(stepper.weights[n] / p_jump[n]) * stepper.jump_ops[n]
    probs = np.concatenate(([p0], p_jump))
    return FirstOrderChannel(delta_t=delta_t, operators=ops, probabilities=probs)
