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
Above the gate every row is a candidate, so the gate sees every total.

Shared states.  Over a short interval almost no trajectory jumps, and every
trajectory that has not jumped holds the same no-jump state (Dalibard,
Castin & Molmer, PRL 68, 580 (1992)).  A block of M trajectories is
therefore held as a StateBlock: its distinct states, one slot each, a
row-to-slot index and a row count per slot.  The step propagates,
normalizes and gates each distinct state once, computes the totals and
jump images of each distinct candidate or jumped state once, and decides
per row from the row's own uniform.  The jumped rows regroup by (state,
channel) under StateBlock.move, the one rule that the syndrome
measurement's -1 rows follow too.  Rows expand to an (M, dim) array only
where a caller needs them (overlaps, ensemble_density, the returned
states).  When nearly every row has a state of its own, so that the states
shared would save fewer entries, (M - size) * dim, than the block has
rows, the block is spread to one slot per row, and StateBlock.sources and
move keep no bookkeeping for it.

Every row gets the bytes it would get in a product over the (M, dim) rows.
The rows of a GEMM do not depend on the other rows once it has two or more
rows (checked with OpenBLAS at dim 2..32 for 2..8192 rows), and norms and
divisions work element by element.  numpy runs a one-row product through
gemv, which can differ from a GEMM row in the last bit.  So a product that
stands for two or more rows gets at least two: a lone distinct state is
repeated (operators.gemm_operand).  A product that stands for exactly one
row keeps one row: M == 1, exactly one jumped row, a one-row syndrome
group.  One more element-wise fact: numpy's in-place multiply of a lone
complex element rounds differently from a fresh product, so
operators.row_norms squares a one-element block into a fresh array.

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

Buffers: BatchStepper.step takes ownership of the block it advances, uses
its buffer as scratch and writes the following step's states into it, so a
block lives in two buffers.  A buffer holds the distinct states with room
to spare and is replaced (operators.room_for) only when a step needs more
slots than it holds; the slot counts have room for M slots from the start,
and spreading a block to one slot per row writes its rows into the spare
buffer.  Per step only the candidate and jumped states are gathered, and
the per-row work is index arithmetic over M.  The step's temporaries
indexed by slot are sized M, not by the slot count: arrays that grew by a
few entries every step fragmented the heap and raised the unraveling
grid's peak RSS from 64 to as much as 72 MB.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SimulationError, StepSizeError
from .noise import JumpChannelSet
from .operators import (
    StateBlock,
    check_finite_square,
    check_state_vector,
    divide_rows,
    gemm_operand,
    is_boolean,
    is_integer,
    is_nonnegative,
    is_positive,
    matmul_rows,
    room_for,
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
    rho0 = check_finite_square(rho0, "density matrix", channel.operators.shape[-1])
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
    if not total <= SUM_P_GATE:  # a NaN total fails too
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
    a block of M unit states, a StateBlock or an (M, dim) array, with one
    uniform per row, and steps each distinct state once.  A row whose
    uniform is at or above `bound` cannot jump; when `bound` is within the
    first-order gate, no row can fail the gate either, and only the other
    rows' states get their total jump probability <psi|Gamma|psi>.
    Otherwise every row is a candidate and every total is gated.  Only the
    states of rows that jump get per-channel probabilities and jump images.
    A step takes ownership of the block it is given, and the stepper writes
    its next step's result into it.
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

    def _spare_for(self, block):
        """The buffer the last step consumed, unless it holds block's states."""
        spare = self._spare
        return None if spare is None or np.may_share_memory(spare, block.buffer) else spare

    def step(self, block, u: np.ndarray):
        """Advance the block, a StateBlock or an (M, dim) array, one interval.

        Returns (block_next, jumped, channel): block_next is a StateBlock,
        jumped a boolean row mask and channel the flat channel index of each
        jumped row (unspecified elsewhere).  Each distinct state is stepped
        once, and the jumped rows regroup by (state, channel) as
        StateBlock.move says.  The step takes the block over and writes
        block_next into the buffer the previous step consumed, so a
        trajectory block lives in two buffers; a caller that still needs the
        block passes a copy.
        """
        block = StateBlock.of(block)
        m, dim = block.shape
        if block.size < m and (m - block.size) * dim < m:
            # The shared states would save less than their bookkeeping costs:
            # the block is spread to one slot per row, in the spare buffer.
            spread = room_for(self._spare_for(block), m, m, dim)
            block.rows(out=spread[:m])
            self._spare = block.buffer
            block.index[...] = np.arange(m)
            block.counts[...] = 1
            block = StateBlock(spread, block.index, block.counts, m)
        psi, k = block.states, block.size
        # A row with u >= bound cannot jump.  Above the gate every row is a
        # candidate, so that the gate sees every total.
        screen = self.bound if self.bound <= SUM_P_GATE else np.inf
        candidates = np.flatnonzero(u < screen)
        slots, at = block.sources(candidates)
        total = total_jump_probability(gemm_operand(psi[slots], m), self.gamma)[: slots.size]
        _check_gate(total.max(initial=0.0), self.delta_t)
        rows = candidates[u[candidates] < total[at]]
        jumped = np.zeros(m, dtype=bool)
        jumped[rows] = True
        channel = np.zeros(m, dtype=np.intp)
        size = k
        if rows.size:
            sources, pos = block.sources(rows)
            s_psi, p = _jump_images(gemm_operand(psi[sources], rows.size), self.jump_ops, self.weights)
            p = p[pos]
            # Inverse CDF over the jumped rows' channel probabilities.  A u in
            # the roundoff gap between the Gamma total and the summed p_n is
            # clamped to the last channel; a pick with zero probability (the
            # clamped one, or a leading one under u == 0.0) goes to the first
            # active channel.
            cum = np.cumsum(p, axis=1)
            pick = np.minimum((cum < u[rows, None]).sum(axis=1), p.shape[1] - 1)
            bad = p[np.arange(rows.size), pick] <= 0.0
            if np.any(bad):
                pick[bad] = np.argmax(p[bad] > 0.0, axis=1)
            channel[rows] = pick
            # The jumped rows regroup by (state, channel): StateBlock.move.
            size, pairs, cells, targets = block.move(rows, sources, pos, pick, p.shape[1])
        out = room_for(self._spare_for(block), size, m, dim)
        phi = out[:size]
        matmul_rows(psi, self.prop.T, m, out=phi[:k])
        if rows.size:
            phi[targets] = s_psi[pairs, cells]
        spare = room_for(block.buffer, size, m, dim)
        norms = row_norms(phi, scratch=spare[:size])
        # Written as "not > " so that a NaN norm fails the gate too.
        if not norms.min(initial=1.0) > 1e-12:
            raise SimulationError("trajectory state norm collapsed or is not finite during a step")
        divide_rows(phi, norms)
        self._spare = spare
        return StateBlock(out, block.index, block.counts, size), jumped, channel


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
    collect_logs passes the boolean rule (is_boolean).
    """
    if not is_integer(num_trajectories) or num_trajectories < 1:
        raise DomainError(f"num_trajectories must be a positive integer, got {num_trajectories!r}")
    if not is_boolean(collect_logs):
        raise DomainError(f"collect_logs must be a boolean, got {collect_logs!r}")
    n_steps = step_count(t_total, delta_t)
    psi0 = check_state_vector(psi0, ch.dim)
    stepper = BatchStepper(ch, delta_t)

    states = np.empty((num_trajectories, ch.dim), dtype=complex)
    jump_counts = np.zeros(num_trajectories, dtype=np.int64)
    logs = []

    for start, uniforms in uniform_blocks(base_seed, num_trajectories, n_steps):
        rows = slice(start, start + uniforms.shape[0])
        psi = StateBlock.shared(psi0, uniforms.shape[0])
        for step in range(n_steps):
            psi, jumped, channel = stepper.step(psi, uniforms[:, step])
            jump_counts[rows] += jumped
            if collect_logs:
                for b in np.flatnonzero(jumped):
                    logs.append((start + int(b), step * delta_t, int(channel[b])))
        psi.rows(out=states[rows])
        del psi, uniforms  # freed before the next block's draws are made

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
    psi_ref = check_state_vector(psi_ref, ch.dim)
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
