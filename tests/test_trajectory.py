"""Stochastic unraveling tests: jump statistics, determinism, batch equivalence."""

import contextlib
import functools
import math
import mmap
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from corrqec import trajectory
from corrqec.errors import DomainError, SimulationError, StepSizeError
from corrqec.lindblad import EvolutionConfig, default_dt_integrator, evolve_exact
from corrqec.noise import (
    assemble_channel_set,
    build_channels,
    collective_axis_kernel,
    exponential_kernel,
    independent_kernel,
    integrate_kernel,
    lowering_kernel,
    noise_spec_direct,
    rescale_to_unit_max_rate,
)
from corrqec.operators import StateBlock, trace_distance
from corrqec.trajectory import (
    SUM_P_GATE,
    BatchStepper,
    FirstOrderChannel,
    build_first_order_channel,
    ensemble_density,
    jump_rate_operator,
    sample_ensemble,
    step_count,
    total_jump_probability,
)

PLUS = np.array([1, 1], dtype=complex) / np.sqrt(2)


def _dephasing():
    return build_channels(integrate_kernel(collective_axis_kernel(1, axis=3, amplitude=1.0)))


def _random_state(rng, dim):
    psi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return psi / np.linalg.norm(psi)


def test_jump_probabilities_dephasing():
    # sigma_z is unitary, so <s^dag s> = 1 for every state: p = xi * dt
    ch = _dephasing()
    p = build_first_order_channel(PLUS, ch, 0.01).probabilities[1:]
    assert p.sum() == pytest.approx(0.01, abs=1e-14)
    assert np.count_nonzero(p) == 1
    rng = np.random.default_rng(3)
    p2 = build_first_order_channel(_random_state(rng, 2), ch, 0.01).probabilities[1:]
    assert p2.sum() == pytest.approx(0.01, abs=1e-14)


def test_jump_probabilities_lowering_ground_state():
    ch = build_channels(integrate_kernel(lowering_kernel(1)))
    ground = np.array([1, 0], dtype=complex)
    excited = np.array([0, 1], dtype=complex)
    p_ground = build_first_order_channel(ground, ch, 0.01).probabilities[1:]
    assert p_ground.sum() == pytest.approx(0.0, abs=1e-14)
    # s = sqrt(2)|0><1| gives <s^dag s> = 2 on the excited state
    p_excited = build_first_order_channel(excited, ch, 0.01).probabilities[1:]
    assert p_excited.sum() == pytest.approx(0.02, abs=1e-14)


def test_jump_probabilities_collective_z_plus_states():
    # xi = 0.6 with s = sum sigma_z / sqrt(3); on |+++> the cross terms average
    # out and <s^dag s> = 1, so the total is 0.6 * 0.01 * 1 = 0.006
    ch = build_channels(integrate_kernel(collective_axis_kernel(3, axis=3, amplitude=0.2)))
    plus3 = np.full(8, 8.0**-0.5, dtype=complex)
    p = build_first_order_channel(plus3, ch, 0.01).probabilities[1:]
    # brute-force oracle: p_n = xi_n dt <psi|s_n^dag s_n|psi>
    expected = np.zeros(ch.num_channels)
    for n in range(ch.num_channels):
        if not ch.inert[n]:
            v = ch.jump_ops[n] @ plus3
            expected[n] = ch.eigenvalues[n] * 0.01 * float(np.real(v.conj() @ v))
    np.testing.assert_allclose(p, expected, atol=1e-14)
    assert p.sum() == pytest.approx(0.006, abs=1e-12)


def test_jump_probabilities_gate():
    ch = _dephasing()
    with pytest.raises(StepSizeError):
        build_first_order_channel(PLUS, ch, 2 * SUM_P_GATE)
    # just under the gate passes
    build_first_order_channel(PLUS, ch, 0.99 * SUM_P_GATE)


def test_jump_probabilities_shape_and_sign_errors():
    ch = _dephasing()
    with pytest.raises(DomainError):
        build_first_order_channel(np.ones(4, dtype=complex) / 2, ch, 0.01)
    with pytest.raises(DomainError):
        build_first_order_channel(PLUS, ch, -0.01)


def test_apply_jump_dephasing_flips_coherence():
    ch = _dephasing()
    n = int(np.flatnonzero(~ch.inert)[0])
    minus = np.array([1, -1], dtype=complex) / np.sqrt(2)
    out = apply_jump(PLUS, ch, n)
    # sigma_z|+> = |-> up to the eigenbasis phase convention
    overlap = abs(np.vdot(minus, out))
    assert overlap == pytest.approx(1.0, abs=1e-12)


def test_apply_jump_annihilated_state_raises():
    ch = build_channels(integrate_kernel(lowering_kernel(1)))
    n = int(np.flatnonzero(~ch.inert)[0])
    ground = np.array([1, 0], dtype=complex)
    with pytest.raises(SimulationError):
        apply_jump(ground, ch, n)


def test_no_jump_step_noiseless_is_identity():
    ch = build_channels(noise_spec_direct(np.zeros((3, 3))))
    stepper = BatchStepper(ch, 0.05)
    psi, jumped, _ = stepper.step(PLUS[None].copy(), np.ones(1))
    assert not jumped[0]
    np.testing.assert_allclose(psi.rows()[0], PLUS, atol=1e-14)
    assert np.linalg.norm(stepper.prop @ PLUS) ** 2 == pytest.approx(1.0, abs=1e-14)


def test_no_jump_step_dephasing_survival():
    # K = (1 - xi dt / 2) I to first order: p0 = 1 - xi dt + O(dt^2)
    ch = _dephasing()
    dt = 0.01
    stepper = BatchStepper(ch, dt)
    p0 = np.linalg.norm(stepper.prop @ PLUS) ** 2
    assert p0 == pytest.approx((1 - dt / 2) ** 2, abs=1e-14)
    psi, jumped, _ = stepper.step(PLUS[None].copy(), np.ones(1))
    assert not jumped[0]
    np.testing.assert_allclose(psi.rows()[0], PLUS, atol=1e-14)


def test_sample_trajectory_requires_integer_intervals():
    ch = _dephasing()
    with pytest.raises(DomainError):
        sample_ensemble(PLUS, ch, 1.0, 0.3, 7, 1, collect_logs=True)
    with pytest.raises(DomainError):
        sample_ensemble(PLUS, ch, 1.0, -0.1, 7, 1, collect_logs=True)


def _rows_of(logs, b):
    return [row for row in logs if row[0] == b]


def test_sample_trajectory_deterministic_and_indexed():
    # identical runs agree exactly, and trajectory b takes the same jumps in
    # runs of 5 and of 8 trajectories: its stream depends on (base_seed, b) only
    ch = _dephasing()
    a = sample_ensemble(PLUS, ch, 1.0, 0.005, 31, 5, collect_logs=True)
    b = sample_ensemble(PLUS, ch, 1.0, 0.005, 31, 5, collect_logs=True)
    c = sample_ensemble(PLUS, ch, 1.0, 0.005, 31, 8, collect_logs=True)
    np.testing.assert_array_equal(a[0], b[0])
    np.testing.assert_array_equal(a[1], b[1])
    assert a[2] == b[2]
    assert a[2]
    for idx in range(5):
        assert _rows_of(a[2], idx) == _rows_of(c[2], idx)
    np.testing.assert_array_equal(a[1], c[1][:5])
    np.testing.assert_allclose(a[0], c[0][:5], rtol=0, atol=1e-15)
    # distinct indices consume distinct streams
    assert not np.array_equal(trajectory_rng(31, 4).random(8), trajectory_rng(31, 5).random(8))


def test_jump_log_times_are_interval_starts():
    ch = _dephasing()
    dt = 0.005
    _, counts, logs = sample_ensemble(PLUS, ch, 1.0, dt, 1234, 20, collect_logs=True)
    assert logs
    assert len(logs) == counts.sum()
    for _, t, n in logs:
        k = t / dt
        assert k == pytest.approx(round(k), abs=1e-9)
        assert 0 <= t < 1.0
        assert not ch.inert[n]


def test_poisson_jump_count():
    # constant jump rate xi = 1: count over t = 1 is Poisson-like with mean 1
    ch = _dephasing()
    _, counts = sample_ensemble(PLUS, ch, 1.0, 0.005, 424242, 10000)
    assert abs(counts.mean() - 1.0) < 0.03


def test_dephasing_ensemble_coherence():
    # ensemble average reproduces rho01 = 0.5 exp(-2t) within Monte Carlo error
    ch = _dephasing()
    states, _ = sample_ensemble(PLUS, ch, 1.0, 0.005, 424242, 10000)
    rho = ensemble_density(states)
    assert abs(rho[0, 1].real - 0.5 * np.exp(-2.0)) < 0.015
    assert rho.trace() == pytest.approx(1.0, abs=1e-12)


def test_batch_matches_sequential():
    # identical jump decisions; states agree to roundoff (different matmul order)
    spec = rescale_to_unit_max_rate(integrate_kernel(exponential_kernel(2, correlation_length=1.0)))
    ch = build_channels(spec)
    psi0 = _random_state(np.random.default_rng(8), 4)
    states, counts, logs = sample_ensemble(psi0, ch, 0.5, 0.01, 42, 64, collect_logs=True)
    for b in range(64):
        ref_psi, ref_log = _sequential_reference(psi0, ch, 50, 0.01, 42, b)
        np.testing.assert_allclose(states[b], ref_psi, atol=1e-12)
        assert counts[b] == len(ref_log)
        assert [(b, t, n) for t, n in ref_log] == _rows_of(logs, b)


# Unnormalized kernels of the unraveling grid; dt = 0.005 keeps every one of
# them under the first-order gate up to L = 3.
_KERNELS = {
    "independent": independent_kernel,
    "collective_z": lambda n: collective_axis_kernel(n, axis=3, amplitude=0.2),
    "exponential": lambda n: exponential_kernel(n, correlation_length=1.0),
    "lowering": lowering_kernel,
}


@functools.cache
def _grid_channels(kind, num_qubits):
    return build_channels(integrate_kernel(_KERNELS[kind](num_qubits)))


def trajectory_rng(base_seed, trajectory_index):
    # The randomness contract's stream for one trajectory, built by numpy.
    return np.random.default_rng(np.random.SeedSequence((base_seed, trajectory_index)))


def apply_jump(psi, ch, n):
    # Collapse psi -> s_n psi / ||s_n psi|| after a jump in channel n.
    v = ch.jump_ops[n] @ np.asarray(psi, dtype=complex)
    norm = np.linalg.norm(v)
    if norm <= 1e-12:
        raise SimulationError(f"jump channel {n} annihilated the state")
    return v / norm


def _sequential_reference(psi0, ch, n_steps, delta_t, base_seed, index):
    # Loop sampler kept as the reference: per-channel probabilities every
    # interval, inverse CDF over the active channels, apply_jump.
    rng = trajectory_rng(base_seed, index)
    prop = np.eye(ch.dim) - 1j * delta_t * ch.H_eff
    psi, log = psi0.copy(), []
    for step in range(n_steps):
        p = build_first_order_channel(psi, ch, delta_t).probabilities[1:]
        u = rng.random()
        if u < p.sum():
            active = np.flatnonzero(p > 0.0)
            n = int(active[np.count_nonzero(np.cumsum(p[active]) < u)])
            psi = apply_jump(psi, ch, n)
            log.append((step * delta_t, n))
        else:
            phi = prop @ psi
            psi = phi / np.linalg.norm(phi)
    return psi, log


def _reference_totals(stepper, psi):
    # Every row's <psi|Gamma|psi> from one product over the whole block.
    return np.einsum("...k,...k->...", psi.view(float), (psi @ stepper.gamma.T).view(float))


def _reference_step(stepper, psi, u):
    # BatchStepper.step written with fresh temporaries and every row's total,
    # as it was before the step reused its buffers and screened rows by the
    # bound; psi is left as it was.
    total = _reference_totals(stepper, psi)
    trajectory._check_gate(total.max(initial=0.0), stepper.delta_t)
    jumped = u < total
    channel = np.zeros(psi.shape[0], dtype=np.intp)
    phi = psi @ stepper.prop.T
    rows = np.flatnonzero(jumped)
    if rows.size:
        s_psi, p = trajectory._jump_images(psi[rows], stepper.jump_ops, stepper.weights)
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


def _mixed_block(rng, dim, num_rows):
    # Random unit states, about a quarter of them replaced by basis states.
    psi = np.stack([_random_state(rng, dim) for _ in range(num_rows)])
    basis = rng.random(num_rows) < 0.25
    psi[basis] = np.eye(dim)[rng.integers(dim, size=np.count_nonzero(basis))]
    return psi


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(sorted(_KERNELS)),
    num_qubits=st.integers(1, 5),
    num_rows=st.integers(1, 64),
    gate_fraction=st.floats(0.05, 0.95),
    steps=st.integers(1, 4),
)
def test_step_matches_reference_bit_for_bit(seed, kind, num_qubits, num_rows, gate_fraction, steps):
    # Chained steps of one stepper, so that its reused buffer is in play,
    # against the fresh-temporary step: equal states, jump masks and
    # channels.  Rows mix random and basis states; each row's uniform is a
    # random draw, exactly 0.0, or a value under its total jump probability
    # (a forced jump).  delta_t puts the largest total at gate_fraction of
    # the first-order gate.
    ch = _grid_channels(kind, num_qubits)
    rng = np.random.default_rng(seed)
    rate = np.linalg.eigvalsh(jump_rate_operator(ch, 1.0))[-1]
    stepper = BatchStepper(ch, gate_fraction * SUM_P_GATE / rate)
    psi = StateBlock.of(_mixed_block(rng, ch.dim, num_rows))
    for _ in range(steps):
        rows = psi.rows()
        total = total_jump_probability(rows, stepper.gamma)
        draw = rng.integers(3, size=num_rows)
        u = np.select([draw == 0, draw == 1], [rng.random(num_rows), 0.0], rng.random(num_rows) * total)
        try:
            expected = _reference_step(stepper, rows, u)
        except SimulationError:
            # A forced jump out of a state whose total is roundoff annihilates
            # it; both steps must say so.
            with pytest.raises(SimulationError):
                stepper.step(psi, u)
            return
        psi, jumped, channel = stepper.step(psi, u)
        assert np.array_equal(psi.rows(), expected[0])
        assert np.array_equal(jumped, expected[1])
        assert np.array_equal(channel, expected[2])


def _assert_step_matches_reference(stepper, psi, u):
    try:
        expected = _reference_step(stepper, psi, u)
    except (SimulationError, StepSizeError) as err:
        with pytest.raises(type(err)) as got:
            stepper.step(psi.copy(), u)
        assert str(got.value) == str(err)
        return
    block, jumped, channel = stepper.step(psi.copy(), u)
    for a, b in zip((block.rows(), jumped, channel), expected):
        assert np.array_equal(a, b)


@pytest.mark.parametrize(
    "num_rows, count", [(1, 0), (1, 1), (2, 1), (9, 0), (9, 1), (9, 4), (9, 9)]
)
def test_step_totals_at_the_uniform_edge(num_rows, count):
    # `count` candidate rows (u under the bound) get u exactly at the whole
    # block's total or one ulp either side of it, so a total computed from a
    # different product flips a decision: a one-row gemv differs from a
    # block row in the last bit for 9-31% of random states on the
    # exponential kernel at L=2..5.  The other rows' u are at or above the
    # bound.
    rng = np.random.default_rng(10 * num_rows + count)
    edges = (lambda t: t, lambda t: np.nextafter(t, 0.0), lambda t: np.nextafter(t, 1.0))
    for kind in sorted(_KERNELS):
        for num_qubits in range(1, 6):
            ch = _grid_channels(kind, num_qubits)
            rate = np.linalg.eigvalsh(jump_rate_operator(ch, 1.0))[-1]
            for trial in range(12):
                stepper = BatchStepper(ch, rng.uniform(0.05, 0.95) * SUM_P_GATE / rate)
                assert stepper.bound <= SUM_P_GATE
                psi = _mixed_block(rng, ch.dim, num_rows)
                total = _reference_totals(stepper, psi)
                u = stepper.bound + rng.random(num_rows) * (1.0 - stepper.bound)
                u[rng.integers(num_rows)] = stepper.bound
                chosen = rng.permutation(num_rows)[:count]
                u[chosen] = edges[trial % 3](total[chosen])
                assert np.count_nonzero(u < stepper.bound) == count
                _assert_step_matches_reference(stepper, psi, u)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(sorted(_KERNELS)),
    num_qubits=st.integers(1, 5),
    num_rows=st.integers(1, 40),
    over=st.floats(1.01, 3.0),
    top=st.booleans(),
)
def test_step_above_the_gate_bound_matches_reference(seed, kind, num_qubits, num_rows, over, top):
    # A bound above the first-order gate: every row's total is computed and
    # gated, with the same StepSizeError text as the whole-block reference.
    # With `top`, one row is Gamma's top eigenvector, whose total exceeds
    # the gate.
    ch = _grid_channels(kind, num_qubits)
    rng = np.random.default_rng(seed)
    rate = np.linalg.eigvalsh(jump_rate_operator(ch, 1.0))[-1]
    stepper = BatchStepper(ch, over * SUM_P_GATE / rate)
    assert stepper.bound > SUM_P_GATE
    psi = _mixed_block(rng, ch.dim, num_rows)
    if top:
        psi[rng.integers(num_rows)] = np.linalg.eigh(stepper.gamma)[1][:, -1]
        with pytest.raises(StepSizeError):
            _reference_step(stepper, psi, rng.random(num_rows))
    total = _reference_totals(stepper, psi)
    u = np.where(rng.random(num_rows) < 0.5, rng.random(num_rows), total)
    _assert_step_matches_reference(stepper, psi, u)


def _shared_block(states, index):
    # A StateBlock whose rows are states[index]; index uses every state.
    counts = np.zeros(index.size, dtype=np.intp)
    counts[: len(states)] = np.bincount(index, minlength=len(states))
    return StateBlock(np.array(states, dtype=complex), index.copy(), counts, len(states))


def _shared_index(rng, distinct, num_rows):
    # num_rows slots of `distinct` states in random order, each state used.
    index = np.concatenate([np.arange(distinct), rng.integers(distinct, size=num_rows - distinct)])
    return rng.permutation(index)


def _uniforms_by_mode(rng, modes, stepper, total):
    # One uniform per row: at or above the bound (not a candidate), 0.0,
    # under the row's total (a forced jump), at the total or one ulp off it
    # (a decision that a total one bit off flips), or a random draw.
    u = rng.random(len(modes))
    edges = (total, np.nextafter(total, 0.0), np.nextafter(total, 1.0))
    edge = np.choose(rng.integers(3, size=len(modes)), edges)
    choices = {
        "high": stepper.bound + u * (1.0 - stepper.bound),
        "zero": np.zeros(len(modes)),
        "under": u * total,
        "edge": edge,
        "random": u,
    }
    return np.array([choices[mode][b] for b, mode in enumerate(modes)])


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(sorted(_KERNELS)),
    num_qubits=st.integers(1, 5),
    modes=st.lists(st.sampled_from(["high", "zero", "under", "edge", "random"]), min_size=1, max_size=40),
    distinct=st.integers(1, 6),
    gate_fraction=st.floats(0.05, 0.95),
    steps=st.integers(1, 4),
)
# M == 1; a lone candidate; a lone jump out of a shared state; two jumps out
# of one shared state; every row of a shared state jumping.
@example(seed=1, kind="exponential", num_qubits=3, modes=["zero"], distinct=1, gate_fraction=0.5, steps=2)
@example(seed=2, kind="exponential", num_qubits=5, modes=["edge", "high", "high"], distinct=1, gate_fraction=0.9, steps=1)
@example(seed=3, kind="lowering", num_qubits=2, modes=["under", "high", "high", "high"], distinct=1, gate_fraction=0.9, steps=3)
@example(seed=4, kind="independent", num_qubits=4, modes=["under", "under", "high"], distinct=1, gate_fraction=0.9, steps=2)
@example(seed=5, kind="collective_z", num_qubits=2, modes=["zero", "zero", "random"], distinct=2, gate_fraction=0.9, steps=2)
def test_shared_block_step_matches_reference_bit_for_bit(
    seed, kind, num_qubits, modes, distinct, gate_fraction, steps
):
    # A block of few distinct states over many rows is stepped one distinct
    # state at a time; the row-wise reference step on its rows gives the
    # same states, jump masks and channels, step after step.
    ch = _grid_channels(kind, num_qubits)
    rng = np.random.default_rng(seed)
    rate = np.linalg.eigvalsh(jump_rate_operator(ch, 1.0))[-1]
    stepper = BatchStepper(ch, gate_fraction * SUM_P_GATE / rate)
    distinct = min(distinct, len(modes))
    block = _shared_block(_mixed_block(rng, ch.dim, distinct), _shared_index(rng, distinct, len(modes)))
    for _ in range(steps):
        rows = block.rows()
        u = _uniforms_by_mode(rng, modes, stepper, _reference_totals(stepper, rows))
        try:
            expected = _reference_step(stepper, rows, u)
        except SimulationError:
            with pytest.raises(SimulationError):
                stepper.step(block, u)
            return
        block, jumped, channel = stepper.step(block, u)
        assert block.shape == rows.shape
        assert np.all(block.counts[: block.size] >= 1)
        assert np.array_equal(block.rows(), expected[0])
        assert np.array_equal(jumped, expected[1])
        assert np.array_equal(channel, expected[2])


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(sorted(_KERNELS)),
    num_qubits=st.integers(1, 5),
    delta_t=st.floats(1e-4, 1.0),
)
def test_total_jump_probability_under_the_bound(seed, kind, num_qubits, delta_t):
    # <psi|Gamma|psi> <= stepper.bound for random unit states, every basis
    # state and Gamma's top eigenvector, as single states and as a block.
    ch = _grid_channels(kind, num_qubits)
    rng = np.random.default_rng(seed)
    stepper = BatchStepper(ch, delta_t)
    states = [_random_state(rng, ch.dim) for _ in range(8)]
    states += list(np.eye(ch.dim, dtype=complex))
    states.append(np.linalg.eigh(stepper.gamma)[1][:, -1])
    block = np.stack(states)
    assert np.all(total_jump_probability(block, stepper.gamma) <= stepper.bound)
    for psi in states:
        assert total_jump_probability(psi, stepper.gamma) <= stepper.bound


@contextlib.contextmanager
def _mapped_buffers():
    # State buffers of 64 KB and more are mapped pages, which tracemalloc
    # does not see; this yields the sizes mapped while it is open.
    sizes, real = [], mmap.mmap

    def counting(fileno, length, *args, **kwargs):
        sizes.append(length)
        return real(fileno, length, *args, **kwargs)

    with mock.patch("mmap.mmap", counting):
        yield sizes


def test_step_allocates_no_block():
    # Once warm, a step at L=5 writes into the block it consumed the step
    # before: ten steps of the trajectory_cycle config's noise peak at 0.36
    # of one (M, dim) block above their baseline (jump images of the rows
    # that jump, per-row vectors), where fresh temporaries took 3.3 blocks.
    kernel = exponential_kernel(5, correlation_length=2.0, axis=3)
    ch = build_channels(rescale_to_unit_max_rate(integrate_kernel(kernel)))
    rng = np.random.default_rng(5)
    m = 4096
    psi = np.stack([_random_state(rng, ch.dim) for _ in range(m)])
    uniforms = rng.random((13, m))
    stepper = BatchStepper(ch, 0.1 / 16)
    for u in uniforms[:3]:
        psi, _, _ = stepper.step(psi, u)
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        baseline = tracemalloc.get_traced_memory()[0]
        with _mapped_buffers() as mapped:
            for u in uniforms[3:]:
                psi, _, _ = stepper.step(psi, u)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        if not tracing:
            tracemalloc.stop()
    rows, dim = psi.shape
    assert peak - baseline < 0.5 * rows * dim * 16  # bytes of the (M, dim) rows
    assert mapped == []


def test_shared_block_steps_allocate_less_than_half_a_block():
    # 4096 rows of one state on the trajectory_cycle config's noise: the
    # step holds the few distinct states, not the (M, dim) rows, so ten
    # steps from the shared block peak under half of one (M, dim) block.
    kernel = exponential_kernel(5, correlation_length=2.0, axis=3)
    ch = build_channels(rescale_to_unit_max_rate(integrate_kernel(kernel)))
    rng = np.random.default_rng(6)
    m = 4096
    uniforms = rng.random((10, m))
    stepper = BatchStepper(ch, 0.1 / 16)
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        baseline = tracemalloc.get_traced_memory()[0]
        block, jumps = StateBlock.shared(_random_state(rng, ch.dim), m), 0
        with _mapped_buffers() as mapped:
            for u in uniforms:
                block, jumped, _ = stepper.step(block, u)
                jumps += np.count_nonzero(jumped)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        if not tracing:
            tracemalloc.stop()
    assert jumps > 0 and 1 < block.size < m
    assert peak - baseline + sum(mapped) < 0.5 * m * ch.dim * 16


def _jumpy_stepper(ch):
    # An interval whose largest total jump probability is 0.9 of the gate.
    rate = np.linalg.eigvalsh(jump_rate_operator(ch, 1.0))[-1]
    return BatchStepper(ch, 0.9 * SUM_P_GATE / rate)


def test_step_leaves_the_stepper_as_it_was():
    # A block's buffers are its own: stepping rebinds and writes none of the
    # stepper's attributes.
    ch = _grid_channels("exponential", 2)
    rng = np.random.default_rng(22)
    stepper = _jumpy_stepper(ch)
    before = dict(vars(stepper))
    frozen = {key: value.copy() for key, value in before.items() if isinstance(value, np.ndarray)}
    block = StateBlock.shared(_random_state(rng, ch.dim), 32)
    for u in rng.random((6, 32)):
        block, _, _ = stepper.step(block, u)
    assert block.size > 1
    after = vars(stepper)
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
    assert all(np.array_equal(after[key], value) for key, value in frozen.items())


def test_one_stepper_steps_blocks_in_any_order():
    # One stepper alternating between two blocks gives each the bytes, jump
    # masks and channels that a stepper of its own gives it, through growth
    # and the spread to one slot per row.
    ch = _grid_channels("exponential", 2)
    rng = np.random.default_rng(23)
    m, steps = 16, 30
    psi = [_random_state(rng, ch.dim) for _ in range(2)]
    uniforms = rng.random((2, steps, m))
    one = _jumpy_stepper(ch)
    own = [_jumpy_stepper(ch) for _ in psi]
    blocks = [StateBlock.shared(p, m) for p in psi]
    alone = [StateBlock.shared(p, m) for p in psi]
    spread = [False, False]
    for step in range(steps):
        for i in range(2):
            blocks[i], jumped, channel = one.step(blocks[i], uniforms[i, step])
            alone[i], want_jumped, want_channel = own[i].step(alone[i], uniforms[i, step])
            assert np.array_equal(jumped, want_jumped)
            assert np.array_equal(channel, want_channel)
            assert blocks[i].rows().tobytes() == alone[i].rows().tobytes()
            spread[i] |= blocks[i].size == m
    assert all(spread)


def test_samplers_leave_caller_arrays_untouched():
    ch = _grid_channels("exponential", 2)
    psi0 = _random_state(np.random.default_rng(12), ch.dim)
    before = psi0.copy()
    sample_ensemble(psi0, ch, 0.1, 0.005, 3, 5)
    build_first_order_channel(psi0, ch, 0.005)
    assert np.array_equal(psi0, before)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(sorted(_KERNELS)),
    num_qubits=st.integers(1, 3),
    num_trajectories=st.integers(1, 6),
)
def test_batch_equals_sequential_property(seed, kind, num_qubits, num_trajectories):
    # Same jump log and state for every trajectory whether the ensemble is
    # stepped as one block or by the loop sampler.
    ch = _grid_channels(kind, num_qubits)
    psi0 = _random_state(np.random.default_rng(seed), ch.dim)
    dt, n_steps = 0.005, 60
    states, counts, logs = sample_ensemble(
        psi0, ch, n_steps * dt, dt, seed, num_trajectories, collect_logs=True
    )
    for b in range(num_trajectories):
        ref_psi, ref_log = _sequential_reference(psi0, ch, n_steps, dt, seed, b)
        assert [(b, t, n) for t, n in ref_log] == _rows_of(logs, b)
        assert counts[b] == len(ref_log)
        np.testing.assert_allclose(states[b], ref_psi, rtol=0, atol=1e-12)


@settings(max_examples=80, deadline=None)
@given(
    seed=st.one_of(
        st.integers(0, 2**32 - 1), st.integers(2**32, 2**63), st.integers(2**96, 2**256)
    ),
    index0=st.one_of(
        st.integers(0, 64),
        st.integers(8192 - 64, 8192),
        st.integers(2**32 - 128, 2**32 - 64),
    ),
    draws=st.integers(0, 300),
    data=st.data(),
)
def test_uniform_table_matches_numpy_streams(seed, index0, draws, data):
    # Row b is trajectory index0 + b's numpy stream, bit for bit.  Seeds of
    # 2^32 and above enter SeedSequence as several words; from 2^96 on the
    # seed's words and the index make five or more, so the entropy past the
    # pool's four words goes through SeedSequence's extra mixing loop.
    count = data.draw(st.integers(1, min(300, 2**32 - index0)), label="count")
    table = trajectory._uniform_table(seed, index0, count, draws)
    assert table.shape == (count, draws) and table.dtype == np.float64
    # A step reads one column per interval; each is contiguous in memory.
    assert all(table[:, k].flags.c_contiguous for k in range(draws))
    expected = np.array([trajectory_rng(seed, index0 + b).random(draws) for b in range(count)])
    assert np.array_equal(table, expected)
    # A row's first k draws do not depend on how many are drawn: a sweep's
    # points read prefixes of one table.
    k = data.draw(st.integers(0, draws), label="k")
    assert np.array_equal(table[:, :k], trajectory._uniform_table(seed, index0, count, k))


@pytest.mark.parametrize(
    "num_trajectories, block",
    [(1, 4), (4, 4), (5, 4), (12, 4), (13, 4), (7, 1), (3, 8), (2 * 8192 + 1, None)],
)
def test_blocks_partition_the_trajectories_in_order(num_trajectories, block):
    # Streams seeded over consecutive parts of the rows, block rows each but
    # the last (8192 by default, the partition the sweeps once used), draw
    # what one seeding of all the rows draws: row b of part start is
    # trajectory start + b, so any partition reads the trajectories in order.
    block = block or 8192
    draws = 3
    whole = trajectory._pcg64_streams(11, 0, num_trajectories)
    expected = np.array([whole(np.empty(num_trajectories)) for _ in range(draws)])
    parts = []
    for start in range(0, num_trajectories, block):
        count = min(block, num_trajectories - start)
        draw = trajectory._pcg64_streams(11, start, count)
        parts.append(np.array([draw(np.empty(count)) for _ in range(draws)]))
    assert sum(part.shape[1] for part in parts) == num_trajectories
    assert np.array_equal(np.concatenate(parts, axis=1), expected)


@pytest.mark.parametrize(
    "num_trajectories, block, draws",
    [(1, 4, 1), (10, 4, 7), (9, 3, 0), (8, 4, 3), (5, 1, 2), (3, 8, 5)],
)
def test_uniform_blocks_columns_are_contiguous(num_trajectories, block, draws):
    # The step reads one column per interval; each is contiguous in memory,
    # for a table of any consecutive part of the rows.
    for start in range(0, num_trajectories, block):
        count = min(block, num_trajectories - start)
        u = trajectory._uniform_table(5, start, count, draws)
        assert u.shape == (count, draws)
        assert all(u[:, k].flags.c_contiguous for k in range(draws))


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**63),
    block=st.integers(1, 4),
    num_trajectories=st.integers(1, 12),
    draws=st.integers(0, 20),
)
def test_uniform_blocks_rows_independent_of_block_size(seed, block, num_trajectories, draws):
    # Tables of consecutive parts of the rows, block rows each but the last,
    # stack to the table of all the rows.
    whole = trajectory._uniform_table(seed, 0, num_trajectories, draws)
    parts = [
        trajectory._uniform_table(seed, start, min(block, num_trajectories - start), draws)
        for start in range(0, num_trajectories, block)
    ]
    assert np.array_equal(np.concatenate(parts), whole)


def test_uniform_table_domain():
    with pytest.raises(DomainError):
        trajectory._uniform_table(-1, 0, 2, 3)
    with pytest.raises(DomainError):
        trajectory._uniform_table(7, 2**32, 1, 3)
    with pytest.raises(DomainError):
        trajectory._uniform_table(7, 2**32 - 1, 2, 3)
    last = trajectory._uniform_table(7, 2**32 - 1, 1, 3)
    assert np.array_equal(last[0], trajectory_rng(7, 2**32 - 1).random(3))


@settings(max_examples=60, deadline=None)
@given(
    seed=st.one_of(st.integers(0, 2**32 - 1), st.integers(2**96, 2**256)),
    index0=st.one_of(
        st.integers(0, 64),
        st.integers(8192 - 64, 8192 + 64),
        st.integers(2**32 - 128, 2**32 - 1),
    ),
    draws=st.integers(0, 120),
    data=st.data(),
)
def test_streamed_draws_match_numpy_and_the_table(seed, index0, draws, data):
    # Columns drawn one at a time into one reused buffer are every row's
    # numpy stream bit for bit, and the columns of _uniform_table: draws
    # taken one interval at a time, concatenated, equal one table.
    count = data.draw(st.integers(1, min(64, 2**32 - index0)), label="count")
    draw, out = trajectory._pcg64_streams(seed, index0, count), np.empty(count)
    columns = np.empty((draws, count))
    for column in columns:
        assert draw(out) is out
        column[...] = out
    expected = np.array([trajectory_rng(seed, index0 + b).random(draws) for b in range(count)])
    assert np.array_equal(columns.T, expected)
    assert np.array_equal(columns.T, trajectory._uniform_table(seed, index0, count, draws))


@pytest.mark.parametrize("num_qubits", [1, 2, 3])
@pytest.mark.parametrize("kind", sorted(_KERNELS))
def test_sample_ensemble_steps_the_tables_columns(kind, num_qubits):
    # The streamed draws give the states, jump counts and logs of stepping
    # the whole ensemble as one block over the columns of its _uniform_table.
    ch = _grid_channels(kind, num_qubits)
    psi0 = _random_state(np.random.default_rng(40 + num_qubits), ch.dim)
    m, dt, n_steps, seed = 10, 0.005, 200, 77
    stepper = BatchStepper(ch, dt)
    table = trajectory._uniform_table(seed, 0, m, n_steps)
    psi, ref_counts, ref_logs = StateBlock.shared(psi0, m), np.zeros(m, dtype=np.int64), []
    for step in range(n_steps):
        psi, jumped, channel = stepper.step(psi, table[:, step])
        ref_counts += jumped
        ref_logs += [(int(b), step * dt, int(channel[b])) for b in np.flatnonzero(jumped)]
    assert ref_counts.sum() > 0
    states, counts, logs = sample_ensemble(psi0, ch, n_steps * dt, dt, seed, m, collect_logs=True)
    assert states.tobytes() == psi.rows().tobytes()
    assert np.array_equal(counts, ref_counts)
    assert logs == sorted(ref_logs, key=lambda row: (row[0], row[1]))


def test_sample_ensemble_steps_once_per_interval_above_the_block():
    # 2 * 8192 + 1 trajectories take one step call per interval, not one
    # per block of 8192 rows.
    ch = _grid_channels("exponential", 1)
    m, dt, n_steps = 2 * 8192 + 1, 0.005, 3
    with mock.patch.object(BatchStepper, "step", autospec=True, side_effect=BatchStepper.step) as step:
        states, counts = sample_ensemble(PLUS, ch, n_steps * dt, dt, 5, m)
    assert step.call_count == n_steps
    assert all(call.args[2].shape == (m,) for call in step.call_args_list)
    assert states.shape == (m, ch.dim) and counts.shape == (m,)


def test_sample_ensemble_memory_does_not_grow_with_the_intervals():
    # 4096 rows at L = 1 over 40 and over 400 intervals: the traced peaks
    # differ by less than 1/8 of the (4096, 360) float64 table that 360 more
    # intervals' uniforms would take, and no mapped buffer, which tracemalloc
    # does not see, is larger than the block's (M, dim) states.
    ch = _grid_channels("exponential", 1)
    psi0 = _random_state(np.random.default_rng(43), ch.dim)
    m, dt, peaks = 4096, 0.005, []
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        for n_steps in (40, 400):
            tracemalloc.reset_peak()
            baseline = tracemalloc.get_traced_memory()[0]
            with _mapped_buffers() as mapped:
                sample_ensemble(psi0, ch, n_steps * dt, dt, 7, m)
            peaks.append(tracemalloc.get_traced_memory()[1] - baseline)
            assert max(mapped, default=0) <= m * ch.dim * 16
    finally:
        if not tracing:
            tracemalloc.stop()
    assert abs(peaks[1] - peaks[0]) < m * 360 * 8 / 8


def test_gamma_total_matches_channel_sum():
    # <psi|Gamma|psi> equals the summed per-channel probabilities on random
    # PSD rate matrices (with a nonzero shift B), for states and for blocks.
    # One eigenvalue sits below the inert threshold (1e-12 of the largest):
    # that channel must carry no weight in Gamma either.
    rng = np.random.default_rng(2024)
    for num_qubits in (1, 2, 3):
        n = 3 * num_qubits
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        h = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        q, _ = np.linalg.qr(g)
        xi = rng.uniform(0.1, 1.0, n)
        xi[0] = 1e-13
        a = (q * xi) @ q.conj().T
        ch = build_channels(noise_spec_direct(a, h + h.conj().T))
        assert np.count_nonzero(ch.inert) == 1
        dt = 0.002
        gamma = jump_rate_operator(ch, dt)
        block = np.stack([_random_state(rng, ch.dim) for _ in range(16)])
        totals = total_jump_probability(block, gamma)
        for psi, total in zip(block, totals):
            expected = build_first_order_channel(psi, ch, dt).probabilities[1:].sum()
            assert expected > 0.0
            assert abs(total - expected) <= 1e-14 * expected
            assert abs(total_jump_probability(psi, gamma) - expected) <= 1e-14 * expected


def test_batch_step_zero_uniform_skips_zero_probability_channels():
    # Channels in ascending rate order: z (inert), lowering (rate 0.5), raising
    # (rate 1).  On |0> the two leading channels have zero probability, so a
    # uniform of exactly 0.0 must jump into the raising channel, not annihilate.
    lower = np.array([1.0, 1.0j, 0.0]) / np.sqrt(2)
    raise_ = lower.conj()
    a = 0.5 * np.outer(lower.conj(), lower) + 1.0 * np.outer(raise_.conj(), raise_)
    ch = build_channels(noise_spec_direct(a))
    ground = np.array([1.0, 0.0], dtype=complex)
    p = build_first_order_channel(ground, ch, 0.01).probabilities[1:]
    assert p[0] == 0.0 and p[1] == 0.0 and p[2] > 0.0
    assert not ch.inert[1]
    block, jumped, channel = BatchStepper(ch, 0.01).step(
        np.stack([ground, ground]), np.array([0.0, 0.5])
    )
    psi = block.rows()
    assert jumped.tolist() == [True, False]
    assert channel[0] == 2
    np.testing.assert_allclose(psi[0], apply_jump(ground, ch, 2), atol=1e-15)
    np.testing.assert_allclose(np.abs(psi[0]), [0.0, 1.0], atol=1e-15)
    np.testing.assert_allclose(np.linalg.norm(psi, axis=1), 1.0, atol=1e-15)


def test_batch_step_gate():
    ch = _dephasing()
    block = np.stack([PLUS, PLUS])
    with pytest.raises(StepSizeError):
        BatchStepper(ch, 2 * SUM_P_GATE).step(block, np.array([0.5, 0.5]))
    BatchStepper(ch, 0.99 * SUM_P_GATE).step(block, np.array([0.5, 0.5]))


def test_first_order_gate_fails_on_nan():
    # NaN > SUM_P_GATE is False, so a NaN total used to pass the gate.
    for total in (math.nan, 2 * SUM_P_GATE):
        with pytest.raises(StepSizeError, match="first-order gate"):
            trajectory._check_gate(total, 0.01)
    trajectory._check_gate(SUM_P_GATE, 0.01)


def test_batch_step_rejects_a_non_finite_row():
    # A NaN norm used to pass the collapse gate (NaN <= 1e-12 is False), and
    # the step handed the NaN row back.
    stepper = BatchStepper(_dephasing(), 0.01)
    block = np.array([[1, 0], [np.nan, 0], [0, 1]], dtype=complex)
    with pytest.raises(SimulationError, match="collapsed or is not finite"):
        stepper.step(block, np.full(3, 0.5))


@pytest.mark.parametrize("num_qubits", [1, 2, 3])
@pytest.mark.parametrize("kind", sorted(_KERNELS))
def test_ensemble_bytes_with_numpy_row_norms(kind, num_qubits, monkeypatch):
    # The unraveling grid's kernels end to end: the states are the bytes of
    # a run whose step normalizes with np.linalg.norm itself.
    ch = _grid_channels(kind, num_qubits)
    psi0 = _random_state(np.random.default_rng(num_qubits), ch.dim)
    states, counts = sample_ensemble(psi0, ch, 0.2, 0.005, 2024, 300)
    monkeypatch.setattr(trajectory, "row_norms", lambda psi, scratch: np.linalg.norm(psi, axis=1))
    ref_states, ref_counts = sample_ensemble(psi0, ch, 0.2, 0.005, 2024, 300)
    assert counts.sum() > 0
    assert np.array_equal(counts, ref_counts)
    assert states.tobytes() == ref_states.tobytes()


def test_sample_ensemble_gate_and_argument_errors():
    ch = build_channels(integrate_kernel(exponential_kernel(2, correlation_length=1.0)))
    psi0 = _random_state(np.random.default_rng(8), 4)
    # unrescaled 2-qubit spec exceeds the 0.1 total-probability gate at dt = 0.02
    with pytest.raises(StepSizeError):
        sample_ensemble(psi0, ch, 0.1, 0.02, 7, 16)
    with pytest.raises(DomainError):
        sample_ensemble(psi0, ch, 0.1, 0.005, 7, 0)


# Every entry point that takes an interval length, called with `dt`.
TIME_STEP_ENTRY_POINTS = {
    "step_count": lambda ch, dt: step_count(1.0, dt),
    "step_count_total": lambda ch, dt: step_count(dt, 0.1),
    "sample_ensemble": lambda ch, dt: sample_ensemble(PLUS, ch, 1.0, dt, 7, 4),
    "jump_rate_operator": jump_rate_operator,
    "BatchStepper": BatchStepper,
    "build_first_order_channel": lambda ch, dt: build_first_order_channel(PLUS, ch, dt),
}


@pytest.mark.parametrize("entry", TIME_STEP_ENTRY_POINTS)
@pytest.mark.parametrize("dt", [math.inf, math.nan, -math.inf, -0.1])
def test_time_steps_must_be_finite(entry, dt):
    # delta_t = inf used to give zero intervals, and NaN a silent NaN probability
    with pytest.raises(DomainError, match="must be"):
        TIME_STEP_ENTRY_POINTS[entry](_dephasing(), dt)


def test_ensemble_density_validation():
    rho = ensemble_density(PLUS)
    np.testing.assert_allclose(rho, np.outer(PLUS, PLUS.conj()), atol=1e-14)
    with pytest.raises(DomainError):
        ensemble_density(np.empty((0, 2)))


def test_first_order_channel_noiseless():
    ch = build_channels(noise_spec_direct(np.zeros((3, 3))))
    fo = build_first_order_channel(PLUS, ch, 0.05)
    assert fo.probabilities[0] == pytest.approx(1.0, abs=1e-14)
    np.testing.assert_allclose(fo.operators[0], np.eye(2), atol=1e-14)
    np.testing.assert_allclose(fo.operators[1:], 0, atol=1e-14)


def test_first_order_channel_dephasing():
    ch = _dephasing()
    dt = 0.01
    fo = build_first_order_channel(PLUS, ch, dt)
    n = int(np.flatnonzero(~ch.inert)[0])
    assert fo.probabilities[n + 1] == pytest.approx(dt, abs=1e-14)
    assert fo.probabilities.sum() == pytest.approx(1.0, abs=1e-12)
    # the jump operator for a unitary channel is the bare sigma_z (phase-free modulus)
    sz = np.diag([1.0, -1.0])
    np.testing.assert_allclose(np.abs(fo.operators[n + 1]), np.abs(sz), atol=1e-12)


def test_first_order_channel_completeness():
    # sum p Q^dag Q = I + dt^2 H_eff^dag H_eff: halving dt shrinks the defect 4x (measured 4.00)
    spec = rescale_to_unit_max_rate(integrate_kernel(exponential_kernel(2, correlation_length=1.0)))
    ch = build_channels(spec)
    psi = _random_state(np.random.default_rng(8), 4)
    devs = []
    for dt in (0.02, 0.01):
        fo = build_first_order_channel(psi, ch, dt)
        acc = np.zeros((4, 4), dtype=complex)
        for p, q in zip(fo.probabilities, fo.operators):
            acc += p * (q.conj().T @ q)
        devs.append(np.abs(acc - np.eye(4)).max())
        assert fo.probabilities.sum() == pytest.approx(1.0, abs=1e-12)
    assert 3.4 < devs[0] / devs[1] < 4.5


def test_first_order_channel_validation():
    ops = np.stack([np.eye(2, dtype=complex), np.diag([1.0, -1.0]).astype(complex)])
    with pytest.raises(DomainError):
        FirstOrderChannel(delta_t=0.01, operators=ops, probabilities=[1.1, -0.1])
    with pytest.raises(DomainError):
        FirstOrderChannel(delta_t=0.01, operators=ops, probabilities=[0.7, 0.2])
    # NaN used to pass both probability checks (comparisons with NaN are False)
    for probs in ([math.nan, math.nan], [math.nan, 1.0], [1.0, math.nan], [math.inf, 0.0]):
        with pytest.raises(DomainError):
            FirstOrderChannel(delta_t=0.01, operators=ops, probabilities=probs)


def test_apply_first_order_channel_refuses_a_nan_output():
    ops = np.stack([np.full((2, 2), math.nan, dtype=complex), np.eye(2, dtype=complex)])
    channel = FirstOrderChannel(delta_t=0.01, operators=ops, probabilities=[0.5, 0.5])
    with pytest.raises(DomainError, match="non-finite trace"):
        trajectory.apply_first_order_channel(np.outer(PLUS, PLUS.conj()), channel)


@pytest.mark.parametrize("kind", sorted(_KERNELS))
@pytest.mark.parametrize("num_qubits", [1, 2, 3])
def test_first_order_channel_is_the_steppers_interval(kind, num_qubits):
    # Q_0 is the stepper's propagator K over sqrt(p_0), and p_n the bytes of
    # the step's own jump images, gated like a step.
    ch = _grid_channels(kind, num_qubits)
    psi = _random_state(np.random.default_rng(num_qubits), ch.dim)
    dt = 0.005
    fo = build_first_order_channel(psi, ch, dt)
    stepper = BatchStepper(ch, dt)
    q0 = stepper.prop / np.sqrt(fo.probabilities[0])
    assert fo.operators[0].tobytes() == q0.tobytes()
    _, p = trajectory._jump_images(psi[None], stepper.jump_ops, stepper.weights)
    assert fo.probabilities[1:].tobytes() == p[0].tobytes()
    assert fo.probabilities[0] == 1.0 - p[0].sum()


def test_first_order_channel_reference_state_errors():
    ch = _dephasing()
    with pytest.raises(DomainError, match="non-finite"):
        build_first_order_channel(np.array([math.nan, 0.0], dtype=complex), ch, 0.01)
    plus2 = np.full(4, 0.5, dtype=complex)
    with pytest.raises(DomainError, match="does not match dimension 2"):
        build_first_order_channel(plus2, ch, 0.01)


def test_degenerate_jump_basis_invariance():
    # equal-rate channels admit any unitary recombination; the unraveled
    # ensembles must agree within Monte Carlo error
    spec = integrate_kernel(independent_kernel(2, amplitude=0.5))
    cha = build_channels(spec)
    g = np.random.default_rng(99).standard_normal((6, 6)) + 1j * np.random.default_rng(
        100
    ).standard_normal((6, 6))
    q, r = np.linalg.qr(g)
    q = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
    chb = assemble_channel_set(spec, cha.eigenvalues, q.conj().T @ cha.U)
    np.testing.assert_allclose(cha.H_eff, chb.H_eff, atol=1e-12)

    psi0 = _random_state(np.random.default_rng(8), 4)
    sa, _ = sample_ensemble(psi0, cha, 0.5, 0.005, 777, 2000)
    sb, _ = sample_ensemble(psi0, chb, 0.5, 0.005, 777, 2000)
    assert trace_distance(ensemble_density(sa), ensemble_density(sb)) < 0.05
    # and both sit near the deterministic engine (measured 0.016)
    dens = evolve_exact(
        np.outer(psi0, psi0.conj()),
        cha,
        EvolutionConfig(dt_integrator=default_dt_integrator(cha), t_final=0.5),
    )
    assert trace_distance(ensemble_density(sa), dens) < 0.05
    assert trace_distance(ensemble_density(sb), dens) < 0.05


def test_unraveling_matches_density_engine():
    # single-spec consistency check at modest statistics
    spec = rescale_to_unit_max_rate(integrate_kernel(exponential_kernel(2, correlation_length=1.0)))
    ch = build_channels(spec)
    psi0 = _random_state(np.random.default_rng(8), 4)
    states, _ = sample_ensemble(psi0, ch, 0.5, 0.005, 1357, 4000)
    dens = evolve_exact(
        np.outer(psi0, psi0.conj()),
        ch,
        EvolutionConfig(dt_integrator=default_dt_integrator(ch), t_final=0.5),
    )
    assert trace_distance(ensemble_density(states), dens) < 0.04
