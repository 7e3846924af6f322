"""Stochastic unraveling tests: jump statistics, determinism, batch equivalence."""

import functools
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
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
from corrqec.operators import trace_distance
from corrqec.trajectory import (
    SUM_P_GATE,
    BatchStepper,
    FirstOrderChannel,
    build_first_order_channel,
    ensemble_density,
    jump_probabilities,
    jump_rate_operator,
    sample_ensemble,
    total_jump_probability,
    uniform_blocks,
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
    p = jump_probabilities(PLUS, ch, 0.01)
    assert p.sum() == pytest.approx(0.01, abs=1e-14)
    assert np.count_nonzero(p) == 1
    rng = np.random.default_rng(3)
    p2 = jump_probabilities(_random_state(rng, 2), ch, 0.01)
    assert p2.sum() == pytest.approx(0.01, abs=1e-14)


def test_jump_probabilities_lowering_ground_state():
    ch = build_channels(integrate_kernel(lowering_kernel(1)))
    ground = np.array([1, 0], dtype=complex)
    excited = np.array([0, 1], dtype=complex)
    assert jump_probabilities(ground, ch, 0.01).sum() == pytest.approx(0.0, abs=1e-14)
    # s = sqrt(2)|0><1| gives <s^dag s> = 2 on the excited state
    assert jump_probabilities(excited, ch, 0.01).sum() == pytest.approx(0.02, abs=1e-14)


def test_jump_probabilities_collective_z_plus_states():
    # xi = 0.6 with s = sum sigma_z / sqrt(3); on |+++> the cross terms average
    # out and <s^dag s> = 1, so the total is 0.6 * 0.01 * 1 = 0.006
    ch = build_channels(integrate_kernel(collective_axis_kernel(3, axis=3, amplitude=0.2)))
    plus3 = np.full(8, 8.0**-0.5, dtype=complex)
    p = jump_probabilities(plus3, ch, 0.01)
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
        jump_probabilities(PLUS, ch, 2 * SUM_P_GATE)
    # just under the gate passes
    jump_probabilities(PLUS, ch, 0.99 * SUM_P_GATE)


def test_jump_probabilities_shape_and_sign_errors():
    ch = _dephasing()
    with pytest.raises(DomainError):
        jump_probabilities(np.ones(4, dtype=complex) / 2, ch, 0.01)
    with pytest.raises(DomainError):
        jump_probabilities(PLUS, ch, -0.01)


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
    np.testing.assert_allclose(psi[0], PLUS, atol=1e-14)
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
    np.testing.assert_allclose(psi[0], PLUS, atol=1e-14)


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
        p = jump_probabilities(psi, ch, delta_t)
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


def _reference_step(stepper, psi, u):
    # BatchStepper.step written with fresh temporaries, as it was before the
    # step reused its buffers; psi is left as it was.
    total = np.einsum("...k,...k->...", psi.view(float), (psi @ stepper.gamma.T).view(float))
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
    psi = np.stack([_random_state(rng, ch.dim) for _ in range(num_rows)])
    basis = rng.random(num_rows) < 0.25
    psi[basis] = np.eye(ch.dim)[rng.integers(ch.dim, size=np.count_nonzero(basis))]
    for _ in range(steps):
        total = total_jump_probability(psi, stepper.gamma)
        draw = rng.integers(3, size=num_rows)
        u = np.select([draw == 0, draw == 1], [rng.random(num_rows), 0.0], rng.random(num_rows) * total)
        try:
            expected = _reference_step(stepper, psi, u)
        except SimulationError:
            # A forced jump out of a state whose total is roundoff annihilates
            # it; both steps must say so.
            with pytest.raises(SimulationError):
                stepper.step(psi, u)
            return
        psi, jumped, channel = stepper.step(psi, u)
        assert np.array_equal(psi, expected[0])
        assert np.array_equal(jumped, expected[1])
        assert np.array_equal(channel, expected[2])


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
        for u in uniforms[3:]:
            psi, _, _ = stepper.step(psi, u)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak - baseline < 0.5 * psi.nbytes


def test_samplers_leave_caller_arrays_untouched():
    ch = _grid_channels("exponential", 2)
    psi0 = _random_state(np.random.default_rng(12), ch.dim)
    before = psi0.copy()
    sample_ensemble(psi0, ch, 0.1, 0.005, 3, 5)
    jump_probabilities(psi0, ch, 0.005)
    assert np.array_equal(psi0, before)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(sorted(_KERNELS)),
    num_qubits=st.integers(1, 3),
    num_trajectories=st.integers(1, 6),
    block=st.integers(1, 4),
)
def test_batch_equals_sequential_property(seed, kind, num_qubits, num_trajectories, block):
    # Same jump log and state for every trajectory whether it is stepped in a
    # block (split into blocks of `block` rows) or by the loop sampler.
    ch = _grid_channels(kind, num_qubits)
    psi0 = _random_state(np.random.default_rng(seed), ch.dim)
    dt, n_steps = 0.005, 60
    with mock.patch.object(trajectory, "_BLOCK", block):
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
    seed=st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**63)),
    index0=st.one_of(
        st.integers(0, 64),
        st.integers(trajectory._BLOCK - 64, trajectory._BLOCK),
        st.integers(2**32 - 128, 2**32 - 64),
    ),
    count=st.integers(1, 64),
    draws=st.integers(0, 300),
    data=st.data(),
)
def test_uniform_table_matches_numpy_streams(seed, index0, count, draws, data):
    # Row b is trajectory index0 + b's numpy stream, bit for bit.  Seeds of
    # 2^32 and above enter SeedSequence as several words.
    table = trajectory._uniform_table(seed, index0, count, draws)
    assert table.shape == (count, draws) and table.dtype == np.float64
    expected = np.array([trajectory_rng(seed, index0 + b).random(draws) for b in range(count)])
    assert np.array_equal(table, expected)
    # A row's first k draws do not depend on how many are drawn: a sweep's
    # points read prefixes of one table.
    k = data.draw(st.integers(0, draws), label="k")
    assert np.array_equal(table[:, :k], trajectory._uniform_table(seed, index0, count, k))


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**63),
    block=st.integers(1, 4),
    num_trajectories=st.integers(1, 12),
    draws=st.integers(0, 20),
)
def test_uniform_blocks_rows_independent_of_block_size(seed, block, num_trajectories, draws):
    whole = trajectory._uniform_table(seed, 0, num_trajectories, draws)
    with mock.patch.object(trajectory, "_BLOCK", block):
        blocks = list(uniform_blocks(seed, num_trajectories, draws))
    assert [start for start, _ in blocks] == list(range(0, num_trajectories, block))
    assert np.array_equal(np.concatenate([u for _, u in blocks]), whole)


def test_uniform_table_domain():
    with pytest.raises(DomainError):
        trajectory._uniform_table(-1, 0, 2, 3)
    with pytest.raises(DomainError):
        trajectory._uniform_table(7, 2**32, 1, 3)
    with pytest.raises(DomainError):
        trajectory._uniform_table(7, 2**32 - 1, 2, 3)
    last = trajectory._uniform_table(7, 2**32 - 1, 1, 3)
    assert np.array_equal(last[0], trajectory_rng(7, 2**32 - 1).random(3))


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
            expected = jump_probabilities(psi, ch, dt).sum()
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
    p = jump_probabilities(ground, ch, 0.01)
    assert p[0] == 0.0 and p[1] == 0.0 and p[2] > 0.0
    assert not ch.inert[1]
    psi, jumped, channel = BatchStepper(ch, 0.01).step(
        np.stack([ground, ground]), np.array([0.0, 0.5])
    )
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


def test_sample_ensemble_gate_and_argument_errors():
    ch = build_channels(integrate_kernel(exponential_kernel(2, correlation_length=1.0)))
    psi0 = _random_state(np.random.default_rng(8), 4)
    # unrescaled 2-qubit spec exceeds the 0.1 total-probability gate at dt = 0.02
    with pytest.raises(StepSizeError):
        sample_ensemble(psi0, ch, 0.1, 0.02, 7, 16)
    with pytest.raises(DomainError):
        sample_ensemble(psi0, ch, 0.1, 0.005, 7, 0)


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
    # sum p Q^dag Q = I + O(dt^2): halving dt shrinks the defect ~4x (measured 3.94)
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
