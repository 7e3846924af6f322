"""Density-matrix engine tests: RHS algebra, closed-form decays, RK4 behavior."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corrqec import lindblad
from corrqec.errors import DomainError, IntegrationError
from corrqec.lindblad import (
    EvolutionConfig,
    default_dt_integrator,
    evolve_exact,
    largest_exact_skip,
    lindblad_rhs,
)
from corrqec.noise import (
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
from corrqec.qecc import correction_channel, five_qubit_code
from corrqec.trajectory import apply_first_order_channel, build_first_order_channel


def _dephasing_channels(rate=1.0):
    # single qubit, one z channel with eigenvalue `rate` (defaults give A_zz = amplitude)
    return build_channels(integrate_kernel(collective_axis_kernel(1, axis=3, amplitude=rate)))


def _random_density(rng, dim):
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = m @ m.conj().T
    return rho / rho.trace()


def _plus_state(num_qubits):
    psi = np.full(2**num_qubits, 2.0 ** (-num_qubits / 2), dtype=complex)
    return np.outer(psi, psi.conj())


def _rhs_reference(rho, ch):
    # independent re-implementation of -i H rho + i rho H^dag + sum xi s rho s^dag
    out = -1j * (ch.H_eff @ rho - rho @ ch.H_eff.conj().T)
    for xi, s in zip(ch.eigenvalues, ch.jump_ops):
        out += xi * (s @ rho @ s.conj().T)
    return out


def test_rhs_matches_definition():
    ch = build_channels(integrate_kernel(exponential_kernel(2, correlation_length=1.5)))
    rng = np.random.default_rng(11)
    for _ in range(5):
        rho = _random_density(rng, 4)
        np.testing.assert_allclose(lindblad_rhs(rho, ch), _rhs_reference(rho, ch), atol=1e-12)


def test_jump_stacks_built_once_with_unchanged_values():
    # The cached stacks are the expressions the right-hand side used to
    # rebuild on every call, bit for bit, and cannot be written to.
    ch = build_channels(integrate_kernel(exponential_kernel(3, correlation_length=1.5)))
    s_left, s_right = ch.jump_stacks
    assert ch.jump_stacks[0] is s_left and ch.jump_stacks[1] is s_right
    scaled = np.sqrt(ch.eigenvalues)[:, None, None] * ch.jump_ops
    assert np.array_equal(s_left, scaled.reshape(-1, ch.dim))
    right = np.conjugate(scaled.transpose(0, 2, 1), order="C").reshape(-1, ch.dim)
    assert np.array_equal(s_right, right)
    with pytest.raises(ValueError):
        s_left[0, 0] = 1.0
    with pytest.raises(ValueError):
        s_right[0, 0] = 1.0


@pytest.mark.parametrize(
    "kernel, zero_blocks",
    [
        (collective_axis_kernel(5, axis=3, amplitude=0.2), 14),
        (exponential_kernel(5, correlation_length=2.0, axis=3, tau_c=0.05, g1=1.0), 6),
        (exponential_kernel(3, correlation_length=1.5), 0),
        (collective_axis_kernel(1, axis=3, amplitude=0.2), 2),
        (independent_kernel(1), 0),
        (exponential_kernel(2, correlation_length=2.0, axis=3), 4),
        (lowering_kernel(3), 6),
        (independent_kernel(5), 0),
    ],
)
def test_rhs_skips_exactly_zero_blocks_bit_for_bit(kernel, zero_blocks):
    # The first product writes only the span of stack blocks that are not
    # exactly zero (zero-rate channels, clipped from negative roundoff, come
    # first) into the block row; the result equals the transposed product
    # over the whole stack.
    ch = build_channels(rescale_to_unit_max_rate(integrate_kernel(kernel)))
    s_left, s_right = ch.jump_stacks
    d = ch.dim
    zero = ~s_left.reshape(-1, d * d).any(axis=1)
    assert zero[:zero_blocks].all() and not zero[zero_blocks:].any()
    assert ch._live_blocks == slice(zero_blocks, ch.num_channels)
    assert ch._live_blocks is ch._live_blocks
    rng = np.random.default_rng(4)
    for _ in range(3):
        rho = _random_density(rng, d)
        full = -1j * (ch.H_eff @ rho - rho @ ch.H_eff.conj().T)
        s_rho = (s_left @ rho).reshape(-1, d, d).transpose(1, 0, 2).reshape(d, -1)
        full += s_rho @ s_right
        assert np.array_equal(lindblad_rhs(rho, ch), full)


def _full_product_rhs(rho, ch):
    # The right-hand side with the second product over its full n*d inner dimension.
    s_left, s_right = ch.jump_stacks
    d = ch.dim
    out = -1j * (ch.H_eff @ rho - rho @ ch.H_eff.conj().T)
    out += (s_left @ rho).reshape(-1, d, d).transpose(1, 0, 2).reshape(d, -1) @ s_right
    return out


# Scales of the entries drawn below: exact zeros, subnormals, order one, and
# values large enough that a product of K <= 480 terms stays finite.
_ENTRY_SCALES = {"zero": 0.0, "subnormal": 1e-310, "unit": 1.0, "huge": 1e150}


@settings(max_examples=40, deadline=None)
@given(
    num_qubits=st.integers(1, 5),
    seed=st.integers(0, 2**32 - 1),
    scales=st.sets(st.sampled_from(sorted(_ENTRY_SCALES)), min_size=1),
    zero_rows=st.booleans(),
    zero_right_prefix=st.booleans(),
)
def test_largest_exact_skip_keeps_product_bytes(
    num_qubits, seed, scales, zero_rows, zero_right_prefix
):
    # For every zero prefix of the (d, n, d) block row, dropping the skip the
    # helper chose gives the bytes of the full product.  Entries mix the
    # drawn scales.  Whole rows of signed zeros (s_n rho of a state with a
    # zero row) and signed zeros in the right stack's prefix (the zero-rate
    # channels' rows) make exactly-zero sums, whose sign is data-dependent.
    d, n = 2**num_qubits, 3 * num_qubits
    rng = np.random.default_rng(seed)
    table = np.array([_ENTRY_SCALES[name] for name in sorted(scales)])

    def draw(*shape):
        parts = rng.standard_normal((2, *shape)) * rng.choice(table, size=(2, *shape))
        return parts[0] + 1j * parts[1]

    def signed_zeros(values):
        return np.copysign(0.0, values.view(float)).view(complex)

    for zero_blocks in range(n + 1):
        skip = largest_exact_skip(d, n, zero_blocks)
        assert skip % d == 0 and 0 <= skip <= zero_blocks * d
        block_row = np.zeros((d, n, d), dtype=complex)
        block_row[:, zero_blocks:] = draw(d, n - zero_blocks, d)
        if zero_rows:
            rows = rng.random(d) < 0.5
            block_row[rows, zero_blocks:] = signed_zeros(block_row[rows, zero_blocks:])
        flat = block_row.reshape(d, n * d)
        right = draw(n * d, d)
        if zero_right_prefix:
            right[: zero_blocks * d] = signed_zeros(right[: zero_blocks * d])
        full = flat @ right
        assert np.isfinite(full).all()
        assert (flat[:, skip:] @ right[skip:]).tobytes() == full.tobytes()


def test_exact_skip_probed_once_per_channel_shape(monkeypatch):
    # The probe runs at the first right-hand side built for a shape, not when
    # the channels are built, and a second one reuses its answer.
    probes = []
    probe = lindblad._skip_is_exact

    def counting(*args):
        probes.append(args)
        return probe(*args)

    monkeypatch.setattr(lindblad, "_skip_is_exact", counting)
    largest_exact_skip.cache_clear()
    kernel = collective_axis_kernel(3, axis=3, amplitude=0.2)
    ch = build_channels(rescale_to_unit_max_rate(integrate_kernel(kernel)))
    assert probes == []
    rho = _random_density(np.random.default_rng(5), ch.dim)
    first = lindblad_rhs(rho, ch)
    assert probes
    count = len(probes)
    second = lindblad_rhs(rho, ch)
    assert len(probes) == count
    assert first.tobytes() == second.tobytes() == _full_product_rhs(rho, ch).tobytes()


@pytest.mark.parametrize("num_qubits", [1, 3, 5])
def test_silent_spec_rhs_matches_full_product(num_qubits):
    ch = build_channels(noise_spec_direct(np.zeros((3 * num_qubits, 3 * num_qubits))))
    assert ch._live_blocks == slice(0, 0)
    rng = np.random.default_rng(6)
    rho = _random_density(rng, ch.dim)
    assert lindblad_rhs(rho, ch).tobytes() == _full_product_rhs(rho, ch).tobytes()


def test_exact_skip_on_d16_panel_shapes():
    # At d=16, n=12 (K=192) this OpenBLAS sums K in two 96-column panels.
    # An 80-column zero prefix ends inside the first, so no block-aligned
    # skip keeps the bytes; prefixes that reach into the last, 176 columns
    # or the 160 of collective z dephasing at L=4 (one inert and one live
    # channel follow), are dropped whole.
    assert largest_exact_skip(16, 12, 5) == 0
    assert largest_exact_skip(16, 12, 11) == 176
    kernel = collective_axis_kernel(4, axis=3, amplitude=0.2)
    ch = build_channels(rescale_to_unit_max_rate(integrate_kernel(kernel)))
    assert ch._live_blocks == slice(10, 12)
    assert largest_exact_skip(ch.dim, ch.num_channels, 10) == 160
    rng = np.random.default_rng(7)
    for _ in range(3):
        rho = _random_density(rng, ch.dim)
        assert lindblad_rhs(rho, ch).tobytes() == _full_product_rhs(rho, ch).tobytes()


def test_evolve_reuses_one_block_row():
    # A warm evolve_exact at L=5 allocates its (d, n, d) block row once and
    # writes every stage into it.  Ten steps peak at 1.68 rows above their
    # baseline: that row and (d, d) temporaries.  A fresh row and its
    # transposed copy on every right-hand side peaked at 2.54 rows.
    ch = build_channels(rescale_to_unit_max_rate(integrate_kernel(exponential_kernel(5))))
    block_row_bytes = ch.num_channels * ch.dim * ch.dim * 16
    rho0 = _plus_state(5)
    cfg = EvolutionConfig(dt_integrator=1e-3, t_final=0.01)
    evolve_exact(rho0, ch, cfg)
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        baseline = tracemalloc.get_traced_memory()[0]
        evolve_exact(rho0, ch, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak - baseline - block_row_bytes < block_row_bytes


def test_interleaved_evolutions_match_lone_runs():
    # Each evolve_exact call owns its block row.  The two sets share a
    # dimension, one with zero blocks and one without, so a row shared
    # between them would carry the second set's blocks into the first.
    kernels = (collective_axis_kernel(3, axis=3, amplitude=0.2), exponential_kernel(3))
    sets = [build_channels(rescale_to_unit_max_rate(integrate_kernel(k))) for k in kernels]
    rng = np.random.default_rng(9)
    starts = [_random_density(rng, 8) for _ in range(3)]
    cfg = EvolutionConfig(dt_integrator=1e-2, t_final=0.05)
    alone = [[evolve_exact(rho, ch, cfg) for rho in starts] for ch in sets]
    for j, rho in enumerate(starts):
        for i, ch in enumerate(sets):
            assert np.array_equal(evolve_exact(rho, ch, cfg), alone[i][j])


def _random_mixed_density(rng, dim):
    # Random rank, so pure and rank-deficient states are drawn too.
    rank = int(rng.integers(1, dim + 1))
    m = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    rho = m @ m.conj().T
    return rho / rho.trace()


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), num_qubits=st.integers(1, 5))
def test_rhs_property_random_noise(seed, num_qubits):
    # Random PSD A (random rank, largest rate 1) and Hermitian B: the RHS
    # equals the per-channel definition, is traceless and Hermitian.
    rng = np.random.default_rng(seed)
    n = 3 * num_qubits
    rank = int(rng.integers(1, n + 1))
    g = rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank))
    a = g @ g.conj().T
    a /= np.linalg.eigvalsh(a).max()
    h = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    ch = build_channels(noise_spec_direct(a, 0.5 * (h + h.conj().T) / np.sqrt(n)))
    rho = _random_mixed_density(rng, ch.dim)
    out = lindblad_rhs(rho, ch)
    np.testing.assert_allclose(out, _rhs_reference(rho, ch), rtol=0, atol=1e-12)
    assert abs(out.trace()) < 1e-12
    np.testing.assert_allclose(out, out.conj().T, rtol=0, atol=1e-12)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_correction_channel_preserves_trace_property(seed):
    code = five_qubit_code()
    rho = _random_mixed_density(np.random.default_rng(seed), code.dim)
    out = correction_channel(rho, code)
    assert abs(out.trace() - 1.0) < 1e-12
    np.testing.assert_allclose(out, out.conj().T, rtol=0, atol=1e-12)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), num_qubits=st.integers(1, 5))
def test_rhs_independent_of_degenerate_basis(seed, num_qubits):
    # Independent noise has A = I: all 3L rates are equal, so any unitary
    # mix of the jump operators describes the same dissipator.
    ch = build_channels(integrate_kernel(independent_kernel(num_qubits)))
    np.testing.assert_allclose(ch.eigenvalues, 1.0, rtol=0, atol=1e-12)
    rng = np.random.default_rng(seed)
    n = 3 * num_qubits
    v, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    rotated = dataclasses.replace(
        ch, U=v @ ch.U, jump_ops=np.einsum("nm,mij->nij", v, ch.jump_ops)
    )
    rho = _random_mixed_density(rng, ch.dim)
    np.testing.assert_allclose(
        lindblad_rhs(rho, rotated), lindblad_rhs(rho, ch), rtol=0, atol=1e-12
    )


def test_rhs_traceless_and_hermiticity_preserving():
    ch = build_channels(integrate_kernel(exponential_kernel(2)))
    rng = np.random.default_rng(23)
    for _ in range(5):
        out = lindblad_rhs(_random_density(rng, 4), ch)
        assert abs(out.trace()) < 1e-10
        np.testing.assert_allclose(out, out.conj().T, atol=1e-10)


def test_rhs_dephasing_off_diagonal():
    # pure z dephasing at rate xi: d rho01 / dt = -2 xi rho01, populations frozen
    ch = _dephasing_channels(rate=1.0)
    rng = np.random.default_rng(5)
    rho = _random_density(rng, 2)
    out = lindblad_rhs(rho, ch)
    assert abs(out[0, 1] - (-2.0) * rho[0, 1]) < 1e-10
    assert abs(out[0, 0]) < 1e-12 and abs(out[1, 1]) < 1e-12


def test_rhs_maximally_mixed_fixed_point():
    # Pauli-combination jump operators are normal, so I/d is stationary
    for ch in (
        build_channels(integrate_kernel(independent_kernel(2))),
        build_channels(integrate_kernel(exponential_kernel(2, correlation_length=2.0))),
    ):
        out = lindblad_rhs(np.eye(4, dtype=complex) / 4.0, ch)
        np.testing.assert_allclose(out, 0, atol=1e-12)


def test_rhs_pure_shift_is_commutator():
    # A = 0 with an antisymmetric-imaginary xy block: H = -b sigma_z, no dissipation
    b = 0.3
    B = np.zeros((3, 3), dtype=complex)
    B[0, 1] = 1j * b
    B[1, 0] = -1j * b
    ch = build_channels(noise_spec_direct(np.zeros((3, 3)), B))
    sz = np.diag([1.0, -1.0]).astype(complex)
    h = -b * sz
    np.testing.assert_allclose(ch.H_eff, h, atol=1e-12)
    rng = np.random.default_rng(7)
    rho = _random_density(rng, 2)
    np.testing.assert_allclose(lindblad_rhs(rho, ch), -1j * (h @ rho - rho @ h), atol=1e-12)


def test_pure_shift_unitary_evolution():
    b = 0.3
    B = np.zeros((3, 3), dtype=complex)
    B[0, 1] = 1j * b
    B[1, 0] = -1j * b
    ch = build_channels(noise_spec_direct(np.zeros((3, 3)), B))
    rho0 = _plus_state(1)
    t = 1.0
    out = evolve_exact(rho0, ch, EvolutionConfig(dt_integrator=1e-3, t_final=t))
    # H_eff is Hermitian here (no jumps), so exp(-i H_eff t) comes from its eigenbasis
    w, v = np.linalg.eigh(ch.H_eff)
    u = (v * np.exp(-1j * w * t)) @ v.conj().T
    np.testing.assert_allclose(out, u @ rho0 @ u.conj().T, atol=1e-9)


def test_rhs_shape_mismatch_raises():
    ch = build_channels(integrate_kernel(exponential_kernel(2)))
    with pytest.raises(DomainError):
        lindblad_rhs(np.eye(2, dtype=complex) / 2.0, ch)
    with pytest.raises(DomainError):
        evolve_exact(
            np.eye(2, dtype=complex) / 2.0, ch, EvolutionConfig(dt_integrator=0.1, t_final=0.1)
        )


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_density_matrices_are_refused(bad):
    # evolve_exact used to return all-NaN, correction_channel NaN, and
    # apply_first_order_channel NaN with a RuntimeWarning
    ch = build_channels(integrate_kernel(exponential_kernel(1)))
    rho = _plus_state(1)
    rho[0, 1] = bad
    with pytest.raises(DomainError, match="non-finite"):
        evolve_exact(rho, ch, EvolutionConfig(dt_integrator=0.1, t_final=0.1))
    with pytest.raises(DomainError, match="non-finite"):
        lindblad_rhs(rho, ch)
    psi = np.array([1, 1], dtype=complex) / np.sqrt(2)
    with pytest.raises(DomainError, match="non-finite"):
        apply_first_order_channel(rho, build_first_order_channel(psi, ch, 0.01))
    code = five_qubit_code()
    rho_code = _plus_state(5)
    rho_code[3, 3] = bad
    with pytest.raises(DomainError, match="non-finite"):
        correction_channel(rho_code, code)


def test_apply_first_order_channel_checks_dimension():
    ch = build_channels(integrate_kernel(exponential_kernel(1)))
    channel = build_first_order_channel(np.array([1, 0], dtype=complex), ch, 0.01)
    with pytest.raises(DomainError, match="does not match dimension 2"):
        apply_first_order_channel(_plus_state(2), channel)


def test_trace_drift_gate_fails_on_nan(monkeypatch):
    # a NaN trace used to pass the drift gate (NaN >= 1e-7 is False)
    ch = build_channels(integrate_kernel(exponential_kernel(1)))
    monkeypatch.setattr(lindblad, "_rhs", lambda ch: lambda rho: np.full_like(rho, math.nan))
    with pytest.raises(IntegrationError, match="trace drift nan"):
        evolve_exact(_plus_state(1), ch, EvolutionConfig(dt_integrator=0.1, t_final=0.1))


def test_evolution_config_validation():
    with pytest.raises(DomainError):
        EvolutionConfig(dt_integrator=0.0, t_final=1.0)
    with pytest.raises(DomainError):
        EvolutionConfig(dt_integrator=0.1, t_final=-1.0)


@pytest.mark.parametrize(
    "dt_integrator, t_final",
    [(1e-3, math.nan), (1e-3, math.inf), (math.inf, 1.0), (math.nan, 1.0), (-math.inf, 1.0)],
)
def test_evolution_config_rejects_non_finite(dt_integrator, t_final):
    # Unchecked, a NaN or infinite t_final reaches evolve_exact's step count
    # as a bare ValueError, and an infinite step integrates in one RK4 step.
    with pytest.raises(DomainError):
        EvolutionConfig(dt_integrator=dt_integrator, t_final=t_final)


def test_default_dt_targets_unit_rate_exposure():
    ch = _dephasing_channels(rate=1.0)
    assert default_dt_integrator(ch) == pytest.approx(1e-3)
    ch4 = _dephasing_channels(rate=4.0)
    assert default_dt_integrator(ch4) == pytest.approx(2.5e-4)
    inert = build_channels(noise_spec_direct(np.zeros((3, 3))))
    assert default_dt_integrator(inert) == pytest.approx(1e-3)


def test_dephasing_closed_form():
    # coherence of |+><+| decays as 0.5 exp(-2 xi t)
    ch = _dephasing_channels(rate=1.0)
    rho0 = _plus_state(1)
    t = 0.5
    out = evolve_exact(rho0, ch, EvolutionConfig(dt_integrator=default_dt_integrator(ch), t_final=t))
    assert abs(out[0, 1].real - 0.5 * np.exp(-2 * t)) < 1e-6
    assert abs(out[0, 0].real - 0.5) < 1e-9


def test_lowering_closed_form():
    # sqrt(2)|0><1| at eigenvalue 1 empties the excited state as exp(-2t)
    ch = build_channels(integrate_kernel(lowering_kernel(1)))
    rho0 = np.diag([0.0, 1.0]).astype(complex)
    t = 1.0
    out = evolve_exact(rho0, ch, EvolutionConfig(dt_integrator=default_dt_integrator(ch), t_final=t))
    assert abs(out[1, 1].real - np.exp(-2 * t)) < 1e-6
    assert abs(out[0, 0].real - (1 - np.exp(-2 * t))) < 1e-6


def test_noiseless_evolution_is_identity():
    ch = build_channels(noise_spec_direct(np.zeros((6, 6))))
    rng = np.random.default_rng(31)
    rho0 = _random_density(rng, 4)
    out = evolve_exact(rho0, ch, EvolutionConfig(dt_integrator=1e-2, t_final=1.0))
    np.testing.assert_allclose(out, rho0, atol=1e-12)


def test_semigroup_property():
    ch = build_channels(integrate_kernel(exponential_kernel(2, correlation_length=1.0)))
    rho0 = _plus_state(2)
    dt = default_dt_integrator(ch)
    full = evolve_exact(rho0, ch, EvolutionConfig(dt_integrator=dt, t_final=0.5))
    part = evolve_exact(rho0, ch, EvolutionConfig(dt_integrator=dt, t_final=0.3))
    part = evolve_exact(part, ch, EvolutionConfig(dt_integrator=dt, t_final=0.2))
    np.testing.assert_allclose(full, part, atol=1e-7)


def test_purity_non_increasing():
    for kernel in (collective_axis_kernel(2, axis=3, amplitude=0.5), independent_kernel(2, amplitude=0.5)):
        ch = build_channels(integrate_kernel(kernel))
        # ten chained legs of t = 0.1 sample the purity on the way to t = 1
        rho = _plus_state(2)
        purity = [float((rho @ rho).trace().real)]
        for _ in range(10):
            rho = evolve_exact(rho, ch, EvolutionConfig(dt_integrator=1e-3, t_final=0.1))
            purity.append(float((rho @ rho).trace().real))
        for earlier, later in zip(purity, purity[1:]):
            assert later <= earlier + 1e-10


def test_rk4_fourth_order_convergence():
    ch = _dephasing_channels(rate=1.0)
    rho0 = _plus_state(1)
    t = 0.5
    exact = 0.5 * np.exp(-2 * t)
    errs = []
    for dt in (0.05, 0.025):
        out = evolve_exact(rho0, ch, EvolutionConfig(dt_integrator=dt, t_final=t))
        errs.append(abs(out[0, 1].real - exact))
    # halving dt should shrink the error ~16x; measured 16.7
    assert 12.0 < errs[0] / errs[1] < 20.0


def test_unstable_step_loses_positivity():
    # z = -2*dt = -4 puts the coherence mode outside the RK4 stability region
    ch = _dephasing_channels(rate=1.0)
    with pytest.raises(IntegrationError, match="positivity"):
        evolve_exact(_plus_state(1), ch, EvolutionConfig(dt_integrator=2.0, t_final=4.0))


def test_runaway_trace_drift_aborts():
    # same instability on a population mode: amplified roundoff trips the trace gate
    ch = build_channels(integrate_kernel(lowering_kernel(1)))
    rho0 = np.diag([0.0, 1.0]).astype(complex)
    with pytest.raises(IntegrationError, match="trace drift"):
        evolve_exact(rho0, ch, EvolutionConfig(dt_integrator=2.0, t_final=40.0))


def test_first_order_channel_identity_at_zero_dt():
    ch = build_channels(integrate_kernel(exponential_kernel(2)))
    psi = np.zeros(4, dtype=complex)
    psi[0] = 1 / np.sqrt(2)
    psi[3] = 1j / np.sqrt(2)
    rho = np.outer(psi, psi.conj())
    out = apply_first_order_channel(rho, build_first_order_channel(psi, ch, 0.0))
    np.testing.assert_allclose(out, rho, atol=1e-14)


def test_first_order_channel_dephasing_linear_decay():
    ch = _dephasing_channels(rate=1.0)
    psi = np.array([1, 1], dtype=complex) / np.sqrt(2)
    rho = np.outer(psi, psi.conj())
    dt = 0.005
    out = apply_first_order_channel(rho, build_first_order_channel(psi, ch, dt))
    assert abs(out[0, 1].real - 0.5 * (1 - 2 * dt)) < 1e-4


def test_first_order_channel_second_order_accuracy():
    # halving dt should shrink the channel-vs-integrator distance ~4x; measured 3.84
    spec = rescale_to_unit_max_rate(integrate_kernel(exponential_kernel(2, correlation_length=1.0)))
    ch = build_channels(spec)
    psi = np.zeros(4, dtype=complex)
    psi[0] = 1 / np.sqrt(2)
    psi[3] = 1j / np.sqrt(2)
    rho = np.outer(psi, psi.conj())
    dists = []
    for dt in (0.02, 0.01):
        approx = apply_first_order_channel(rho, build_first_order_channel(psi, ch, dt))
        exact = evolve_exact(rho, ch, EvolutionConfig(dt_integrator=dt / 40, t_final=dt))
        dists.append(trace_distance(approx, exact))
    assert 3.2 < dists[0] / dists[1] < 4.5
