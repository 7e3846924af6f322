"""Density-matrix engine tests: RHS algebra, closed-form decays, RK4 behavior."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corrqec.errors import DomainError, IntegrationError
from corrqec.lindblad import (
    EvolutionConfig,
    default_dt_integrator,
    evolve_exact,
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
from corrqec.operators import matrix_exponential, trace_distance
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
    u = matrix_exponential(ch.H_eff, -1j * t)
    np.testing.assert_allclose(out, u @ rho0 @ u.conj().T, atol=1e-9)


def test_rhs_shape_mismatch_raises():
    ch = build_channels(integrate_kernel(exponential_kernel(2)))
    with pytest.raises(DomainError):
        lindblad_rhs(np.eye(2, dtype=complex) / 2.0, ch)
    with pytest.raises(DomainError):
        evolve_exact(
            np.eye(2, dtype=complex) / 2.0, ch, EvolutionConfig(dt_integrator=0.1, t_final=0.1)
        )


def test_evolution_config_validation():
    with pytest.raises(DomainError):
        EvolutionConfig(dt_integrator=0.0, t_final=1.0)
    with pytest.raises(DomainError):
        EvolutionConfig(dt_integrator=0.1, t_final=-1.0)


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
    # halving dt should shrink the channel-vs-integrator distance ~4x; measured 3.76
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
