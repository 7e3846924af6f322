"""Kernel integration, channel construction, and dissipator invariance.

The quadrature oracle integrates the time kernel numerically instead of
trusting the closed form; eigenvector-dependent quantities are only checked
through basis-invariant observables.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corrqec.config import parse_config
from corrqec.errors import ConfigError, DomainError, ResourceError
from corrqec.noise import (
    LOWERING_BLOCK,
    CorrelationKernel,
    DirectNoise,
    NoiseSpec,
    assemble_channel_set,
    build_channels,
    collective_axis_kernel,
    cross_axis_kernel,
    exponential_kernel,
    independent_kernel,
    integrate_kernel,
    lowering_kernel,
    max_rate,
    noise_spec_direct,
    rescale_to_unit_max_rate,
)
from corrqec.operators import (
    AXIS_Z,
    HERM_TOL,
    MAX_QUBITS,
    axis_block,
    pauli_operator,
    psd_eigensystem,
)


def _channel_index(qubit, axis):
    # the flat (qubit, axis) channel index, written out as the oracle
    return 3 * (qubit - 1) + (axis - 1)


def test_independent_kernel_closed_form():
    # a=1, tau_c=0.5, g1=1: integral of a*exp(-|tau|/tau_c) is 2*tau_c*a = 1
    spec = integrate_kernel(independent_kernel(2, amplitude=1.0, tau_c=0.5, g1=1.0))
    np.testing.assert_allclose(spec.A, np.eye(6), atol=1e-12)
    np.testing.assert_allclose(spec.B, 0.0, atol=1e-15)


def test_collective_z_kernel_closed_form():
    spec = integrate_kernel(collective_axis_kernel(3, AXIS_Z, amplitude=0.2))
    expected = np.zeros((9, 9), dtype=complex)
    for l in range(1, 4):
        for lp in range(1, 4):
            expected[_channel_index(lp, AXIS_Z), _channel_index(l, AXIS_Z)] = 0.2
    np.testing.assert_allclose(spec.A, expected, atol=1e-12)


def test_exponential_kernel_vs_quadrature():
    a, xi_corr, tau_c, g1 = 0.1, 1.0, 0.5, 1.0
    spec = integrate_kernel(
        exponential_kernel(3, amplitude=a, correlation_length=xi_corr, tau_c=tau_c, g1=g1)
    )
    # trapezoid quadrature of g1^2 * C * exp(-|tau|/tau_c) over [-40 tau_c, 40 tau_c]
    tau = np.linspace(-40 * tau_c, 40 * tau_c, 200001)
    weight = g1**2 * np.trapezoid(np.exp(-np.abs(tau) / tau_c), tau)
    expected = np.zeros((9, 9))
    for l in range(1, 4):
        for lp in range(1, 4):
            c = a * np.exp(-abs(l - lp) / xi_corr)
            for ax in (1, 2, 3):
                expected[_channel_index(lp, ax), _channel_index(l, ax)] = c * weight
    np.testing.assert_allclose(spec.A, expected, atol=1e-6)


def test_exponential_kernel_single_axis():
    spec = integrate_kernel(
        exponential_kernel(2, amplitude=1.0, correlation_length=2.0, axis=AXIS_Z)
    )
    # x and y rows/columns empty, z block is the 2x2 exponential profile
    z_idx = [_channel_index(l, AXIS_Z) for l in (1, 2)]
    other = [n for n in range(6) if n not in z_idx]
    assert np.all(spec.A[other, :] == 0) and np.all(spec.A[:, other] == 0)
    np.testing.assert_allclose(
        spec.A[np.ix_(z_idx, z_idx)],
        [[1.0, np.exp(-0.5)], [np.exp(-0.5), 1.0]],
        atol=1e-12,
    )
    with pytest.raises(DomainError):
        exponential_kernel(2, correlation_length=2.0, axis=5)


def test_kernel_rejects_bad_parameters():
    with pytest.raises(DomainError):
        exponential_kernel(2, correlation_length=0.0)
    with pytest.raises(DomainError):
        independent_kernel(2, tau_c=-1.0)
    with pytest.raises(DomainError):
        cross_axis_kernel(2, np.eye(2))  # block must be 3x3
    # refused by the factory itself, not later as a non-finite spatial table
    with pytest.raises(DomainError, match="axis_block contains non-finite"):
        cross_axis_kernel(2, np.full((3, 3), np.nan))


def test_axis_is_checked_alike_by_every_factory():
    # one axis check: collective has no every-axis form, so None is refused there
    for bad in (0, 4, None, "z", [3]):
        with pytest.raises(DomainError, match=r"axis must be 1 \(x\), 2 \(y\) or 3 \(z\)"):
            collective_axis_kernel(2, axis=bad)
        if bad is not None:
            with pytest.raises(DomainError, match=r"axis must be 1 \(x\)"):
                exponential_kernel(2, axis=bad)
            with pytest.raises(DomainError, match=r"axis must be 1 \(x\)"):
                pauli_operator(1, bad, 2)


@pytest.mark.parametrize("flag", [True, False, np.True_])
def test_boolean_axis_is_rejected(flag):
    # True == 1, but a boolean is no axis: the axis check and the YAML reader refuse it
    for build in (
        axis_block,
        lambda a: collective_axis_kernel(2, axis=a),
        lambda a: exponential_kernel(2, axis=a),
        lambda a: pauli_operator(1, a, 2),
    ):
        with pytest.raises(DomainError, match=r"axis must be 1 \(x\), 2 \(y\) or 3 \(z\)"):
            build(flag)
    for section in (
        {"kind": "collective_axis", "num_qubits": 2},
        {"kind": "exponential", "num_qubits": 2, "correlation_length": 1.0},
    ):
        with pytest.raises(ConfigError, match="axis"):
            parse_config({"noise": {**section, "axis": bool(flag)}, "delta_t_values": [0.01]})


def test_integral_float_axis_is_that_axis():
    # YAML's axis: 2.0 is axis 2; the factories used to index with the float
    for axis in (1, 2, 3):
        for factory in (collective_axis_kernel, lambda n, axis: exponential_kernel(n, axis=axis)):
            expected = factory(2, axis=axis).spatial.tobytes()
            assert factory(2, axis=float(axis)).spatial.tobytes() == expected
            assert factory(2, axis=np.float64(axis)).spatial.tobytes() == expected


@pytest.mark.parametrize(
    "key, value",
    [
        ("tau_c", math.inf),
        ("tau_c", math.nan),
        ("tau_c", 0.0),
        ("tau_c", -1.0),
        ("g1", math.inf),
        ("g1", -math.inf),
        ("g1", math.nan),
        ("g1", -1.0),
    ],
)
def test_kernel_time_scales_must_be_finite(key, value):
    # an infinite tau_c used to reach the integrator as a non-finite A
    with pytest.raises(DomainError, match=f"{key} must be"):
        independent_kernel(1, **{key: value})
    section = {"kind": "independent", "num_qubits": 1, key: value}
    with pytest.raises(ConfigError, match=f"invalid noise parameters: {key}"):
        parse_config({"noise": section, "delta_t_values": [0.01]})


def test_zero_coupling_is_a_silent_kernel():
    spec = integrate_kernel(independent_kernel(2, g1=0.0))
    assert not np.any(spec.A)


def test_infinite_correlation_length_is_the_uniform_profile():
    # exp(-k / inf) = 1: every qubit pair correlates fully on every axis
    kernel = exponential_kernel(3, correlation_length=math.inf)
    assert kernel.spatial.tobytes() == np.kron(np.ones((3, 3)), axis_block(1, 2, 3)).tobytes()
    section = {"kind": "exponential", "num_qubits": 3, "correlation_length": math.inf}
    parse_config({"noise": section, "delta_t_values": [0.01]})
    for bad in (0.0, -1.0, math.nan):
        with pytest.raises(DomainError, match="correlation_length"):
            exponential_kernel(3, correlation_length=bad)


@pytest.mark.parametrize(
    "build, key, value",
    [
        (independent_kernel, "amplitude", True),
        (independent_kernel, "amplitude", "1"),
        (independent_kernel, "amplitude", math.nan),
        (collective_axis_kernel, "amplitude", np.False_),
        (collective_axis_kernel, "amplitude", -math.inf),
        (exponential_kernel, "amplitude", math.inf),
        (exponential_kernel, "amplitude", None),
        (exponential_kernel, "correlation_length", True),
        (exponential_kernel, "correlation_length", "2"),
    ],
)
def test_kernel_numbers_follow_the_number_rule(build, key, value):
    # A bool is no number, a string is refused before numpy sees it, and an
    # infinite amplitude is refused before it makes inf * 0 (warnings are errors).
    with pytest.raises(DomainError, match=f"{key} must be"):
        build(3, **{key: value})


# Every entry point of the matrix gate, each given a 3x3 matrix (one qubit).
MATRIX_GATES = {
    # psd_eigensystem, the Hermitian eigensolver; the id keeps its former public name
    "hermitian_eigensystem": lambda m: psd_eigensystem(m, "matrix"),
    "spatial": lambda m: CorrelationKernel(1, m, 0.5, 1.0),
    "direct_A": noise_spec_direct,
    "direct_B": lambda m: noise_spec_direct(np.eye(3), m),
    "build_channels": lambda m: build_channels(NoiseSpec(1, m, 0)),
}


@pytest.mark.parametrize("entry", MATRIX_GATES)
def test_hermitian_tolerance_at_every_matrix_entry_point(entry):
    gate = MATRIX_GATES[entry]
    m = np.eye(3, dtype=complex)
    m[0, 1] = HERM_TOL * (1 - 1e-6)  # max |m - m^dag| is this entry
    gate(m)
    m[0, 1] = HERM_TOL * (1 + 1e-6)
    with pytest.raises(DomainError, match="not Hermitian"):
        gate(m)


@pytest.mark.parametrize("entry", MATRIX_GATES)
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0.0, math.nan)])
def test_non_finite_matrix_is_rejected_at_every_entry_point(entry, bad):
    # a NaN rate used to come out of build_channels as NaN eigenvalues
    m = np.eye(3, dtype=complex)
    m[1, 1] = bad
    with pytest.raises(DomainError, match="contains non-finite entries"):
        MATRIX_GATES[entry](m)


@pytest.mark.parametrize("entry", MATRIX_GATES)
def test_non_square_matrix_is_rejected_at_every_entry_point(entry):
    with pytest.raises(DomainError):
        MATRIX_GATES[entry](np.eye(3, 2))


# The factories' former constructions, kept as byte references.
def _loop_table(num_qubits, entry, axes):
    spatial = np.zeros((3 * num_qubits, 3 * num_qubits), dtype=complex)
    for l in range(1, num_qubits + 1):
        for lp in range(1, num_qubits + 1):
            for ax in axes:
                spatial[_channel_index(lp, ax), _channel_index(l, ax)] = entry(l, lp)
    return spatial


def _reference_tables(num_qubits, amplitude, correlation_length, axis, block):
    def decay(l, lp):
        return amplitude * np.exp(-abs(l - lp) / correlation_length)

    every = (1, 2, 3) if axis is None else (axis,)
    one = 3 if axis is None else axis
    return [
        (amplitude * np.eye(3 * num_qubits, dtype=complex),
         independent_kernel(num_qubits, amplitude=amplitude)),
        (_loop_table(num_qubits, lambda l, lp: amplitude, (one,)),
         collective_axis_kernel(num_qubits, axis=one, amplitude=amplitude)),
        (_loop_table(num_qubits, decay, every),
         exponential_kernel(num_qubits, amplitude, correlation_length, axis=axis)),
        (np.kron(np.eye(num_qubits), block), cross_axis_kernel(num_qubits, block)),
        (np.kron(np.eye(num_qubits), LOWERING_BLOCK), lowering_kernel(num_qubits)),
    ]


_ENTRY = st.one_of(st.just(0.0), st.floats(-10.0, 10.0, allow_nan=False))


@settings(max_examples=150, deadline=None)
@given(
    num_qubits=st.integers(1, MAX_QUBITS),
    amplitude=st.floats(0.0, 1e6, exclude_min=True),
    correlation_length=st.floats(0.0, 1e6, exclude_min=True),
    axis=st.sampled_from([None, 1, 2, 3]),
    re=st.lists(_ENTRY, min_size=9, max_size=9),
    im=st.lists(_ENTRY, min_size=9, max_size=9),
)
def test_separable_tables_match_former_constructions_bit_for_bit(
    num_qubits, amplitude, correlation_length, axis, re, im
):
    raw = np.array(re).reshape(3, 3) + 1j * np.array(im).reshape(3, 3)
    block = raw + raw.conj().T
    for expected, kernel in _reference_tables(
        num_qubits, amplitude, correlation_length, axis, block
    ):
        assert kernel.spatial.tobytes() == expected.tobytes(), kernel.kind


CAP_CASES = {
    "independent": (independent_kernel, {}),
    "collective_axis": (collective_axis_kernel, {}),
    "exponential": (exponential_kernel, {"correlation_length": 2.0}),
    "cross_axis": (cross_axis_kernel, {"axis_block": np.eye(3).tolist()}),
    "lowering": (lowering_kernel, {}),
}


@pytest.mark.parametrize("kind", CAP_CASES)
def test_qubit_cap_is_checked_before_allocation(kind):
    factory, extra = CAP_CASES[kind]
    # a 300-qubit table would be 900 x 900 complex, about 13 MB
    tracemalloc.start()
    try:
        with pytest.raises(ResourceError):
            factory(300, **extra)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000, peak
    section = {"kind": kind, "num_qubits": 300, **extra}
    with pytest.raises(ConfigError, match="invalid noise parameters"):
        parse_config({"noise": section, "delta_t_values": [0.01]})


def test_direct_spec_accepts_and_clamps():
    a = np.diag([1.0, 0.5, -5e-11]).astype(complex)
    spec = noise_spec_direct(a)
    w = np.linalg.eigvalsh(spec.A)
    assert w.min() >= 0.0
    np.testing.assert_allclose(spec.A, np.diag([1.0, 0.5, 0.0]), atol=1e-9)


def test_direct_spec_rejects_negative_eigenvalue():
    with pytest.raises(DomainError):
        noise_spec_direct(np.diag([1.0, 1.0, -0.01]).astype(complex))


def test_direct_spec_rejects_non_hermitian():
    a = np.zeros((3, 3), dtype=complex)
    a[0, 1] = 1.0
    with pytest.raises(DomainError):
        noise_spec_direct(a)


def test_direct_noise_defers_validation():
    bad = DirectNoise(A=np.diag([1.0, 1.0, -0.01]).astype(complex))
    with pytest.raises(DomainError):
        bad.resolve()


def test_zero_spec_is_valid():
    spec = noise_spec_direct(np.zeros((3, 3)), np.zeros((3, 3)))
    ch = build_channels(spec)
    assert bool(np.all(ch.inert))
    np.testing.assert_allclose(ch.H_eff, 0.0, atol=1e-15)


def test_independent_channels_are_single_paulis():
    spec = integrate_kernel(independent_kernel(2, amplitude=0.7))
    ch = build_channels(spec)
    assert ch.num_channels == 6
    np.testing.assert_allclose(ch.eigenvalues, 0.7, atol=1e-12)
    # each jump op matches one sigma_l^alpha up to a global phase
    for s in ch.jump_ops:
        overlaps = [
            abs(np.trace(pauli_operator(l, ax, 2).conj().T @ s)) / 4.0
            for l in (1, 2)
            for ax in (1, 2, 3)
        ]
        overlaps.sort()
        assert overlaps[-1] == pytest.approx(1.0, abs=1e-9)
        assert overlaps[-2] == pytest.approx(0.0, abs=1e-9)


def test_collective_z_channel_structure():
    spec = integrate_kernel(collective_axis_kernel(3, AXIS_Z, amplitude=0.2))
    ch = build_channels(spec)
    active = np.flatnonzero(~ch.inert)
    assert len(active) == 1
    n = active[0]
    assert ch.eigenvalues[n] == pytest.approx(0.6, abs=1e-12)
    collective = sum(pauli_operator(l, AXIS_Z, 3) for l in (1, 2, 3)) / np.sqrt(3.0)
    phase = np.trace(collective.conj().T @ ch.jump_ops[n]) / 8.0
    np.testing.assert_allclose(ch.jump_ops[n], phase * collective, atol=1e-9)
    assert abs(abs(phase) - 1.0) < 1e-9


def test_lowering_block_channel():
    # (x,y) block [[0.5,-0.5i],[0.5i,0.5]] has eigenvalues {0,1}; the active
    # channel is (sigma^x - i sigma^y)/sqrt(2) = sqrt(2)|0><1| up to phase
    spec = integrate_kernel(cross_axis_kernel(1, LOWERING_BLOCK))
    w = np.sort(np.linalg.eigvalsh(spec.A))
    np.testing.assert_allclose(w, [0.0, 0.0, 1.0], atol=1e-12)
    ch = build_channels(spec)
    active = np.flatnonzero(~ch.inert)
    assert len(active) == 1
    s = ch.jump_ops[active[0]]
    target = np.sqrt(2.0) * np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    phase = np.trace(target.conj().T @ s) / 2.0
    np.testing.assert_allclose(s, phase * target, atol=1e-9)


def test_lowering_kernel_matches_block():
    spec = integrate_kernel(lowering_kernel(2))
    ch = build_channels(spec)
    assert np.count_nonzero(~ch.inert) == 2


def test_channel_set_invariants():
    rng = np.random.default_rng(31)
    raw = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    spec = noise_spec_direct(raw @ raw.conj().T / 6.0)
    ch = build_channels(spec)
    # reconstruction A = U^dag diag(xi) U
    recon = ch.U.conj().T @ np.diag(ch.eigenvalues) @ ch.U
    assert np.linalg.norm(recon - spec.A) < 1e-9
    # row normalization of U
    np.testing.assert_allclose(np.sum(np.abs(ch.U) ** 2, axis=1), 1.0, atol=1e-10)
    # total rate preserved
    assert ch.eigenvalues.sum() == pytest.approx(np.trace(spec.A).real, abs=1e-9)
    # anti-Hermitian part of H_eff is the damping sum
    damping = sum(
        xi * s.conj().T @ s for xi, s in zip(ch.eigenvalues, ch.jump_ops)
    )
    np.testing.assert_allclose(-2 * (ch.H_eff - ch.H_eff.conj().T) / 2j, damping, atol=1e-9)


def test_dissipator_matches_quadratic_form():
    # sum_n xi_n s_n rho s_n^dag must equal sum_pq A_pq sigma_p rho sigma_q
    rng = np.random.default_rng(32)
    raw = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    spec = noise_spec_direct(raw @ raw.conj().T / 6.0)
    ch = build_channels(spec)
    paulis = [pauli_operator(l, ax, 2) for l in (1, 2) for ax in (1, 2, 3)]
    raw_rho = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = raw_rho @ raw_rho.conj().T
    rho /= np.trace(rho).real
    via_channels = sum(
        xi * s @ rho @ s.conj().T for xi, s in zip(ch.eigenvalues, ch.jump_ops)
    )
    via_spec = sum(
        spec.A[q, p] * paulis[p] @ rho @ paulis[q]
        for p in range(6)
        for q in range(6)
    )
    np.testing.assert_allclose(via_channels, via_spec, atol=1e-9)


def _remixed_channels(spec):
    """Alternative valid channel set: remix eigenvectors inside degenerate blocks."""
    w, v = np.linalg.eigh(spec.A)
    rng = np.random.default_rng(33)
    groups = []
    start = 0
    for i in range(1, len(w) + 1):
        if i == len(w) or abs(w[i] - w[start]) > 1e-9:
            groups.append((start, i))
            start = i
    for lo, hi in groups:
        if hi - lo > 1:
            block = rng.normal(size=(hi - lo, hi - lo)) + 1j * rng.normal(
                size=(hi - lo, hi - lo)
            )
            q, _ = np.linalg.qr(block)
            v[:, lo:hi] = v[:, lo:hi] @ q
    return assemble_channel_set(spec, np.clip(w, 0.0, None), v.conj().T)


def test_dissipator_invariant_under_degenerate_remix():
    spec = integrate_kernel(independent_kernel(2, amplitude=0.5))
    ch_a = build_channels(spec)
    ch_b = _remixed_channels(spec)
    assert np.linalg.norm(ch_a.U - ch_b.U) > 1e-3  # genuinely different bases
    np.testing.assert_allclose(ch_a.H_eff, ch_b.H_eff, atol=1e-9)
    dim = ch_a.dim
    worst = 0.0
    for i in range(dim):
        for j in range(dim):
            unit = np.zeros((dim, dim), dtype=complex)
            unit[i, j] = 1.0
            d_a = sum(
                xi * (s @ unit @ s.conj().T - 0.5 * (s.conj().T @ s @ unit + unit @ s.conj().T @ s))
                for xi, s in zip(ch_a.eigenvalues, ch_a.jump_ops)
            )
            d_b = sum(
                xi * (s @ unit @ s.conj().T - 0.5 * (s.conj().T @ s @ unit + unit @ s.conj().T @ s))
                for xi, s in zip(ch_b.eigenvalues, ch_b.jump_ops)
            )
            worst = max(worst, float(np.max(np.abs(d_a - d_b))))
    assert worst < 1e-8


def test_rescale_to_unit_max_rate():
    spec = integrate_kernel(exponential_kernel(3, amplitude=2.0, correlation_length=1.5))
    scaled = rescale_to_unit_max_rate(spec)
    assert max_rate(scaled) == pytest.approx(1.0, abs=1e-12)
    # relative structure unchanged
    mask = np.abs(scaled.A) > 1e-14
    np.testing.assert_allclose(spec.A[mask] / scaled.A[mask], max_rate(spec), atol=1e-9)


def test_inert_flags():
    spec = integrate_kernel(collective_axis_kernel(2, AXIS_Z))
    ch = build_channels(spec)
    assert np.count_nonzero(~ch.inert) == 1
    assert ch.inert.sum() == 5
    # inert channels keep their slots: 3L channels in flat order
    assert ch.num_channels == 6
