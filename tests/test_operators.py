"""Pauli algebra, eigensolver, and matrix exponential checks.

Expected values come from closed forms or independent oracles (50-term
Taylor series, direct multiplication), never from the functions under test.
"""

import numpy as np
import pytest

from corrqec.errors import DomainError, ResourceError
from corrqec.operators import (
    AXIS_X,
    AXIS_Y,
    AXIS_Z,
    IDENTITY_2,
    MAX_QUBITS,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    basis_state,
    channel_index,
    channel_qubit_axis,
    check_state_vector,
    hermitian_eigensystem,
    kron,
    kron_chain,
    matrix_exponential,
    normalized,
    pauli_operator,
    pure_state_fidelity,
    pure_state_projector,
    trace_distance,
)


def _taylor_expm(m, terms=50):
    # independent series oracle: sum m^k / k!
    out = np.eye(m.shape[0], dtype=complex)
    term = np.eye(m.shape[0], dtype=complex)
    for k in range(1, terms):
        term = term @ m / k
        out = out + term
    return out


def test_pauli_definitions():
    assert np.array_equal(PAULI_Z, np.diag([1.0 + 0j, -1.0 + 0j]))
    assert np.array_equal(PAULI_X, np.array([[0, 1], [1, 0]], dtype=complex))
    assert np.array_equal(PAULI_Y, np.array([[0, -1j], [1j, 0]]))


def test_pauli_square_and_trace():
    for sigma in (PAULI_X, PAULI_Y, PAULI_Z):
        np.testing.assert_allclose(sigma @ sigma, IDENTITY_2, atol=1e-15)
        assert abs(np.trace(sigma)) == 0.0


def test_pauli_product_xy_gives_iz():
    x = pauli_operator(1, AXIS_X, 1)
    y = pauli_operator(1, AXIS_Y, 1)
    z = pauli_operator(1, AXIS_Z, 1)
    np.testing.assert_allclose(x @ y, 1j * z, atol=1e-15)


def test_pauli_operator_placement():
    # qubit 1 is the leftmost tensor factor
    op = pauli_operator(1, AXIS_X, 2)
    np.testing.assert_array_equal(op, np.kron(PAULI_X, np.eye(2)))
    op = pauli_operator(2, AXIS_Z, 2)
    np.testing.assert_array_equal(op, np.kron(np.eye(2), PAULI_Z))
    op = pauli_operator(1, AXIS_Z, 1)
    np.testing.assert_array_equal(op, np.diag([1.0 + 0j, -1.0 + 0j]))


def test_pauli_operator_bounds():
    with pytest.raises(DomainError):
        pauli_operator(0, AXIS_X, 2)
    with pytest.raises(DomainError):
        pauli_operator(3, AXIS_X, 2)
    with pytest.raises(DomainError):
        pauli_operator(1, 4, 2)


def test_channel_index_round_trip():
    # flat channel order n = 3(l-1) + (alpha-1)
    n = 0
    for qubit in range(1, 5):
        for axis in (1, 2, 3):
            assert channel_index(qubit, axis) == n
            assert channel_qubit_axis(n) == (qubit, axis)
            n += 1


def test_kron_identities():
    np.testing.assert_array_equal(kron(IDENTITY_2, IDENTITY_2), np.eye(4))
    np.testing.assert_array_equal(
        kron(PAULI_Z, IDENTITY_2), np.diag([1.0, 1.0, -1.0, -1.0]).astype(complex)
    )


def test_kron_mixed_product_property():
    rng = np.random.default_rng(11)
    for _ in range(5):
        a, b, c, d = (
            rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(4)
        )
        left = kron(a, b) @ kron(c, d)
        right = kron(a @ c, b @ d)
        np.testing.assert_allclose(left, right, atol=1e-12)


def test_kron_resource_cap():
    big = np.eye(2**MAX_QUBITS, dtype=complex)
    with pytest.raises(ResourceError):
        kron(big, IDENTITY_2)


def test_kron_chain():
    mats = [PAULI_X, IDENTITY_2, PAULI_Z]
    expected = np.kron(np.kron(PAULI_X, np.eye(2)), PAULI_Z)
    np.testing.assert_array_equal(kron_chain(mats), expected)


def test_eigensystem_diagonal_input():
    w, v = hermitian_eigensystem(np.diag([3.0, 1.0]).astype(complex))
    np.testing.assert_allclose(w, [1.0, 3.0], atol=1e-14)
    # columns are permuted identity columns up to phase
    np.testing.assert_allclose(np.abs(v), [[0, 1], [1, 0]], atol=1e-14)


def test_eigensystem_two_level_closed_form():
    rho = 0.37
    m = np.array([[1.0, rho], [rho, 1.0]], dtype=complex)
    w, _ = hermitian_eigensystem(m)
    np.testing.assert_allclose(w, [1 - rho, 1 + rho], atol=1e-12)


def test_eigensystem_reconstruction_random():
    rng = np.random.default_rng(7)
    for _ in range(10):
        raw = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        m = raw + raw.conj().T
        w, v = hermitian_eigensystem(m)
        assert np.all(np.diff(w) >= -1e-12)
        resid = np.linalg.norm(v @ np.diag(w) @ v.conj().T - m)
        assert resid < 1e-9
        unit = np.linalg.norm(v.conj().T @ v - np.eye(6))
        assert unit < 1e-9


def test_eigensystem_invariant_under_conjugation():
    rng = np.random.default_rng(8)
    raw = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    m = raw + raw.conj().T
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    w1, _ = hermitian_eigensystem(m)
    w2, _ = hermitian_eigensystem(q @ m @ q.conj().T)
    np.testing.assert_allclose(w1, w2, atol=1e-9)


def test_eigensystem_rejects_non_hermitian():
    with pytest.raises(DomainError):
        hermitian_eigensystem(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))


def test_matrix_exponential_zero_scale():
    m = np.array([[1.0, 2.0], [2.0, -1.0]], dtype=complex)
    np.testing.assert_allclose(matrix_exponential(m, 0.0), np.eye(2), atol=1e-15)


def test_matrix_exponential_diagonal():
    theta = 0.7
    out = matrix_exponential(PAULI_Z, -1j * theta)
    expected = np.diag([np.exp(-1j * theta), np.exp(1j * theta)])
    np.testing.assert_allclose(out, expected, atol=1e-12)


def test_matrix_exponential_series_oracle():
    rng = np.random.default_rng(21)
    for _ in range(5):
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        s = complex(rng.normal(scale=0.5), rng.normal(scale=0.5))
        resid = np.linalg.norm(matrix_exponential(m, s) - _taylor_expm(s * m))
        assert resid < 1e-10


def test_matrix_exponential_unitarity():
    rng = np.random.default_rng(22)
    raw = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    h = raw + raw.conj().T
    u = matrix_exponential(h, -1j * 0.3)
    assert np.linalg.norm(u.conj().T @ u - np.eye(8)) < 1e-9


def test_matrix_exponential_semigroup():
    m = np.array([[0.2, 0.5], [0.5, -0.1]], dtype=complex)
    lhs = matrix_exponential(m, 0.3 + 0.1j) @ matrix_exponential(m, 0.4 - 0.2j)
    rhs = matrix_exponential(m, 0.7 - 0.1j)
    assert np.linalg.norm(lhs - rhs) < 1e-8


def test_state_helpers():
    psi = basis_state(0, 1)
    assert psi.shape == (2,)
    assert psi[0] == 1.0
    assert basis_state(5, 3).shape == (8,)
    v = normalized(np.array([3.0, 4.0], dtype=complex))
    np.testing.assert_allclose(np.linalg.norm(v), 1.0, atol=1e-15)
    with pytest.raises(DomainError):
        normalized(np.zeros(2, dtype=complex))
    with pytest.raises(DomainError):
        check_state_vector(np.array([1.0, 1.0], dtype=complex))


def test_fidelity_and_trace_distance():
    zero = basis_state(0, 1)
    one = basis_state(1, 1)
    plus = normalized(np.array([1.0, 1.0], dtype=complex))
    assert pure_state_fidelity(zero, pure_state_projector(zero)) == pytest.approx(1.0)
    assert pure_state_fidelity(zero, pure_state_projector(one)) == pytest.approx(0.0)
    td = trace_distance(pure_state_projector(zero), pure_state_projector(one))
    assert td == pytest.approx(1.0, abs=1e-12)
    # TD between pure states is sqrt(1 - |<a|b>|^2)
    td = trace_distance(pure_state_projector(zero), pure_state_projector(plus))
    assert td == pytest.approx(np.sqrt(0.5), abs=1e-12)
