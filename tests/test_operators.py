"""Pauli algebra, eigensolver, input rules and state-block kernel checks.

Expected values come from closed forms or independent oracles (direct
multiplication, numpy's own reductions), never from the functions under test.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import corrqec
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
    _eigensystem,
    basis_state,
    channel_qubit_axis,
    check_density_matrix,
    check_state_vector,
    divide_rows,
    is_boolean,
    is_integer,
    is_nonnegative,
    is_number,
    is_positive,
    is_real_number,
    normalized,
    pauli_operator,
    pauli_stack,
    pauli_string_matrix,
    pure_state_fidelity,
    pure_state_projector,
    row_norms,
    trace_distance,
)


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
            assert 3 * (qubit - 1) + (axis - 1) == n
            assert channel_qubit_axis(n) == (qubit, axis)
            n += 1


def _kron_chain(factors):
    # the former operators.kron_chain: left-to-right np.kron from a 1x1 one
    result = np.ones((1, 1), dtype=complex)
    for f in factors:
        result = np.kron(result, np.asarray(f, dtype=complex))
    return result


def test_pauli_string_matrix_identities():
    np.testing.assert_array_equal(pauli_string_matrix("II"), np.eye(4))
    np.testing.assert_array_equal(
        pauli_string_matrix("ZI"), np.diag([1.0, 1.0, -1.0, -1.0]).astype(complex)
    )


def test_pauli_string_matrix_resource_cap():
    # the cap is checked on the string length, before the first product
    with pytest.raises(ResourceError):
        pauli_string_matrix("X" * (MAX_QUBITS + 1))


def test_pauli_string_matrix_chain():
    expected = np.kron(np.kron(PAULI_X, np.eye(2)), PAULI_Z)
    np.testing.assert_array_equal(pauli_string_matrix("XIZ"), expected)


@pytest.mark.parametrize("num_qubits", range(1, 7))
def test_pauli_operator_and_stack_bytes_match_kron_chain(num_qubits):
    paulis = (PAULI_X, PAULI_Y, PAULI_Z)
    expected = []
    for qubit in range(1, num_qubits + 1):
        for axis in (AXIS_X, AXIS_Y, AXIS_Z):
            ref = _kron_chain(
                paulis[axis - 1] if slot == qubit else IDENTITY_2
                for slot in range(1, num_qubits + 1)
            )
            assert pauli_operator(qubit, axis, num_qubits).tobytes() == ref.tobytes()
            label = "I" * (qubit - 1) + "XYZ"[axis - 1] + "I" * (num_qubits - qubit)
            assert pauli_string_matrix(label).tobytes() == ref.tobytes()
            expected.append(ref)
    assert pauli_stack(num_qubits).tobytes() == np.stack(expected).tobytes()


def test_eigensystem_diagonal_input():
    w, v = _eigensystem(np.diag([3.0, 1.0]).astype(complex), "matrix")
    np.testing.assert_allclose(w, [1.0, 3.0], atol=1e-14)
    # columns are permuted identity columns up to phase
    np.testing.assert_allclose(np.abs(v), [[0, 1], [1, 0]], atol=1e-14)


def test_eigensystem_two_level_closed_form():
    rho = 0.37
    m = np.array([[1.0, rho], [rho, 1.0]], dtype=complex)
    w, _ = _eigensystem(m, "matrix")
    np.testing.assert_allclose(w, [1 - rho, 1 + rho], atol=1e-12)


def test_eigensystem_reconstruction_random():
    rng = np.random.default_rng(7)
    for _ in range(10):
        raw = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        m = raw + raw.conj().T
        w, v = _eigensystem(m, "matrix")
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
    w1, _ = _eigensystem(m, "matrix")
    w2, _ = _eigensystem(q @ m @ q.conj().T, "matrix")
    np.testing.assert_allclose(w1, w2, atol=1e-9)


def test_eigensystem_rejects_non_hermitian():
    with pytest.raises(DomainError):
        _eigensystem(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex), "matrix")


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(math.inf, 0.0)])
@pytest.mark.parametrize("where", [(0, 0), (1, 1), (0, 1)])
def test_eigensystem_rejects_non_finite(bad, where):
    m = np.diag([1.0, 2.0, 0.0]).astype(complex)
    m[where] = m[where[::-1]] = bad
    with pytest.raises(DomainError, match="non-finite"):
        _eigensystem(m, "matrix")


@pytest.mark.parametrize(
    "x, positive, nonnegative",
    [
        (1, True, True),
        (2.5, True, True),
        (np.float64(1e-300), True, True),
        (np.int64(3), True, True),
        (0, False, True),
        (-0.0, False, True),
        (-1.0, False, False),
        (math.nan, False, False),
        (math.inf, False, False),
        (-math.inf, False, False),
    ],
)
def test_scalar_rules(x, positive, nonnegative):
    assert is_real_number(x) and is_number(x)
    assert is_positive(x) == positive
    assert is_nonnegative(x) == nonnegative


@pytest.mark.parametrize(
    "x, number",
    [(True, False), (np.True_, False), ("1", False), (None, False), ([1.0], False),
     (1j, True), (np.complex128(1.0), True), (np.complex64(1.0), True)],
)
def test_real_number_rule_rejects_non_reals(x, number):
    assert not is_real_number(x)
    assert is_number(x) == number
    assert not is_positive(x) and not is_nonnegative(x)


@pytest.mark.parametrize(
    "x, integer",
    [(0, True), (-3, True), (2**70, True), (np.int8(1), True), (np.uint64(1), True),
     (True, False), (np.True_, False), (1.0, False), (np.float64(2.0), False), ("2", False),
     (None, False), (1j, False)],
)
def test_integer_rule(x, integer):
    # a Python or numpy integer, not a bool; every integer is also a real number
    assert is_integer(x) == integer
    if integer:
        assert is_real_number(x)


@pytest.mark.parametrize(
    "x, boolean",
    [(True, True), (False, True), (np.True_, True), (np.False_, True), (1, False),
     (0, False), (np.int8(1), False), (1.0, False), ("yes", False), (None, False)],
)
def test_boolean_rule(x, boolean):
    # a Python or numpy bool; no bool passes the integer rule
    assert is_boolean(x) == boolean
    if boolean:
        assert not is_integer(x)


def test_scipy_is_off_the_import_path():
    src = str(Path(corrqec.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = (
        "import sys, corrqec, corrqec.cli\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out == "[]\n"


def test_state_helpers():
    psi = basis_state(0, 1)
    assert psi.shape == (2,)
    assert psi[0] == 1.0
    assert basis_state(5, 3).shape == (8,)
    assert basis_state(3, 2)[3] == 1.0
    # a negative index used to wrap around, and a bool one to fill the vector
    for index in (-1, 4, True, False):
        with pytest.raises(DomainError, match="basis index"):
            basis_state(index, 2)
    v = normalized(np.array([3.0, 4.0], dtype=complex))
    np.testing.assert_allclose(np.linalg.norm(v), 1.0, atol=1e-15)
    with pytest.raises(DomainError):
        normalized(np.zeros(2, dtype=complex))
    with pytest.raises(DomainError):
        check_state_vector(np.array([1.0, 1.0], dtype=complex))


def test_density_matrix_check():
    rho = np.diag([0.25, 0.75])
    out = check_density_matrix(rho, 2)
    assert out.dtype == complex and np.array_equal(out, rho)
    complex_rho = rho.astype(complex)
    assert check_density_matrix(complex_rho, 2) is complex_rho
    for shape in [(2, 3), (2,), (2, 2, 2)]:
        with pytest.raises(DomainError, match="square"):
            check_density_matrix(np.zeros(shape), 2)
    with pytest.raises(DomainError, match="does not match dimension 4"):
        check_density_matrix(rho, 4)
    for bad in (math.nan, math.inf, complex(0.0, -math.inf)):
        nonfinite = complex_rho.copy()
        nonfinite[0, 1] = bad
        with pytest.raises(DomainError, match="non-finite"):
            check_density_matrix(nonfinite, 2)


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


def _awkward_parts(rng, size, pools):
    # Re/Im parts, each drawn from one of the chosen pools: 0 standard
    # normal, 1 signed zeros, 2 subnormals, 3 magnitudes near 1e+150 (their
    # squares overflow to inf), 4 near 1e-150 (their squares underflow).
    sign = rng.choice([-1.0, 1.0], size)
    choices = [
        rng.standard_normal(size),
        sign * 0.0,
        sign * rng.uniform(0.0, 2.2e-308, size),
        sign * 10.0 ** rng.uniform(140.0, 160.0, size),
        sign * 10.0 ** rng.uniform(-160.0, -140.0, size),
    ]
    return np.choose(rng.choice(sorted(pools), size), choices)


# Every d that row_norms sums column-wise (1..15) and its neighbours, plus
# d where numpy's pairwise sum blocks (128) and splits recursively (129, 4096).
@pytest.mark.parametrize("dim", [*range(1, 25), 32, 128, 129, 4096])
@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    num_rows=st.one_of(st.sampled_from([0, 1, 8193]), st.integers(1, 600).map(lambda k: 2 * k + 1)),
    pools=st.sets(st.integers(0, 4), min_size=1),
)
@example(seed=0, num_rows=0, pools={0})
@example(seed=1, num_rows=8193, pools={0, 1, 2, 3, 4})
def test_row_norms_are_numpy_bytes(dim, seed, num_rows, pools):
    # row_norms sums short rows column by column in numpy's own order; its
    # bytes equal numpy's row reduction and np.linalg.norm, overflowed,
    # underflowed and zero rows included.  A numpy whose order changes fails
    # here rather than shifting the trajectory engine's last bits.
    num_rows = min(num_rows, 2**19 // dim | 1)  # at most 8 MB a block
    rng = np.random.default_rng(seed)
    psi = _awkward_parts(rng, 2 * num_rows * dim, pools).view(complex).reshape(num_rows, dim)
    before = psi.copy()
    # A part near 1e150 overflows its square; with both parts huge the
    # product's imaginary part is inf - inf (invalid), which no sum reads.
    with np.errstate(over="ignore", invalid="ignore"):
        got = row_norms(psi, np.empty_like(psi))
        want = np.sqrt(np.add.reduce((np.conjugate(psi) * psi).real, axis=1))
        norm = np.linalg.norm(psi, axis=1)
    assert got.shape == (num_rows,)
    assert got.tobytes() == want.tobytes() == norm.tobytes()
    assert psi.tobytes() == before.tobytes()


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(1, 64),
    num_rows=st.integers(0, 200).map(lambda k: 2 * k + 1),
    pools=st.sets(st.integers(0, 4), min_size=1),
    norm_scale=st.sampled_from(["random", "subnormal", "huge"]),
)
def test_divide_rows_matches_numpy_division(seed, dim, num_rows, pools, norm_scale):
    # divide_rows(psi, norms) leaves psi / norms[:, None] value for value;
    # only an exact-zero part may differ, and only in its sign.  The
    # reciprocal of a subnormal norm may overflow to inf; numpy's complex
    # division takes the same reciprocal.
    rng = np.random.default_rng(seed)
    psi = _awkward_parts(rng, 2 * num_rows * dim, pools).view(complex).reshape(num_rows, dim)
    norms = {
        "random": 10.0 ** rng.uniform(-3.0, 3.0, num_rows),
        "subnormal": rng.uniform(1e-323, 2.2e-308, num_rows),
        "huge": 10.0 ** rng.uniform(300.0, 308.0, num_rows),
    }[norm_scale]
    with np.errstate(over="ignore", invalid="ignore"):
        want = (psi / norms[:, None]).view(float)
        divide_rows(psi, norms)
    got = psi.view(float)
    differ = got.view(np.int64) != want.view(np.int64)
    both_nan = np.isnan(got) & np.isnan(want)
    assert np.all(~differ | both_nan | ((got == 0.0) & (want == 0.0)))
