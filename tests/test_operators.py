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
from corrqec.errors import ConfigError, DomainError, ResourceError
from corrqec.experiment import ExperimentConfig
from corrqec.lindblad import EvolutionConfig, evolve_exact, lindblad_rhs
from corrqec.noise import (
    CorrelationKernel,
    build_channels,
    collective_axis_kernel,
    cross_axis_kernel,
    integrate_kernel,
    noise_spec_direct,
)
from corrqec.operators import (
    AXIS_X,
    AXIS_Y,
    AXIS_Z,
    IDENTITY_2,
    MAX_QUBITS,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    StateBlock,
    basis_state,
    channel_qubit_axis,
    check_finite_square,
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
    psd_eigensystem,
    pure_state_fidelity,
    pure_state_projector,
    row_norms,
    trace_distance,
)
from corrqec.qecc import correction_channel, encode, five_qubit_code
from corrqec.trajectory import (
    apply_first_order_channel,
    build_first_order_channel,
    sample_ensemble,
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
    w, v = psd_eigensystem(np.diag([3.0, 1.0]).astype(complex), "matrix")
    np.testing.assert_allclose(w, [1.0, 3.0], atol=1e-14)
    # columns are permuted identity columns up to phase
    np.testing.assert_allclose(np.abs(v), [[0, 1], [1, 0]], atol=1e-14)


def test_eigensystem_two_level_closed_form():
    rho = 0.37
    m = np.array([[1.0, rho], [rho, 1.0]], dtype=complex)
    w, _ = psd_eigensystem(m, "matrix")
    np.testing.assert_allclose(w, [1 - rho, 1 + rho], atol=1e-12)


def test_eigensystem_reconstruction_random():
    rng = np.random.default_rng(7)
    for _ in range(10):
        raw = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        m = raw @ raw.conj().T  # Hermitian and positive semidefinite
        w, v = psd_eigensystem(m, "matrix")
        assert np.all(np.diff(w) >= -1e-12)
        resid = np.linalg.norm(v @ np.diag(w) @ v.conj().T - m)
        assert resid < 1e-9
        unit = np.linalg.norm(v.conj().T @ v - np.eye(6))
        assert unit < 1e-9


def test_eigensystem_invariant_under_conjugation():
    rng = np.random.default_rng(8)
    raw = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    m = raw @ raw.conj().T  # Hermitian and positive semidefinite
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    w1, _ = psd_eigensystem(m, "matrix")
    w2, _ = psd_eigensystem(q @ m @ q.conj().T, "matrix")
    np.testing.assert_allclose(w1, w2, atol=1e-9)


def test_eigensystem_rejects_non_hermitian():
    with pytest.raises(DomainError):
        psd_eigensystem(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex), "matrix")


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(math.inf, 0.0)])
@pytest.mark.parametrize("where", [(0, 0), (1, 1), (0, 1)])
def test_eigensystem_rejects_non_finite(bad, where):
    m = np.diag([1.0, 2.0, 0.0]).astype(complex)
    m[where] = m[where[::-1]] = bad
    with pytest.raises(DomainError, match="non-finite"):
        psd_eigensystem(m, "matrix")


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
        check_state_vector(np.array([1.0, 1.0], dtype=complex), 2)


def test_density_matrix_check():
    rho = np.diag([0.25, 0.75])
    out = check_finite_square(rho, "density matrix", 2)
    assert out.dtype == complex and np.array_equal(out, rho)
    complex_rho = rho.astype(complex)
    assert check_finite_square(complex_rho, "density matrix", 2) is complex_rho
    for shape in [(2, 3), (2,), (2, 2, 2)]:
        with pytest.raises(DomainError, match="square"):
            check_finite_square(np.zeros(shape), "density matrix", 2)
    with pytest.raises(DomainError, match="does not match dimension 4"):
        check_finite_square(rho, "density matrix", 4)
    for bad in (math.nan, math.inf, complex(0.0, -math.inf)):
        nonfinite = complex_rho.copy()
        nonfinite[0, 1] = bad
        with pytest.raises(DomainError, match="non-finite"):
            check_finite_square(nonfinite, "density matrix", 2)


def _one_qubit_channels():
    return build_channels(integrate_kernel(collective_axis_kernel(1, axis=3)))


_PLUS = np.full(2, np.sqrt(0.5), dtype=complex)
_RHO4 = np.eye(4, dtype=complex) / 4

# Every entry point that takes a state vector or a square matrix, called with
# one of the wrong size; the channels are one-qubit ones (dimension 2).
SIZE_ENTRY_POINTS = {
    "sample_ensemble": lambda: sample_ensemble(
        np.full(4, 0.5), _one_qubit_channels(), 0.1, 0.01, 7, 4
    ),
    "build_first_order_channel": lambda: build_first_order_channel(
        np.full(4, 0.5), _one_qubit_channels(), 0.01
    ),
    "encode": lambda: encode(np.full(2, 0.5), np.full(2, 0.5), five_qubit_code()),
    "evolve_exact": lambda: evolve_exact(
        _RHO4, _one_qubit_channels(), EvolutionConfig(dt_integrator=1e-3, t_final=0.01)
    ),
    "lindblad_rhs": lambda: lindblad_rhs(_RHO4, _one_qubit_channels()),
    "correction_channel": lambda: correction_channel(_RHO4, five_qubit_code()),
    "apply_first_order_channel": lambda: apply_first_order_channel(
        _RHO4, build_first_order_channel(_PLUS, _one_qubit_channels(), 0.01)
    ),
    "CorrelationKernel": lambda: CorrelationKernel(1, np.eye(6), 0.5, 1.0),
    "cross_axis_kernel": lambda: cross_axis_kernel(1, np.eye(2)),
    "noise_spec_direct": lambda: noise_spec_direct(np.eye(3), np.eye(6)),
    "pure_state_fidelity": lambda: pure_state_fidelity(np.ones(2) / 2**0.5, np.eye(4) / 4),
    "trace_distance": lambda: trace_distance(np.eye(2) / 2, np.eye(4) / 4),
}


@pytest.mark.parametrize("entry", SIZE_ENTRY_POINTS)
def test_sizes_must_match(entry):
    # sample_ensemble used to die in numpy's matmul with a ValueError
    with pytest.raises(DomainError, match="does not match dimension"):
        SIZE_ENTRY_POINTS[entry]()


@pytest.mark.parametrize("excess", [-1.1e-10, -0.9e-10, 0.0, 0.9e-10, 1.1e-10])
def test_unit_norm_rule_at_its_boundary(excess):
    # One rule, | ||psi||^2 - 1 | <= 1e-10, for a state vector, an encoded
    # pair and a config's logical_state; check_state_vector used to take
    # | ||psi|| - 1 | <= 1e-10, which let 1 + 1.1e-10 through.
    alpha = math.sqrt(1.0 + excess)
    calls = (
        (lambda: check_state_vector(np.array([alpha, 0.0]), 2), DomainError, "deviates from 1"),
        (lambda: encode(alpha, 0.0, five_qubit_code()), DomainError, "deviates from 1"),
        (
            lambda: ExperimentConfig(
                noise=collective_axis_kernel(5, axis=3), logical_state=(alpha, 0.0)
            ),
            ConfigError,
            "logical_state .* unit norm",
        ),
    )
    for call, error, message in calls:
        if abs(excess) < 1e-10:
            call()
        else:
            with pytest.raises(error, match=message):
                call()


def test_fidelity_and_trace_distance_refuse_non_finite_inputs():
    # A NaN state used to give a NaN fidelity, and a NaN matrix a NaN
    # distance, with no DomainError.
    nan_state = np.array([np.nan, 0.0])
    with pytest.raises(DomainError, match="non-finite"):
        pure_state_fidelity(nan_state, np.eye(2) / 2)
    with pytest.raises(DomainError, match="non-finite"):
        pure_state_fidelity(basis_state(0, 1), np.full((2, 2), np.nan))
    with pytest.raises(DomainError, match="non-finite"):
        trace_distance(np.eye(2) / 2, np.outer(nan_state, nan_state))
    with pytest.raises(DomainError, match="deviates from 1"):
        pure_state_fidelity(np.ones(2), np.eye(2) / 2)


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
# One element near 1e-150: numpy's in-place multiply of a lone complex
# element rounds its square differently from a fresh product.
@example(seed=31761099, num_rows=1, pools={4})
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


def _brute_regroup(index, size, rows, cells):
    # The regrouping rule, one (slot, cell) pair at a time in (slot, cell)
    # order: the rows of a pair share one slot, which is the old slot when
    # no row stays on it and the cell is its lowest, else the next new one.
    moving = dict(zip(rows.tolist(), cells.tolist()))
    pairs = sorted(set((int(index[r]), c) for r, c in moving.items()))
    new_index, next_slot, targets = index.copy(), size, []
    for slot, cell in pairs:
        stays = any(index[b] == slot and b not in moving for b in range(index.size))
        lowest = cell == min(c for s, c in pairs if s == slot)
        if not stays and lowest:
            target = slot
        else:
            target, next_slot = next_slot, next_slot + 1
        targets.append(target)
        for r, c in moving.items():
            if index[r] == slot and c == cell:
                new_index[r] = target
    return new_index, next_slot, pairs, targets


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    num_rows=st.integers(1, 24),
    size=st.integers(1, 24),
    num_cells=st.integers(1, 5),
    leave=st.floats(0.0, 1.0),
    one_cell=st.booleans(),
    ordered=st.booleans(),
)
# An unshared block whose index is arange; every row of one shared slot leaving.
@example(seed=1, num_rows=6, size=6, num_cells=3, leave=0.5, one_cell=False, ordered=True)
@example(seed=2, num_rows=5, size=1, num_cells=4, leave=1.0, one_cell=False, ordered=True)
def test_state_block_move_is_the_brute_force_regrouping(
    seed, num_rows, size, num_cells, leave, one_cell, ordered
):
    rng = np.random.default_rng(seed)
    size = min(size, num_rows)
    index = np.concatenate([np.arange(size), rng.integers(size, size=num_rows - size)])
    if not ordered:
        index = rng.permutation(index)
    counts = np.full(num_rows, 7, dtype=np.intp)  # entries from size on are junk
    counts[:size] = np.bincount(index, minlength=size)
    block = StateBlock(np.zeros((size, 2), dtype=complex), index.copy(), counts, size)
    rows = np.flatnonzero(rng.random(num_rows) < leave)
    cell = 0 if one_cell else rng.integers(num_cells, size=rows.size)
    cells = np.broadcast_to(cell, rows.shape)

    sources, pos = block.sources(rows)
    assert np.array_equal(sources[pos], index[rows])
    assert np.unique(sources).size == sources.size
    if size < num_rows:
        assert np.all(np.diff(sources) > 0)
    new_size, pair_pos, pair_cells, targets = block.move(rows, sources, pos, cell, num_cells)
    after = block.index

    expected_index, expected_size, pairs, expected_targets = _brute_regroup(index, size, rows, cells)
    assert new_size == expected_size
    assert np.array_equal(after, expected_index)
    got = [(int(sources[p]), int(c), int(t)) for p, c, t in zip(pair_pos, pair_cells, targets)]
    if size == num_rows:
        got.sort()  # one pair per row, in row order
    assert got == [(*pair, t) for pair, t in zip(pairs, expected_targets)]

    assert np.array_equal(block.counts[:new_size], np.bincount(after, minlength=new_size))
    moved = np.zeros(num_rows, dtype=bool)
    moved[rows] = True
    cell_of = np.full(num_rows, -1)
    cell_of[rows] = cells
    # Rows share a slot afterwards only if they shared one before and then
    # both stayed or both moved to the same cell.
    together = after[:, None] == after[None, :]
    before = (index[:, None] == index[None, :]) & (cell_of[:, None] == cell_of[None, :])
    assert np.array_equal(together, before)
    assert np.array_equal(after[~moved], index[~moved])
    for slot in np.unique(index[rows]):
        own = index == slot
        if np.all(moved[own]):  # emptied: the slot goes to its lowest cell
            lowest = own & (cell_of == cell_of[own].min())
            assert np.all(after[lowest] == slot)
    # New slots are numbered from the old size in (slot, cell) order.
    fresh = targets[targets >= size]
    assert np.array_equal(fresh, np.arange(size, new_size))
    if size == num_rows:
        assert new_size == num_rows
        assert np.array_equal(after, index)
        assert np.all(block.counts == 1)
        if ordered:
            assert np.array_equal(after, np.arange(num_rows))
