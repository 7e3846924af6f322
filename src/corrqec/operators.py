"""Dense complex kernels and Pauli constructors on the 2**L qubit Hilbert space.

Everything downstream (noise channels, integrators, trajectory sampling, the
stabilizer code) is built from the handful of primitives in this module.
Qubits are numbered 1..L with qubit 1 occupying the leftmost tensor slot, and
the (qubit, axis) pair is flattened as ``3*(qubit-1) + (axis-1)``; that single
convention indexes the rate/shift matrices and the jump-channel numbering
everywhere in the package.  This module owns that layout: Pauli strings, the
stack of all 3L single-qubit Paulis, and the 3x3 axis blocks.

It also holds the one implementation of each input rule the package checks:
a boolean (a Python or numpy bool), an integer (a Python or numpy integer,
not a bool), a real number (not a bool) or a complex one, a positive or
nonnegative finite scalar, the matrix gate (square, finite, Hermitian within
HERM_TOL), the size rule (a matrix dim x dim, a state vector of shape
(dim,), for the dimension the caller expects), the PSD floor and the
state rule (finite, unit norm: | ||psi||^2 - 1 | <= _NORM_TOL).  Callers
of the scalar rules raise their own error type with a message naming the
value; the matrix gate, the size rule, the state rule and the PSD floor
raise DomainError naming the matrix or the state; every entry point that
takes a state vector or a density matrix applies them with the dimension it
expects.  The counts, indices
and seeds the library takes (qubit count, qubit and basis index, trajectory
count, base seed) pass the integer rule: numpy integers are accepted like
Python ints, and a bool, a float or a string is a DomainError.  A flag
passes the boolean rule, which accepts numpy bools like Python bools.

Blocks of state rows, as the trajectory engine and the syndrome step keep
them, live here too: StateBlock holds M rows as their distinct states, its
move is the one rule by which rows that leave their states regroup (the
jump step's channels, the measurement's -1 branch), and its spare rule says
which buffer the next block's states go into (room_for sizes it);
gemm_operand and matmul_rows give each distinct state the bytes its rows
get in a product over the whole block; row_norms and divide_rows normalize
a block with numpy's values.
"""

from __future__ import annotations

import math
import mmap

import numpy as np

from .errors import DomainError, ResourceError

# Dense storage throughout; 12 qubits (dimension 4096) is the hard cap.
MAX_QUBITS = 12

# Largest |m - m^dag| entry a Hermitian input may carry.
HERM_TOL = 1e-10
# Lowest eigenvalue a positive semidefinite input may carry (then clipped to 0).
_PSD_FLOOR = -1e-10
# Largest deviation of a state's squared norm from 1.
_NORM_TOL = 1e-10
# State buffers from this size up are mapped pages, not heap memory.
_MAPPED_BUFFER_BYTES = 1 << 16

AXIS_X, AXIS_Y, AXIS_Z = AXES = 1, 2, 3
AXIS_LABELS = {AXIS_X: "x", AXIS_Y: "y", AXIS_Z: "z"}

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
IDENTITY_2 = np.eye(2, dtype=complex)
_PAULI_CHARS = {"I": IDENTITY_2, "X": PAULI_X, "Y": PAULI_Y, "Z": PAULI_Z}


def is_boolean(x) -> bool:
    """A Python bool or numpy bool."""
    return isinstance(x, (bool, np.bool_))


def is_integer(x) -> bool:
    """A Python int or numpy integer, and not a bool (is_boolean)."""
    return isinstance(x, (int, np.integer)) and not is_boolean(x)


def is_real_number(x) -> bool:
    """An integer (is_integer), a float or a numpy floating scalar."""
    return is_integer(x) or isinstance(x, (float, np.floating))


def is_number(x) -> bool:
    """A real number (is_real_number) or a Python or numpy complex."""
    return is_real_number(x) or isinstance(x, (complex, np.complexfloating))


def is_positive(x) -> bool:
    """A real number (is_real_number) that is finite and > 0."""
    return is_real_number(x) and math.isfinite(x) and x > 0


def is_nonnegative(x) -> bool:
    """A real number (is_real_number) that is finite and >= 0."""
    return is_real_number(x) and math.isfinite(x) and x >= 0


def check_finite_square(m, name: str, dim: int | None = None) -> np.ndarray:
    """m as a complex square matrix with finite entries; DomainError naming it otherwise.

    With dim given, m must also be dim x dim (the size rule).
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DomainError(f"{name} must be square, got shape {m.shape}")
    if dim is not None and m.shape[0] != dim:
        raise DomainError(f"{name} shape {m.shape} does not match dimension {dim}")
    if not np.isfinite(m).all():
        raise DomainError(f"{name} contains non-finite entries")
    return m


def check_hermitian(m, name: str, dim: int | None = None) -> np.ndarray:
    """The matrix gate: check_finite_square (with dim), then max |m - m^dag| within HERM_TOL."""
    m = check_finite_square(m, name, dim)
    asym = np.max(np.abs(m - m.conj().T), initial=0.0)
    if asym > HERM_TOL:
        raise DomainError(f"{name} is not Hermitian: max |m - m^dag| = {asym:.3e} > {HERM_TOL:.1e}")
    return m


def meets_psd_floor(eigenvalues: np.ndarray) -> bool:
    """The PSD floor: no eigenvalue below _PSD_FLOOR."""
    return eigenvalues.min(initial=0.0) >= _PSD_FLOOR


def channel_qubit_axis(index: int) -> tuple[int, int]:
    """The 1-based (qubit, axis) pair of the flat channel index 3*(qubit-1) + (axis-1)."""
    return index // 3 + 1, index % 3 + 1


def _check_qubit_count(num_qubits) -> int:
    """num_qubits as a Python int: a positive integer (is_integer) within MAX_QUBITS."""
    if not is_integer(num_qubits) or num_qubits < 1:
        raise DomainError(f"qubit count must be a positive integer, got {num_qubits!r}")
    if num_qubits > MAX_QUBITS:
        raise ResourceError(
            f"{num_qubits} qubits exceeds the dense-storage cap of {MAX_QUBITS}"
        )
    return int(num_qubits)


def axis_block(*axes: int) -> np.ndarray:
    """Complex 3x3 projector onto the given Pauli axes (1 x, 2 y, 3 z).

    The one check of an axis value: anything but 1, 2 or 3 is a DomainError,
    a bool too, although True == 1.
    """
    block = np.zeros((3, 3), dtype=complex)
    for axis in axes:
        if not is_real_number(axis) or axis not in AXES:
            raise DomainError(f"axis must be 1 (x), 2 (y) or 3 (z), got {axis!r}")
        block[int(axis) - 1, int(axis) - 1] = 1.0  # 2.0 is axis 2, as YAML reads it
    return block


def pauli_string_matrix(s: str) -> np.ndarray:
    """Dense matrix of a Pauli string like "XZZXI" (leftmost = qubit 1)."""
    _check_qubit_count(len(s))
    try:
        factors = [_PAULI_CHARS[c] for c in s]
    except KeyError as err:
        raise DomainError(f"invalid Pauli character {err.args[0]!r} in {s!r}") from None
    result = np.ones((1, 1), dtype=complex)
    for factor in factors:
        result = np.kron(result, factor)
    return result


def pauli_operator(qubit: int, axis: int, num_qubits: int) -> np.ndarray:
    """Single-qubit Pauli acting on `qubit` (1-based), identity elsewhere.

    Parameters
    ----------
    qubit : int
        Target qubit, an integer 1 <= qubit <= num_qubits; qubit 1 is the
        leftmost tensor factor (most significant basis bit).
    axis : int
        1, 2 or 3 for x, y, z.
    num_qubits : int
        Total number of qubits L; the result is 2**L x 2**L.
    """
    num_qubits = _check_qubit_count(num_qubits)
    if not is_integer(qubit) or not 1 <= qubit <= num_qubits:
        raise DomainError(f"qubit must be an integer in 1..{num_qubits}, got {qubit!r}")
    axis_block(axis)  # the shared axis check
    label = AXIS_LABELS[axis].upper()
    return pauli_string_matrix("I" * (qubit - 1) + label + "I" * (num_qubits - qubit))


def pauli_stack(num_qubits: int) -> np.ndarray:
    """All 3L single-qubit Paulis as one (3L, 2^L, 2^L) array in flat order."""
    num_qubits = _check_qubit_count(num_qubits)
    ops = [pauli_operator(*channel_qubit_axis(n), num_qubits) for n in range(3 * num_qubits)]
    return np.stack(ops)


def _frozen_array(m, dtype=complex) -> np.ndarray:
    out = np.array(m, dtype=dtype)
    out.setflags(write=False)
    return out


def psd_eigensystem(m, name: str) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix that meets the PSD floor.

    Returns ``(eigenvalues, eigenvectors)`` with eigenvalues real ascending
    and eigenvectors as the columns of a unitary matrix V, so that
    ``m = V @ diag(eigenvalues) @ V.conj().T``.  The input passes the matrix
    gate (check_hermitian, naming it `name`) and is symmetrized as
    (m + m^dag)/2 before decomposition.  Below the floor the DomainError
    carries the eigenvalues it measured as its `eigenvalues` attribute,
    which the validation suite reports.
    """
    m = check_hermitian(m, name)
    w, v = np.linalg.eigh(0.5 * (m + m.conj().T))
    if not meets_psd_floor(w):
        err = DomainError(
            f"{name} is not positive semidefinite: eigenvalue {w.min():.6e} < {_PSD_FLOOR:.1e}"
        )
        err.eigenvalues = w
        raise err
    return w, v


def normalized(psi: np.ndarray) -> np.ndarray:
    """psi / ||psi||, rejecting numerically zero vectors."""
    psi = np.asarray(psi, dtype=complex)
    norm = np.linalg.norm(psi)
    if norm < 1e-12:
        raise DomainError("cannot normalize a zero state vector")
    return psi / norm


def row_norms(psi: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """np.linalg.norm(psi, axis=1) of a complex (M, d) block, bit for bit.

    Runs numpy's own sequence (conjugate, multiply, real-part row sums, sqrt)
    with `scratch`, an array of psi's shape and dtype, in place of its two
    temporaries; scratch is overwritten.  A block of one element is
    squared into a fresh array instead: numpy 2.4's in-place multiply of a
    lone complex element rounds differently from the fresh product that
    np.linalg.norm takes for some values (1,485 of 20,000 draws near
    1e-150); from two elements on the two agree.

    A row of 1 <= d < 16 squares is summed column by column, over strided
    views of scratch.real, in the order of numpy's pairwise sum:
    ((x0 + x1) + x2) + ... for d < 8, and for 8 <= d < 16 the tree
    ((x0 + x1) + (x2 + x3)) + ((x4 + x5) + (x6 + x7)) followed by x8..x(d-1)
    in sequence.  Each column is then one vectorized add over all M rows
    instead of a short reduction per row, which makes the sum several times
    faster at d = 2..8.  The order is the same, so the bytes are too
    (tests/test_operators.py pins them against numpy).  From d = 16 on
    numpy's row reduction is faster (it keeps eight partial sums), and it
    is used as it is.
    """
    np.conjugate(psi, out=scratch)
    squares = np.multiply(scratch, psi, out=scratch if psi.size > 1 else None).real
    d = squares.shape[1]
    if not 0 < d < 16:
        return np.sqrt(np.add.reduce(squares, axis=1))
    col = squares.T
    if d < 8:
        total, rest = col[0].copy(), col[1:]
    else:
        total = (col[0] + col[1]) + (col[2] + col[3])
        total += (col[4] + col[5]) + (col[6] + col[7])
        rest = col[8:]
    for c in rest:
        total += c
    return np.sqrt(total, out=total)


def divide_rows(psi: np.ndarray, norms: np.ndarray) -> None:
    """psi /= norms[:, None] in place, for a complex (M, d) block and real norms.

    numpy divides a complex a + ib by a real n as (a + b*0) * (1/n) and
    (b - a*0) * (1/n), so multiplying the interleaved Re/Im parts by 1/n
    gives the same values; only an exact zero part may differ, in its sign.
    """
    np.multiply(psi.view(float), (1.0 / norms)[:, None], out=psi.view(float))


class StateBlock:
    """M state rows held as their distinct states, one slot per state.

    The block has `size` slots.  Row b's state is states[index[b]], and
    counts[k] >= 1 rows sit on slot k < size.  `states` is the first size
    rows of `buffer`, whose further rows are room for slots to come, and
    counts has room for M slots, so that adding slots allocates nothing
    that grows with them.  The block reports the shape of its rows,
    (M, dim), and only `rows` expands them.

    The spare rule: `spare` (None, or a buffer that shares no memory with
    `buffer`) is where the block's next states go.  Whatever produces the
    next block from this one (a jump step, a spread, a syndrome
    measurement) writes it into room_for(spare, ...), may use `buffer` as
    scratch once the states are read, and hands `buffer` on as the next
    block's spare.  A block therefore lives in two buffers that trade
    places, and its producer takes it over: a caller that still needs a
    block passes a copy.
    """

    def __init__(
        self, buffer: np.ndarray, index: np.ndarray, counts: np.ndarray, size: int, spare=None
    ):
        self.buffer, self.index, self.counts, self.size = buffer, index, counts, size
        self.states, self.spare = buffer[:size], spare

    @classmethod
    def shared(cls, psi: np.ndarray, num_rows: int) -> StateBlock:
        """num_rows rows of the one state psi, which is copied."""
        counts = np.zeros(num_rows, dtype=np.intp)
        counts[0] = num_rows
        return cls(np.array(psi, dtype=complex)[None], np.zeros(num_rows, np.intp), counts, 1)

    @classmethod
    def of(cls, rows) -> StateBlock:
        """A block as it is, or an (M, dim) array taken over as M slots of one row each."""
        if isinstance(rows, cls):
            return rows
        psi = np.require(rows, complex, "CW")
        m = psi.shape[0]
        return cls(psi, np.arange(m), np.ones(m, np.intp), m)

    @property
    def shape(self) -> tuple:
        return self.index.size, self.buffer.shape[1]

    def sources(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The slots of the given rows, each once, and each row's position among them.

        The slots come in ascending order, so a product over states[slots]
        steps each distinct state once and row rows[i] reads position pos[i]
        of it.  When every row has a slot of its own (size == M) they are the
        rows' own slots in row order, and pos is arange.
        """
        slots = self.index[rows]
        if self.size == self.index.size:
            return slots, np.arange(rows.size)
        # Sized M, not by the slot count; a scatter, several times faster
        # than a searchsorted over the distinct slots.
        seen = np.zeros(self.index.size, dtype=bool)
        seen[slots] = True
        distinct = np.flatnonzero(seen)
        at = np.empty(self.index.size, dtype=np.intp)
        at[distinct] = np.arange(distinct.size)
        return distinct, at[slots]

    def move(self, rows, sources, pos, cell, num_cells: int):
        """The one regrouping rule: rows that leave their states for an outcome regroup.

        sources and pos are sources(rows); cell is each row's outcome, an
        integer below num_cells (an array over rows, or one value for all).
        Rows that leave one slot for one cell form a (slot, cell) pair, and
        each pair's rows share one slot afterwards:
        - a slot that every one of its rows leaves hands itself to its
          lowest cell's pair;
        - every other pair takes a new slot, numbered from the old size in
          (slot, cell) order;
        - the rows that stay keep their slot, and slots are never merged,
          so rows share a slot afterwards only if they shared one before
          and then both stayed or both moved to the same cell.
        When every row has a slot of its own (size == M), each pair is one
        row, in row order, which keeps its slot, and no bookkeeping runs.

        index and counts are updated in place; size is not, the caller
        builds the next block.  Returns (size, pairs, cells, targets): the
        new slot count and, for each pair in (slot, cell) order, its
        position in sources, its cell and the slot its rows now sit on, so
        that the caller writes out[targets] = new_states[pairs, cells].
        """
        index, counts, k = self.index, self.counts, self.size
        if k == index.size:
            return k, pos, np.broadcast_to(cell, pos.shape), sources[pos]
        pair = pos * num_cells + cell
        moved = np.bincount(pair, minlength=sources.size * num_cells)
        pairs = np.flatnonzero(moved)
        of = pairs // num_cells  # each pair's position in sources
        counts[sources] -= np.bincount(pos, minlength=sources.size)
        emptied = np.flatnonzero(counts[sources] == 0)
        kept = np.searchsorted(of, emptied)  # the lowest cell's pair of each
        fresh = np.ones(pairs.size, dtype=bool)
        fresh[kept] = False
        size = k + pairs.size - kept.size
        targets = np.empty(pairs.size, dtype=np.intp)
        targets[kept] = sources[emptied]
        targets[fresh] = np.arange(k, size)
        counts[targets] = moved[pairs]
        target = np.empty(moved.size, dtype=np.intp)
        target[pairs] = targets
        index[rows] = target[pair]
        return size, of, pairs % num_cells, targets

    def rows(self, out=None) -> np.ndarray:
        """The (M, dim) rows, written into out when it is given, else into a new array."""
        # Every index is in range; under "clip" np.take writes straight into
        # out, where the default mode would fill a temporary first.
        return np.take(self.states, self.index, axis=0, out=out, mode="clip")


def room_for(buffer, rows: int, num_rows: int, dim: int) -> np.ndarray:
    """buffer when it has room for `rows` state rows, else a new one.

    Producers of a block's next states size its spare with it (StateBlock).

    A new buffer has room for twice as many rows, or for all num_rows rows
    of the block once rows passes a quarter of them (a block never has more
    slots than rows), so a block whose slots keep growing is given a new
    buffer only now and then.  From _MAPPED_BUFFER_BYTES on it is mapped
    pages, returned to the system when it is dropped: buffers that grow
    with a block's distinct states mid-run, taken from the heap, split the
    holes that later large arrays need, and an unraveling_grid benchmark
    run peaked 8 MB higher in one to five runs out of ten.
    """
    if buffer is not None and buffer.shape[0] >= rows:
        return buffer
    rows = num_rows if 4 * rows > num_rows else 2 * rows
    nbytes = rows * dim * np.dtype(complex).itemsize
    if nbytes < _MAPPED_BUFFER_BYTES:
        return np.empty((rows, dim), dtype=complex)
    return np.frombuffer(mmap.mmap(-1, nbytes), dtype=complex).reshape(rows, dim)


def gemm_operand(x: np.ndarray, num_rows: int) -> np.ndarray:
    """The left factor of a product for distinct states x that stand for num_rows block rows.

    Each row of the product must get the bytes it has in the product of the
    num_rows rows themselves.  The rows of a GEMM do not depend on the
    other rows, so any product of two or more rows will do, and a lone
    state is repeated to make two; the caller keeps the first x.shape[0]
    rows of the result.  numpy runs a product of one row through gemv,
    which can differ in the last bit, so a lone state that stands for one
    row is returned as it is.
    """
    return np.repeat(x, 2, axis=0) if x.shape[0] == 1 < num_rows else x


def matmul_rows(x: np.ndarray, matrix: np.ndarray, num_rows: int, out=None) -> np.ndarray:
    """x @ matrix for distinct states x that stand for num_rows block rows (gemm_operand)."""
    if x.shape[0] == 1 < num_rows:
        product = gemm_operand(x, num_rows) @ matrix
        if out is None:
            return product[:1]
        out[...] = product[:1]
        return out
    return np.matmul(x, matrix, out=out)


def basis_state(index: int, num_qubits: int) -> np.ndarray:
    """Computational basis vector |index> on L qubits, 0 <= index < 2**L."""
    num_qubits = _check_qubit_count(num_qubits)
    if not is_integer(index) or not 0 <= index < 2**num_qubits:
        raise DomainError(f"basis index must be in 0..{2**num_qubits - 1}, got {index!r}")
    psi = np.zeros(2**num_qubits, dtype=complex)
    psi[index] = 1.0
    return psi


def check_state_vector(psi, dim: int) -> np.ndarray:
    """psi as a complex vector of shape (dim,) with finite entries and unit norm.

    Unit norm is | ||psi||^2 - 1 | <= _NORM_TOL.  DomainError otherwise.
    """
    psi = np.asarray(psi, dtype=complex)
    if psi.shape != (dim,):
        raise DomainError(f"state vector shape {psi.shape} does not match dimension {dim}")
    if not np.isfinite(psi).all():
        raise DomainError("state vector contains non-finite amplitudes")
    norm_sq = float(np.vdot(psi, psi).real)
    if not abs(norm_sq - 1.0) <= _NORM_TOL:
        raise DomainError(
            f"state vector squared norm {norm_sq!r} deviates from 1 beyond {_NORM_TOL:.1e}"
        )
    return psi


def pure_state_projector(psi: np.ndarray) -> np.ndarray:
    """|psi><psi| as a dense matrix."""
    psi = np.asarray(psi, dtype=complex)
    return np.outer(psi, psi.conj())


def pure_state_fidelity(psi: np.ndarray, rho: np.ndarray) -> float:
    """<psi| rho |psi> for a pure reference state.

    psi passes the state rule (check_state_vector) and rho the size rule
    for psi's dimension (check_finite_square).
    """
    psi = check_state_vector(psi, np.size(psi))
    rho = check_finite_square(rho, "density matrix", psi.size)
    return float(np.real(psi.conj() @ rho @ psi))


def trace_distance(rho: np.ndarray, sigma: np.ndarray) -> float:
    """(1/2) * trace norm of rho - sigma (both Hermitian).

    Both are finite square matrices of one size (check_finite_square).
    """
    rho = check_finite_square(rho, "rho")
    sigma = check_finite_square(sigma, "sigma", rho.shape[0])
    delta = 0.5 * (rho - sigma)
    delta = 0.5 * (delta + delta.conj().T)
    return float(np.sum(np.abs(np.linalg.eigvalsh(delta))))
