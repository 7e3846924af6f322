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
HERM_TOL), the density-matrix check (square, finite, of the expected
dimension), the PSD floor and the unit-norm tolerance.  Callers of the
scalar rules raise their own error type with a message naming the value;
the matrix gate, the density-matrix check and the PSD floor raise
DomainError naming the matrix.  The counts, indices and seeds the library
takes (qubit count, qubit and basis index, trajectory count, base seed) pass
the integer rule: numpy integers are accepted like Python ints, and a bool,
a float or a string is a DomainError.  A flag passes the boolean rule, which
accepts numpy bools like Python bools.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, ResourceError

# Dense storage throughout; 12 qubits (dimension 4096) is the hard cap.
MAX_QUBITS = 12

# Largest |m - m^dag| entry a Hermitian input may carry.
HERM_TOL = 1e-10
# Lowest eigenvalue a positive semidefinite input may carry (then clipped to 0).
_PSD_FLOOR = -1e-10
# Largest deviation of a state's norm (or of |alpha|^2 + |beta|^2) from 1.
_NORM_TOL = 1e-10

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


def check_finite_square(m, name: str) -> np.ndarray:
    """m as a complex square matrix with finite entries; DomainError naming it otherwise."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DomainError(f"{name} must be square, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise DomainError(f"{name} contains non-finite entries")
    return m


def check_hermitian(m, name: str) -> np.ndarray:
    """The matrix gate: check_finite_square, then max |m - m^dag| within HERM_TOL."""
    m = check_finite_square(m, name)
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


def _eigensystem(m, name: str) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Returns ``(eigenvalues, eigenvectors)`` with eigenvalues real ascending
    and eigenvectors as the columns of a unitary matrix V, so that
    ``m = V @ diag(eigenvalues) @ V.conj().T``.  The input passes the matrix
    gate (check_hermitian, naming it `name`) and is symmetrized as
    (m + m^dag)/2 before decomposition.
    """
    m = check_hermitian(m, name)
    return tuple(np.linalg.eigh(0.5 * (m + m.conj().T)))


def psd_eigensystem(m, name: str) -> tuple[np.ndarray, np.ndarray]:
    """The eigensystem of m (_eigensystem), which must also meet the PSD floor.

    Below the floor the DomainError carries the eigenvalues it measured as
    its `eigenvalues` attribute, which the validation suite reports.
    """
    w, v = _eigensystem(m, name)
    if not meets_psd_floor(w):
        err = DomainError(
            f"{name} is not positive semidefinite: eigenvalue {w.min():.6e} < {_PSD_FLOOR:.1e}"
        )
        err.eigenvalues = w
        raise err
    return w, v


def num_qubits_for_dim(dim: int) -> int:
    """Number of qubits L with 2**L == dim; rejects non-power-of-two sizes."""
    num_qubits = int(dim).bit_length() - 1
    if dim <= 0 or 2**num_qubits != dim:
        raise DomainError(f"dimension {dim} is not a power of two")
    _check_qubit_count(num_qubits)
    return num_qubits


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
    temporaries; scratch is overwritten.

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
    np.multiply(scratch, psi, out=scratch)
    squares = scratch.real
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


def basis_state(index: int, num_qubits: int) -> np.ndarray:
    """Computational basis vector |index> on L qubits, 0 <= index < 2**L."""
    num_qubits = _check_qubit_count(num_qubits)
    if not is_integer(index) or not 0 <= index < 2**num_qubits:
        raise DomainError(f"basis index must be in 0..{2**num_qubits - 1}, got {index!r}")
    psi = np.zeros(2**num_qubits, dtype=complex)
    psi[index] = 1.0
    return psi


def check_state_vector(psi: np.ndarray) -> np.ndarray:
    """Validate amplitudes: power-of-two length, finite, unit norm."""
    psi = np.asarray(psi, dtype=complex)
    if psi.ndim != 1:
        raise DomainError(f"state vector must be one-dimensional, got {psi.ndim}")
    num_qubits_for_dim(psi.shape[0])
    if not np.all(np.isfinite(psi.view(float))):
        raise DomainError("state vector contains non-finite amplitudes")
    norm = np.linalg.norm(psi)
    if abs(norm - 1.0) > _NORM_TOL:
        raise DomainError(f"state vector norm {norm!r} deviates from 1 beyond {_NORM_TOL:.1e}")
    return psi


def check_density_matrix(rho, dim: int) -> np.ndarray:
    """rho as a finite complex dim x dim matrix (check_finite_square); DomainError otherwise."""
    rho = check_finite_square(rho, "density matrix")
    if rho.shape != (dim, dim):
        raise DomainError(f"density matrix shape {rho.shape} does not match dimension {dim}")
    return rho


def pure_state_projector(psi: np.ndarray) -> np.ndarray:
    """|psi><psi| as a dense matrix."""
    psi = np.asarray(psi, dtype=complex)
    return np.outer(psi, psi.conj())


def pure_state_fidelity(psi: np.ndarray, rho: np.ndarray) -> float:
    """<psi| rho |psi> for a pure reference state."""
    psi = np.asarray(psi, dtype=complex)
    return float(np.real(psi.conj() @ np.asarray(rho, dtype=complex) @ psi))


def trace_distance(rho: np.ndarray, sigma: np.ndarray) -> float:
    """(1/2) * trace norm of rho - sigma (both Hermitian)."""
    delta = 0.5 * (rho - sigma)
    delta = 0.5 * (delta + delta.conj().T)
    return float(np.sum(np.abs(np.linalg.eigvalsh(delta))))
