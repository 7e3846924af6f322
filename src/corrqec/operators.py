"""Dense complex kernels and Pauli constructors on the 2**L qubit Hilbert space.

Everything downstream (noise channels, integrators, trajectory sampling, the
stabilizer code) is built from the handful of primitives in this module.
Qubits are numbered 1..L with qubit 1 occupying the leftmost tensor slot, and
the (qubit, axis) pair is flattened as ``3*(qubit-1) + (axis-1)``; that single
convention indexes the rate/shift matrices and the jump-channel numbering
everywhere in the package.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import expm

from .errors import DomainError, ResourceError

# Dense storage throughout; 2**12 = 4096 is the hard dimension cap.
MAX_QUBITS = 12
MAX_DIM = 2**MAX_QUBITS

AXIS_X, AXIS_Y, AXIS_Z = 1, 2, 3
AXIS_LABELS = {AXIS_X: "x", AXIS_Y: "y", AXIS_Z: "z"}

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
IDENTITY_2 = np.eye(2, dtype=complex)
PAULIS = (PAULI_X, PAULI_Y, PAULI_Z)


def channel_index(qubit: int, axis: int) -> int:
    """Flatten a 1-based (qubit, axis) pair to the global channel index."""
    return 3 * (qubit - 1) + (axis - 1)


def channel_qubit_axis(index: int) -> tuple[int, int]:
    """Invert :func:`channel_index`."""
    return index // 3 + 1, index % 3 + 1


def _check_qubit_count(num_qubits: int) -> None:
    if num_qubits < 1:
        raise DomainError(f"qubit count must be positive, got {num_qubits}")
    if num_qubits > MAX_QUBITS:
        raise ResourceError(
            f"{num_qubits} qubits exceeds the dense-storage cap of {MAX_QUBITS}"
        )


def pauli_operator(qubit: int, axis: int, num_qubits: int) -> np.ndarray:
    """Single-qubit Pauli acting on `qubit` (1-based), identity elsewhere.

    Parameters
    ----------
    qubit : int
        Target qubit, 1 <= qubit <= num_qubits; qubit 1 is the leftmost
        tensor factor (most significant basis bit).
    axis : int
        1, 2 or 3 for x, y, z.
    num_qubits : int
        Total number of qubits L; the result is 2**L x 2**L.
    """
    _check_qubit_count(num_qubits)
    if not 1 <= qubit <= num_qubits:
        raise DomainError(f"qubit {qubit} out of range 1..{num_qubits}")
    if axis not in (AXIS_X, AXIS_Y, AXIS_Z):
        raise DomainError(f"axis must be 1 (x), 2 (y) or 3 (z), got {axis}")
    op = np.ones((1, 1), dtype=complex)
    for slot in range(1, num_qubits + 1):
        op = np.kron(op, PAULIS[axis - 1] if slot == qubit else IDENTITY_2)
    return op


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product with the package-wide dimension cap enforced."""
    rows = a.shape[0] * b.shape[0]
    cols = a.shape[1] * b.shape[1]
    if max(rows, cols) > MAX_DIM:
        raise ResourceError(
            f"kron result {rows}x{cols} exceeds the {MAX_DIM} dense-dimension cap"
        )
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def kron_chain(factors) -> np.ndarray:
    """Kronecker product of a sequence of matrices, left to right."""
    result = np.ones((1, 1), dtype=complex)
    for f in factors:
        result = kron(result, f)
    return result


def hermitian_eigensystem(
    m: np.ndarray, tol: float = 1e-10
) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Returns ``(eigenvalues, eigenvectors)`` with eigenvalues real ascending
    and eigenvectors as the columns of a unitary matrix V, so that
    ``m = V @ diag(eigenvalues) @ V.conj().T``.  The input is symmetrized as
    (m + m^dag)/2 before decomposition; asymmetry beyond `tol` is an error.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DomainError(f"expected a square matrix, got shape {m.shape}")
    asym = np.max(np.abs(m - m.conj().T)) if m.size else 0.0
    if asym > tol:
        raise DomainError(
            f"matrix is not Hermitian: max |m - m^dag| = {asym:.3e} > {tol:.1e}"
        )
    sym = 0.5 * (m + m.conj().T)
    eigenvalues, eigenvectors = np.linalg.eigh(sym)
    return eigenvalues, eigenvectors


def matrix_exponential(m: np.ndarray, scale: complex = 1.0) -> np.ndarray:
    """exp(scale * m) for a dense square matrix (Pade scaling-and-squaring)."""
    m = np.asarray(m, dtype=complex)
    if m.shape[0] > MAX_DIM:
        raise ResourceError(f"matrix dimension {m.shape[0]} exceeds {MAX_DIM}")
    return expm(scale * m)


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


def basis_state(index: int, num_qubits: int) -> np.ndarray:
    """Computational basis vector |index> on L qubits."""
    _check_qubit_count(num_qubits)
    psi = np.zeros(2**num_qubits, dtype=complex)
    psi[index] = 1.0
    return psi


def check_state_vector(psi: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """Validate amplitudes: power-of-two length, finite, unit norm."""
    psi = np.asarray(psi, dtype=complex)
    if psi.ndim != 1:
        raise DomainError(f"state vector must be one-dimensional, got {psi.ndim}")
    num_qubits_for_dim(psi.shape[0])
    if not np.all(np.isfinite(psi.view(float))):
        raise DomainError("state vector contains non-finite amplitudes")
    norm = np.linalg.norm(psi)
    if abs(norm - 1.0) > tol:
        raise DomainError(f"state vector norm {norm!r} deviates from 1 beyond {tol:.1e}")
    return psi


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
