"""Five-qubit perfect code: encoding, syndrome measurement, recovery.

The code stores one logical qubit in five physical qubits and corrects an
arbitrary single-qubit error.  Its error basis {R_0 = I, R_{3(l-1)+a} =
sigma_l^a} saturates the nondegeneracy (orthogonality) condition

    <Psi| R_n^dag R_n' |Psi> = delta_{n n'}

for every encoded state Psi, so the sixteen error images of a codeword are
mutually orthogonal and the four stabilizer generators resolve them with a
bijective syndrome table.  The table is derived at construction by brute
force anticommutation rather than entered by hand.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError, SimulationError
from .noise import _frozen_array
from .operators import (
    AXIS_LABELS,
    IDENTITY_2,
    PAULIS,
    basis_state,
    channel_qubit_axis,
    kron_chain,
    normalized,
)

_CHAR_MATRIX = {
    "I": IDENTITY_2,
    "X": PAULIS[0],
    "Y": PAULIS[1],
    "Z": PAULIS[2],
}

FIVE_QUBIT_GENERATORS = ("XZZXI", "IXZZX", "XIXZZ", "ZXIXZ")


def pauli_string_matrix(s: str) -> np.ndarray:
    """Dense matrix of a Pauli string like "XZZXI" (leftmost = qubit 1)."""
    try:
        return kron_chain(_CHAR_MATRIX[c] for c in s)
    except KeyError as err:
        raise DomainError(f"invalid Pauli character {err.args[0]!r} in {s!r}") from None


@dataclass(frozen=True)
class StabilizerCode:
    """Immutable code data: generators, codewords, error basis, syndrome map.

    Syndrome bits follow generator order (bit i = 0 for a +1 outcome of
    generator i) and pack into an integer as sum(bits[i] << i).
    `syndrome_table` maps that integer to the index of the error-basis
    element to undo; `syndrome_projectors[s]` projects onto the syndrome-s
    subspace.
    """

    n_physical: int
    generator_strings: tuple
    generators: np.ndarray
    plus_projectors: np.ndarray
    logical_zero: np.ndarray
    logical_one: np.ndarray
    error_basis: np.ndarray
    error_labels: tuple
    syndrome_of_error: tuple
    syndrome_table: dict
    syndrome_projectors: np.ndarray

    def __post_init__(self):
        for name in (
            "generators",
            "plus_projectors",
            "logical_zero",
            "logical_one",
            "error_basis",
            "syndrome_projectors",
        ):
            object.__setattr__(self, name, _frozen_array(getattr(self, name)))

    @property
    def dim(self) -> int:
        return self.logical_zero.shape[0]


@dataclass(frozen=True)
class SyndromeOutcome:
    """Result of one projective syndrome extraction."""

    bits: tuple
    index: int
    collapsed: np.ndarray
    born_probability: float


def syndrome_index(bits) -> int:
    return sum(int(b) << i for i, b in enumerate(bits))


def _commutation_bit(g: np.ndarray, r: np.ndarray) -> int:
    # Pauli strings either commute or anticommute; anything else is a bug.
    if np.max(np.abs(g @ r - r @ g)) < 1e-10:
        return 0
    if np.max(np.abs(g @ r + r @ g)) < 1e-10:
        return 1
    raise SimulationError("error operator neither commutes nor anticommutes")


def _self_check(code: StabilizerCode) -> None:
    gens = code.generators
    for i in range(len(gens)):
        if np.max(np.abs(gens[i] @ gens[i] - np.eye(code.dim))) > 1e-10:
            raise SimulationError(f"generator {i} does not square to identity")
        for j in range(i + 1, len(gens)):
            if np.max(np.abs(gens[i] @ gens[j] - gens[j] @ gens[i])) > 1e-10:
                raise SimulationError(f"generators {i} and {j} do not commute")
    for name, psi in (("zero", code.logical_zero), ("one", code.logical_one)):
        for i, g in enumerate(gens):
            if np.max(np.abs(g @ psi - psi)) > 1e-10:
                raise SimulationError(
                    f"logical {name} is not a +1 eigenstate of generator {i}"
                )
    if abs(code.logical_zero.conj() @ code.logical_one) > 1e-12:
        raise SimulationError("logical codewords are not orthogonal")
    if sorted(code.syndrome_of_error) != list(range(len(code.error_basis))):
        raise SimulationError("syndrome map is not a bijection")
    plus = (code.logical_zero + code.logical_one) / np.sqrt(2.0)
    for psi in (code.logical_zero, code.logical_one, plus):
        if _gram_deviation(code, psi) > 1e-10:
            raise SimulationError("error basis is not orthogonal on the code space")


def _gram_deviation(code: StabilizerCode, psi: np.ndarray) -> float:
    """max |<R_m psi|R_n psi> - delta_mn| over the error basis."""
    images = code.error_basis @ psi
    gram = images.conj() @ images.T
    return float(np.max(np.abs(gram - np.eye(len(images)))))


@lru_cache(maxsize=1)
def five_qubit_code() -> StabilizerCode:
    """Construct the [[5,1,3]] code and verify its defining properties."""
    n = 5
    dim = 2**n
    gens = np.stack([pauli_string_matrix(s) for s in FIVE_QUBIT_GENERATORS])
    eye = np.eye(dim, dtype=complex)
    plus_projectors = 0.5 * (eye + gens)

    # Codeword from the stabilizer projector; XXXXX is the logical X.
    proj = eye.copy()
    for p in plus_projectors:
        proj = p @ proj
    logical_zero = normalized(proj @ basis_state(0, n))
    logical_one = pauli_string_matrix("XXXXX") @ logical_zero

    labels = ["I"]
    ops = [eye]
    for m in range(3 * n):
        qubit, axis = channel_qubit_axis(m)
        s = "".join(
            AXIS_LABELS[axis].upper() if l == qubit else "I" for l in range(1, n + 1)
        )
        labels.append(f"{AXIS_LABELS[axis].upper()}{qubit}")
        ops.append(pauli_string_matrix(s))
    error_basis = np.stack(ops)

    syndrome_of_error = tuple(
        syndrome_index([_commutation_bit(g, r) for g in gens]) for r in error_basis
    )
    table = {s: m for m, s in enumerate(syndrome_of_error)}

    projectors = np.empty((2 ** len(gens), dim, dim), dtype=complex)
    for s in range(2 ** len(gens)):
        p = eye.copy()
        for i, g in enumerate(gens):
            sign = -1.0 if (s >> i) & 1 else 1.0
            p = (0.5 * (eye + sign * g)) @ p
        projectors[s] = p

    code = StabilizerCode(
        n_physical=n,
        generator_strings=FIVE_QUBIT_GENERATORS,
        generators=gens,
        plus_projectors=plus_projectors,
        logical_zero=logical_zero,
        logical_one=logical_one,
        error_basis=error_basis,
        error_labels=tuple(labels),
        syndrome_of_error=syndrome_of_error,
        syndrome_table=table,
        syndrome_projectors=projectors,
    )
    _self_check(code)
    return code


def encode(alpha: complex, beta: complex, code: StabilizerCode) -> np.ndarray:
    """Logical state alpha |0_L> + beta |1_L>; (alpha, beta) must be unit norm."""
    norm_sq = abs(alpha) ** 2 + abs(beta) ** 2
    if abs(norm_sq - 1.0) > 1e-10:
        raise DomainError(f"|alpha|^2 + |beta|^2 = {norm_sq!r}, expected 1")
    return alpha * code.logical_zero + beta * code.logical_one


def _batch_measure(psi: np.ndarray, uniforms: np.ndarray, code: StabilizerCode):
    """Projectively measure all generators in order on a block of pure states.

    uniforms has one column per generator; u < p_plus selects the +1 branch
    (bit 0).  Returns the collapsed (M, dim) states, the packed syndrome of
    each row and its Born probability (the product over the chosen branches).
    """
    syndrome = np.zeros(psi.shape[0], dtype=np.int64)
    born = np.ones(psi.shape[0])
    for i, p_plus in enumerate(code.plus_projectors):
        v_plus = psi @ p_plus.T
        q = np.einsum("bi,bi->b", v_plus.conj(), v_plus).real
        lo, hi = float(q.min()), float(q.max())
        if not -1e-10 <= lo <= hi <= 1.0 + 1e-10:
            raise SimulationError(f"branch probabilities [{lo!r}, {hi!r}] outside [0, 1]")
        take_plus = uniforms[:, i] < q
        born *= np.where(take_plus, q, 1.0 - q)
        v_minus = psi - v_plus
        psi = np.where(take_plus[:, None], v_plus, v_minus)
        norms = np.linalg.norm(psi, axis=1)
        psi = psi / norms[:, None]
        syndrome += (~take_plus).astype(np.int64) << i
    return psi, syndrome, born


def _batch_recover(
    psi: np.ndarray, syndrome: np.ndarray, code: StabilizerCode
) -> np.ndarray:
    """Undo the error each row's syndrome names (Pauli recoveries are involutive)."""
    out = np.empty_like(psi)
    for s in np.unique(syndrome):
        rows = syndrome == s
        r = code.error_basis[code.syndrome_table[int(s)]]
        out[rows] = psi[rows] @ r.T
    norms = np.linalg.norm(out, axis=1)
    return out / norms[:, None]


def _batch_syndrome_recover(
    psi: np.ndarray, uniforms: np.ndarray, code: StabilizerCode
) -> np.ndarray:
    """Measure-and-recover for a block of pure states; returns the (M, dim) result."""
    collapsed, syndrome, _ = _batch_measure(psi, uniforms, code)
    return _batch_recover(collapsed, syndrome, code)


def measure_syndrome(
    psi: np.ndarray, code: StabilizerCode, rng: np.random.Generator
) -> SyndromeOutcome:
    """Projectively measure all generators in order, collapsing the state.

    The one-row case of the batched measurement: one uniform per generator,
    drawn in generator order.
    """
    psi = np.asarray(psi, dtype=complex)
    if psi.shape != (code.dim,):
        raise DomainError(f"state shape {psi.shape} does not match code dimension")
    uniforms = rng.random(len(code.generators))
    collapsed, syndrome, born = _batch_measure(psi[None, :], uniforms[None, :], code)
    index = int(syndrome[0])
    return SyndromeOutcome(
        bits=tuple((index >> i) & 1 for i in range(len(code.generators))),
        index=index,
        collapsed=collapsed[0],
        born_probability=float(born[0]),
    )


def recover(outcome: SyndromeOutcome, code: StabilizerCode) -> np.ndarray:
    """Undo the error named by the syndrome of one measurement outcome."""
    return _batch_recover(outcome.collapsed[None, :], np.array([outcome.index]), code)[0]


def correction_channel(rho: np.ndarray, code: StabilizerCode) -> np.ndarray:
    """Deterministic superoperator of measure-and-recover.

    Returns sum_s R_{m(s)} P_s rho P_s R_{m(s)}^dag; trace preservation is
    verified to 1e-10.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (code.dim, code.dim):
        raise DomainError(f"density matrix shape {rho.shape} does not match code")
    out = np.zeros_like(rho)
    for s, p in enumerate(code.syndrome_projectors):
        rp = code.error_basis[code.syndrome_table[s]] @ p
        out += rp @ rho @ rp.conj().T
    if abs(out.trace() - rho.trace()) > 1e-10:
        raise SimulationError("correction channel failed to preserve the trace")
    return out
