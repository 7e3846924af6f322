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

from .errors import SimulationError
from .operators import (
    StateBlock,
    basis_state,
    check_finite_square,
    check_state_vector,
    divide_rows,
    matmul_rows,
    normalized,
    pauli_stack,
    pauli_string_matrix,
    room_for,
    row_norms,
    _frozen_array,
)

FIVE_QUBIT_GENERATORS = ("XZZXI", "IXZZX", "XIXZZ", "ZXIXZ")


@dataclass(frozen=True)
class StabilizerCode:
    """Immutable code data: generators, codewords, error basis, syndrome map.

    Syndrome bits follow generator order (bit i = 0 for a +1 outcome of
    generator i) and pack into an integer as sum(bits[i] << i).
    `syndrome_table` maps that integer to the index of the error-basis
    element to undo, and `recovery_products[s]` is R_{m(s)} P_s, that
    element times the projector onto the syndrome-s subspace: the terms of
    the correction channel.  `error_basis[0]` is the identity and
    `error_basis[1 + 3*(qubit-1) + (axis-1)]` the Pauli sigma_qubit^axis.
    """

    n_physical: int
    generators: np.ndarray
    plus_projectors: np.ndarray
    logical_zero: np.ndarray
    logical_one: np.ndarray
    error_basis: np.ndarray
    syndrome_of_error: tuple
    syndrome_table: dict
    recovery_products: np.ndarray

    def __post_init__(self):
        for name in (
            "generators",
            "plus_projectors",
            "logical_zero",
            "logical_one",
            "error_basis",
            "recovery_products",
        ):
            object.__setattr__(self, name, _frozen_array(getattr(self, name)))

    @property
    def dim(self) -> int:
        return self.logical_zero.shape[0]


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
    error_basis = np.concatenate([eye[None], pauli_stack(n)])
    syndrome_of_error = tuple(
        sum(_commutation_bit(g, r) << i for i, g in enumerate(gens)) for r in error_basis
    )
    table = {s: m for m, s in enumerate(syndrome_of_error)}

    # P_s is the ordered product of P+_i (bit i of s is 0) or I - P+_i (bit 1),
    # the projectors _batch_measure measures with; P_0 projects onto the code
    # space.  Each product is R_{m(s)} P_s.
    products = np.empty((2 ** len(gens), dim, dim), dtype=complex)
    for s in range(len(products)):
        p = eye.copy()
        for i, plus in enumerate(plus_projectors):
            p = (eye - plus if (s >> i) & 1 else plus) @ p
        if s == 0:
            code_space = p
        products[s] = error_basis[table[s]] @ p

    # Codeword from the code-space projector; XXXXX is the logical X.
    logical_zero = normalized(code_space @ basis_state(0, n))
    logical_one = pauli_string_matrix("XXXXX") @ logical_zero

    code = StabilizerCode(
        n_physical=n,
        generators=gens,
        plus_projectors=plus_projectors,
        logical_zero=logical_zero,
        logical_one=logical_one,
        error_basis=error_basis,
        syndrome_of_error=syndrome_of_error,
        syndrome_table=table,
        recovery_products=products,
    )
    _self_check(code)
    return code


def encode(alpha: complex, beta: complex, code: StabilizerCode) -> np.ndarray:
    """Logical state alpha |0_L> + beta |1_L>; (alpha, beta) passes check_state_vector."""
    check_state_vector((alpha, beta), 2)
    return alpha * code.logical_zero + beta * code.logical_one


def _batch_measure(psi, uniforms: np.ndarray, code: StabilizerCode):
    """Projectively measure all generators in order on a block of pure states.

    psi is a StateBlock or an (M, dim) array, and is taken over.  uniforms
    has one column per generator; u < p_plus selects the +1 branch (bit 0).
    Returns the collapsed StateBlock and the packed syndrome of each of its
    slots, of length block.size: row b's is syndrome[block.index[b]].  Each
    distinct state is measured once, and after each generator the -1 rows
    regroup as one outcome (StateBlock.move), so the rows of a slot always
    share their syndrome.  Each generator's block goes into the spare of
    the one before (StateBlock's spare rule), sized for two slots per slot,
    as a generator splits a slot into at most two.
    """
    block = StateBlock.of(psi)
    m, dim = block.shape
    scratch = None
    syndrome = np.zeros(m, dtype=np.int64)
    for i, p_plus in enumerate(code.plus_projectors):
        states, k = block.states, block.size
        out = room_for(block.spare, min(2 * k, m), m, dim)
        v = matmul_rows(states, p_plus.T, m, out=out[:k])
        scratch = room_for(scratch, k, m, dim)
        q = np.einsum("bi,bi->b", np.conjugate(v, out=scratch[:k]), v).real
        lo, hi = float(q.min()), float(q.max())
        if not -1e-10 <= lo <= hi <= 1.0 + 1e-10:
            raise SimulationError(f"branch probabilities [{lo!r}, {hi!r}] outside [0, 1]")
        # With one outcome each source is one pair, in order, whose target
        # slot gets the -1 branch psi - v_plus and the source's syndrome with
        # bit i set; every other slot keeps v_plus and its syndrome.
        rows = np.flatnonzero(~(uniforms[:, i] < q[block.index]))
        sources, pos = block.sources(rows)
        size, _, _, targets = block.move(rows, sources, pos, 0, 1)
        out[targets] = states[sources] - v[sources]
        syndrome[targets] = syndrome[sources] | (1 << i)
        scratch = room_for(scratch, size, m, dim)
        divide_rows(out[:size], row_norms(out[:size], scratch[:size]))
        block = StateBlock(out, block.index, block.counts, size, block.buffer)
    return block, syndrome[: block.size]


def _batch_syndrome_recover(psi, uniforms: np.ndarray, code: StabilizerCode) -> StateBlock:
    """Measure-and-recover for a block of pure states; returns the recovered StateBlock.

    psi is a StateBlock or an (M, dim) array, and is taken over.  Each
    slot's syndrome (_batch_measure) names the error to undo (Pauli
    recoveries are involutive); slots whose error is R_0 = I are left as
    they are.  Each distinct state is recovered once, in a product that
    stands for its syndrome's rows, and the block's spare is the scratch of
    the final normalization.
    """
    block, syndrome = _batch_measure(psi, uniforms, code)
    states, counts, k = block.states, block.counts, block.size
    for s in np.flatnonzero(np.bincount(syndrome)):
        m = code.syndrome_table[int(s)]
        if m == 0:
            continue
        slots = np.flatnonzero(syndrome == s)
        states[slots] = matmul_rows(states[slots], code.error_basis[m].T, counts[slots].sum())
    block.spare = room_for(block.spare, k, *block.shape)
    divide_rows(states, row_norms(states, block.spare[:k]))
    return block


def correction_channel(rho: np.ndarray, code: StabilizerCode) -> np.ndarray:
    """Deterministic superoperator of measure-and-recover.

    Returns sum_s R_{m(s)} P_s rho P_s R_{m(s)}^dag; trace preservation is
    verified to 1e-10.
    """
    rho = check_finite_square(rho, "density matrix", code.dim)
    out = np.zeros_like(rho)
    for rp in code.recovery_products:
        out += rp @ rho @ rp.conj().T
    if abs(out.trace() - rho.trace()) > 1e-10:
        raise SimulationError("correction channel failed to preserve the trace")
    return out
