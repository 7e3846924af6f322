"""Five-qubit code tests: stabilizer algebra, syndrome extraction, recovery."""

import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from corrqec.errors import DomainError, SimulationError
from corrqec.operators import StateBlock, pauli_string_matrix, trace_distance
from corrqec.qecc import (
    FIVE_QUBIT_GENERATORS,
    _batch_measure,
    _batch_syndrome_recover,
    correction_channel,
    encode,
    five_qubit_code,
)


def _random_encoded(rng, code):
    a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    a = a / np.linalg.norm(a)
    return encode(a[0], a[1], code)


def test_pauli_string_matrix():
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sz = np.diag([1.0, -1.0]).astype(complex)
    np.testing.assert_array_equal(pauli_string_matrix("XZ"), np.kron(sx, sz))
    with pytest.raises(DomainError):
        pauli_string_matrix("XQ")


# The former qecc construction of a Pauli string, kept as a byte reference:
# left-to-right np.kron from a 1x1 one over these matrices.
_REFERENCE_CHARS = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "Y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "Z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}


def _reference_string(s):
    result = np.ones((1, 1), dtype=complex)
    for c in s:
        result = np.kron(result, _REFERENCE_CHARS[c])
    return result


def test_code_operators_match_kron_chain_bit_for_bit():
    code = five_qubit_code()
    gens = np.stack([_reference_string(s) for s in FIVE_QUBIT_GENERATORS])
    assert code.generators.tobytes() == gens.tobytes()
    singles = [
        _reference_string("I" * (q - 1) + c + "I" * (5 - q))
        for q in range(1, 6)
        for c in "XYZ"
    ]
    basis = np.concatenate([np.eye(32, dtype=complex)[None], np.stack(singles)])
    assert code.error_basis.tobytes() == basis.tobytes()


def test_generator_algebra():
    code = five_qubit_code()
    gens = code.generators
    assert np.array_equal(gens, np.stack([pauli_string_matrix(s) for s in FIVE_QUBIT_GENERATORS]))
    eye = np.eye(32)
    for i in range(4):
        np.testing.assert_allclose(gens[i] @ gens[i], eye, atol=1e-12)
        for j in range(i + 1, 4):
            np.testing.assert_allclose(gens[i] @ gens[j], gens[j] @ gens[i], atol=1e-12)
    # independence: every nonempty subset product is a non-identity Pauli
    # string, hence traceless
    for r in range(1, 5):
        for subset in itertools.combinations(range(4), r):
            prod = eye.astype(complex)
            for i in subset:
                prod = gens[i] @ prod
            assert abs(prod.trace()) < 1e-10


def test_logical_states():
    code = five_qubit_code()
    for psi in (code.logical_zero, code.logical_one):
        assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-12)
        for g in code.generators:
            np.testing.assert_allclose(g @ psi, psi, atol=1e-12)
    assert abs(code.logical_zero.conj() @ code.logical_one) < 1e-12
    # XXXXX and ZZZZZ act as the logical flip and phase
    lx = pauli_string_matrix("XXXXX")
    lz = pauli_string_matrix("ZZZZZ")
    np.testing.assert_allclose(lx @ code.logical_zero, code.logical_one, atol=1e-12)
    np.testing.assert_allclose(lx @ code.logical_one, code.logical_zero, atol=1e-12)
    np.testing.assert_allclose(lz @ code.logical_zero, code.logical_zero, atol=1e-12)
    np.testing.assert_allclose(lz @ code.logical_one, -code.logical_one, atol=1e-12)


def test_error_basis_layout():
    code = five_qubit_code()
    assert code.error_basis.shape == (16, 32, 32)
    # R_0 = I, then R_{1 + 3(l-1) + (a-1)} = sigma_l^a: index 7 is X on qubit 3
    np.testing.assert_array_equal(code.error_basis[0], np.eye(32))
    np.testing.assert_array_equal(code.error_basis[7], pauli_string_matrix("IIXII"))
    # every non-identity element is a weight-1 Pauli: unitary, Hermitian, traceless
    for op in code.error_basis[1:]:
        np.testing.assert_allclose(op @ op, np.eye(32), atol=1e-12)
        np.testing.assert_allclose(op, op.conj().T, atol=1e-12)
        assert abs(op.trace()) < 1e-12


def test_error_images_orthonormal():
    # <Psi|R_n^dag R_n'|Psi> = delta for fixed and random encoded states
    code = five_qubit_code()
    rng = np.random.default_rng(17)
    states = [
        code.logical_zero,
        code.logical_one,
        (code.logical_zero + code.logical_one) / np.sqrt(2),
    ]
    states += [_random_encoded(rng, code) for _ in range(10)]
    for psi in states:
        images = code.error_basis @ psi
        gram = images.conj() @ images.T
        np.testing.assert_allclose(gram, np.eye(16), atol=1e-10)


def test_syndrome_table_bijection():
    code = five_qubit_code()
    assert sorted(code.syndrome_of_error) == list(range(16))
    assert code.syndrome_of_error[0] == 0
    for s, m in code.syndrome_table.items():
        assert code.syndrome_of_error[m] == s
    # independent oracle: bit i of the syndrome is the anticommutation of
    # error m with generator i
    for m, op in enumerate(code.error_basis):
        s = code.syndrome_of_error[m]
        for i, g in enumerate(code.generators):
            anti = np.max(np.abs(g @ op + op @ g)) < 1e-10
            assert ((s >> i) & 1) == int(anti)


def test_syndrome_index_packing():
    # bit i of a syndrome is generator i's outcome (1 for -1), packed as sum(bits[i] << i),
    # in the code's table and in the measured syndrome alike
    code = five_qubit_code()
    bits_of_error = [
        [int(np.max(np.abs(g @ op + op @ g)) < 1e-10) for g in code.generators]
        for op in code.error_basis
    ]
    uniforms = np.full((1, len(code.generators)), 0.5)
    for bits, packed in (
        ([0, 0, 0, 0], 0), ([1, 0, 0, 0], 1), ([0, 1, 0, 1], 10), ([1, 1, 1, 1], 15)
    ):
        m = bits_of_error.index(bits)
        assert code.syndrome_of_error[m] == packed
        image = (code.error_basis[m] @ code.logical_zero)[None]
        assert _batch_measure(image, uniforms, code)[1].tolist() == [packed]


def _syndrome_projector(code, s):
    # P_s is the ordered product, generator 0 first, of the projectors that
    # _batch_measure applies: P+_i for bit i of s equal to 0, I - P+_i for 1.
    eye = np.eye(code.dim, dtype=complex)
    p = eye
    for i, plus in enumerate(code.plus_projectors):
        p = (eye - plus if (s >> i) & 1 else plus) @ p
    return p


def test_syndrome_projectors_resolve_identity():
    code = five_qubit_code()
    projectors = np.array([_syndrome_projector(code, s) for s in range(16)])
    total = projectors.sum(axis=0)
    np.testing.assert_allclose(total, np.eye(32), atol=1e-10)
    for s, p in enumerate(projectors):
        np.testing.assert_allclose(p @ p, p, atol=1e-10)
        np.testing.assert_allclose(p, p.conj().T, atol=1e-10)


def test_syndrome_projectors_are_the_measured_projectors():
    # The recovery products are R_m(s) times the measured P_s, bit for bit,
    # and P_s is the product of the signed generator projectors.
    code = five_qubit_code()
    eye = np.eye(code.dim, dtype=complex)
    for s in range(16):
        p = _syndrome_projector(code, s)
        expected = code.error_basis[code.syndrome_table[s]] @ p
        assert code.recovery_products[s].tobytes() == expected.tobytes()
        signed = eye
        for i, g in enumerate(code.generators):
            signed = 0.5 * (eye + (-1) ** ((s >> i) & 1) * g) @ signed
        np.testing.assert_allclose(p, signed, atol=1e-15)


def test_batch_measure_codeword_is_trivial():
    code = five_qubit_code()
    uniforms = np.random.default_rng(0).random((1, len(code.generators)))
    collapsed, syndrome = _batch_measure(code.logical_zero[None], uniforms, code)
    assert syndrome[0] == 0
    assert abs(np.vdot(collapsed.rows()[0], code.logical_zero)) == pytest.approx(1.0, abs=1e-10)


def test_exhaustive_single_error_recovery():
    # every weight-1 error on every encoded state is identified and undone
    code = five_qubit_code()
    rng = np.random.default_rng(29)
    states = [
        code.logical_zero,
        code.logical_one,
        encode(0.6, 0.8j, code),
    ]
    states += [_random_encoded(rng, code) for _ in range(7)]
    meas_rng = np.random.default_rng(5150)
    for psi in states:
        images = code.error_basis @ psi
        uniforms = meas_rng.random((len(images), len(code.generators)))
        _, syndromes = _batch_measure(images.copy(), uniforms, code)
        assert syndromes.tolist() == list(code.syndrome_of_error)
        fixed = _batch_syndrome_recover(images, uniforms, code)
        np.testing.assert_allclose(np.abs(fixed.rows() @ psi.conj()), 1.0, rtol=0, atol=1e-9)


def test_batch_measure_branch_statistics():
    # coherent mixture of two error images: outcome frequencies follow the
    # Born weights and each branch collapses onto its image
    code = five_qubit_code()
    theta = 0.7
    x3 = code.error_basis[7]
    psi = np.cos(theta) * code.logical_zero + np.sin(theta) * (x3 @ code.logical_zero)
    s_x3 = code.syndrome_of_error[7]
    rng = np.random.default_rng(61)
    m = 2000
    uniforms = rng.random((m, len(code.generators)))
    collapsed, syndromes = _batch_measure(np.tile(psi, (m, 1)), uniforms, code)
    assert set(syndromes.tolist()) <= {0, s_x3}
    hit = syndromes == s_x3
    target = np.where(hit[:, None], x3 @ code.logical_zero, code.logical_zero)
    overlaps = np.einsum("bi,bi->b", target.conj(), collapsed.rows())
    np.testing.assert_allclose(np.abs(overlaps), 1.0, rtol=0, atol=1e-10)
    p = np.sin(theta) ** 2
    assert abs(hit.sum() / m - p) < 3 * np.sqrt(p * (1 - p) / m)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), images=st.lists(st.booleans(), min_size=1, max_size=8))
def test_batch_syndrome_recover_matches_row_by_row(seed, images):
    # A block of rows, each either a single-error image of a random codeword
    # (True) or an arbitrary random state (False), goes through the batched
    # step; every row must match the reference run on that row alone, fed
    # the same uniforms from its own stream.
    code = five_qubit_code()
    rng = np.random.default_rng(seed)
    rows, errors = [], []
    for image in images:
        if image:
            m = int(rng.integers(len(code.error_basis)))
            rows.append(code.error_basis[m] @ _random_encoded(rng, code))
        else:
            m = None
            v = rng.standard_normal(code.dim) + 1j * rng.standard_normal(code.dim)
            rows.append(v / np.linalg.norm(v))
        errors.append(m)
    psi = np.array(rows)
    streams = [int(s) for s in rng.integers(2**63, size=len(rows))]
    n_gen = len(code.generators)
    uniforms = np.array([np.random.default_rng(s).random(n_gen) for s in streams])
    batched = _batch_syndrome_recover(psi.copy(), uniforms, code).rows()
    _, syndromes = _batch_measure(psi.copy(), uniforms, code)
    assert batched.shape == psi.shape
    for i, (m, s, out) in enumerate(zip(errors, syndromes, batched)):
        alone = slice(i, i + 1)
        recovered, _, syndrome = _reference_syndrome_recover(psi[alone], uniforms[alone], code)
        assert syndrome[0] == s
        if m is not None:
            assert s == code.syndrome_of_error[m]
        np.testing.assert_allclose(out, recovered[0], rtol=0, atol=1e-12)


def _reference_syndrome_recover(psi, uniforms, code):
    # The batched measure-and-recover written with fresh temporaries, as it
    # was before it reused its buffers.  Returns the recovered block, the
    # collapsed block and the packed syndromes; psi is left as it was.
    syndrome = np.zeros(psi.shape[0], dtype=np.int64)
    for i, p_plus in enumerate(code.plus_projectors):
        v_plus = psi @ p_plus.T
        q = np.einsum("bi,bi->b", v_plus.conj(), v_plus).real
        lo, hi = float(q.min()), float(q.max())
        if not -1e-10 <= lo <= hi <= 1.0 + 1e-10:
            raise SimulationError(f"branch probabilities [{lo!r}, {hi!r}] outside [0, 1]")
        take_plus = uniforms[:, i] < q
        v_minus = psi - v_plus
        psi = np.where(take_plus[:, None], v_plus, v_minus)
        norms = np.linalg.norm(psi, axis=1)
        psi = psi / norms[:, None]
        syndrome += (~take_plus).astype(np.int64) << i
    out = np.empty_like(psi)
    for s in np.unique(syndrome):
        rows = syndrome == s
        r = code.error_basis[code.syndrome_table[int(s)]]
        out[rows] = psi[rows] @ r.T
    norms = np.linalg.norm(out, axis=1)
    return out / norms[:, None], psi, syndrome


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    kinds=st.lists(st.sampled_from(["codeword", "image", "pair", "random"]), min_size=1, max_size=64),
)
def test_batch_syndrome_recover_matches_reference_bit_for_bit(seed, kinds):
    # The buffered measure-and-recover against the fresh-temporary one:
    # equal recovered and collapsed states and syndromes.  Rows are codewords, single-error images of codewords
    # (deterministic syndromes), superpositions of two images (a random
    # branch) or arbitrary states; a quarter of the uniforms are exactly 0.0.
    code = five_qubit_code()
    rng = np.random.default_rng(seed)
    rows = []
    for kind in kinds:
        psi = _random_encoded(rng, code)
        m, n = rng.integers(len(code.error_basis), size=2)
        if kind == "image":
            psi = code.error_basis[m] @ psi
        elif kind == "pair":
            theta = rng.uniform(0.0, np.pi / 2)
            psi = np.cos(theta) * code.error_basis[m] @ psi + np.sin(theta) * code.error_basis[n] @ psi
            psi = psi / np.linalg.norm(psi)
        elif kind == "random":
            psi = rng.standard_normal(code.dim) + 1j * rng.standard_normal(code.dim)
            psi = psi / np.linalg.norm(psi)
        rows.append(psi)
    psi = np.array(rows)
    uniforms = rng.random((len(rows), len(code.generators)))
    uniforms[rng.random(uniforms.shape) < 0.25] = 0.0
    recovered, collapsed, syndromes = _reference_syndrome_recover(psi, uniforms, code)
    got = _batch_measure(psi.copy(), uniforms, code)
    assert np.array_equal(got[0].rows(), collapsed)
    assert np.array_equal(got[1], syndromes)
    assert np.array_equal(_batch_syndrome_recover(psi.copy(), uniforms, code).rows(), recovered)


def _code_state(rng, code, kind):
    # A codeword, a single-error image of one (deterministic syndrome), a
    # superposition of two images (a random branch) or an arbitrary state.
    psi = _random_encoded(rng, code)
    m, n = rng.integers(len(code.error_basis), size=2)
    if kind == "image":
        return code.error_basis[m] @ psi
    if kind == "pair":
        theta = rng.uniform(0.0, np.pi / 2)
        psi = np.cos(theta) * code.error_basis[m] @ psi + np.sin(theta) * code.error_basis[n] @ psi
        return psi / np.linalg.norm(psi)
    if kind == "random":
        psi = rng.standard_normal(code.dim) + 1j * rng.standard_normal(code.dim)
        return psi / np.linalg.norm(psi)
    return psi


def _shared_block(states, index):
    # A StateBlock whose rows are states[index]; index uses every state.
    counts = np.zeros(index.size, dtype=np.intp)
    counts[: len(states)] = np.bincount(index, minlength=len(states))
    return StateBlock(np.array(states, dtype=complex), index.copy(), counts, len(states))


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    kinds=st.lists(st.sampled_from(["codeword", "image", "pair", "random"]), min_size=1, max_size=6),
    num_rows=st.integers(1, 48),
)
# M == 1; one-row syndrome groups beside a shared state's groups.
@example(seed=0, kinds=["pair"], num_rows=1)
@example(seed=1, kinds=["image", "pair"], num_rows=3)
@example(seed=2, kinds=["pair", "random", "image"], num_rows=40)
def test_shared_block_recover_matches_reference_bit_for_bit(seed, kinds, num_rows):
    # A block of few distinct states over many rows, each row with its own
    # uniforms (a quarter exactly 0.0), so that the rows of a state split
    # between branches.  Measured and recovered one distinct state at a
    # time, it gives the row-wise reference's collapsed and recovered
    # states and syndromes.
    code = five_qubit_code()
    rng = np.random.default_rng(seed)
    distinct = min(len(kinds), num_rows)
    states = [_code_state(rng, code, kind) for kind in kinds[:distinct]]
    index = np.concatenate([np.arange(distinct), rng.integers(distinct, size=num_rows - distinct)])
    index = rng.permutation(index)
    uniforms = rng.random((num_rows, len(code.generators)))
    uniforms[rng.random(uniforms.shape) < 0.25] = 0.0
    rows = np.array(states)[index]
    recovered, collapsed, syndromes = _reference_syndrome_recover(rows, uniforms, code)
    block, got_syndromes = _batch_measure(_shared_block(states, index), uniforms, code)
    assert block.shape == rows.shape and np.all(block.counts[: block.size] >= 1)
    assert np.array_equal(block.rows(), collapsed)
    assert np.array_equal(got_syndromes[block.index], syndromes)
    fixed = _batch_syndrome_recover(_shared_block(states, index), uniforms, code)
    assert np.array_equal(fixed.rows(), recovered)


@pytest.mark.parametrize(
    "seed, kinds",
    [
        (32, ("pair", "image") * 3),
        (33, ("pair",) * 6),
        (34, ("random", "pair", "codeword") * 2),
        (35, ("random",) * 6),
        (36, ("image", "random", "pair", "codeword", "pair", "image")),
    ],
)
def test_batch_measure_returns_one_syndrome_per_slot(seed, kinds):
    # Six distinct states over 48 rows, whose rows split between branches:
    # the syndromes come one per slot of the collapsed block, and each is
    # the row-wise reference's syndrome of every row on that slot.
    code = five_qubit_code()
    rng = np.random.default_rng(seed)
    m, distinct = 48, 6
    states = [_code_state(rng, code, kind) for kind in kinds]
    index = rng.permutation(np.concatenate([np.arange(distinct), rng.integers(distinct, size=m - distinct)]))
    uniforms = rng.random((m, len(code.generators)))
    syndromes = _reference_syndrome_recover(np.array(states)[index], uniforms, code)[2]
    block, got = _batch_measure(_shared_block(states, index), uniforms, code)
    assert distinct < block.size < m and got.shape == (block.size,)
    for slot in range(block.size):
        assert np.all(syndromes[block.index == slot] == got[slot])


def test_recover_keeps_a_warm_block_in_its_two_buffers():
    # A shared block whose buffer and spare each have room for every row:
    # the four generators alternate between the two, the final
    # normalization uses the spare as scratch, and nothing new is taken.
    # The bytes are the row-wise reference's.
    code = five_qubit_code()
    rng = np.random.default_rng(31)
    m, distinct = 48, 6
    states = [_code_state(rng, code, kind) for kind in ("pair", "random") * 3]
    index = rng.permutation(np.concatenate([np.arange(distinct), rng.integers(distinct, size=m - distinct)]))
    uniforms = rng.random((m, len(code.generators)))
    block = _shared_block(states, index)
    buffer, spare = np.zeros((m, code.dim), dtype=complex), np.zeros((m, code.dim), dtype=complex)
    buffer[:distinct] = block.states
    block = StateBlock(buffer, block.index, block.counts, distinct, spare)
    recovered = _batch_syndrome_recover(block, uniforms, code)
    assert distinct < recovered.size < m
    assert np.shares_memory(recovered.buffer, buffer) and np.shares_memory(recovered.spare, spare)
    expected = _reference_syndrome_recover(np.array(states)[index], uniforms, code)[0]
    assert np.array_equal(recovered.rows(), expected)


def test_branch_probability_gate():
    # an unnormalized row, or a NaN one, fails the whole block loudly
    code = five_qubit_code()
    good = code.logical_zero
    uniforms = np.full((2, len(code.generators)), 0.5)
    for bad in (2.0 * good, np.full(code.dim, np.nan, dtype=complex)):
        with pytest.raises(SimulationError):
            _batch_syndrome_recover(np.array([good, bad]), uniforms, code)


def test_recover_round_trip_z2():
    code = five_qubit_code()
    psi = encode(0.6, 0.8j, code)
    z2 = pauli_string_matrix("IZIII")
    uniforms = np.random.default_rng(3).random((1, len(code.generators)))
    fixed = _batch_syndrome_recover((z2 @ psi)[None], uniforms, code)
    assert abs(np.vdot(psi, fixed.rows()[0])) == pytest.approx(1.0, abs=1e-10)


def test_correction_channel_fixes_single_errors():
    code = five_qubit_code()
    psi = encode(0.6, 0.8j, code)
    rho_l = np.outer(psi, psi.conj())
    for op in code.error_basis:
        fixed = correction_channel(op @ rho_l @ op.conj().T, code)
        assert trace_distance(fixed, rho_l) < 1e-9
    # mixed logical input
    mix = 0.3 * np.outer(code.logical_zero, code.logical_zero.conj()) + 0.7 * rho_l
    x1 = code.error_basis[1]
    assert trace_distance(correction_channel(x1 @ mix @ x1.conj().T, code), mix) < 1e-9


def test_correction_channel_trace_and_positivity():
    code = five_qubit_code()
    rng = np.random.default_rng(41)
    m = rng.standard_normal((32, 6)) + 1j * rng.standard_normal((32, 6))
    rho = m @ m.conj().T
    rho = rho / rho.trace()
    out = correction_channel(rho, code)
    assert out.trace().real == pytest.approx(1.0, abs=1e-10)
    assert float(np.linalg.eigvalsh(out).min()) > -1e-10
    with pytest.raises(DomainError):
        correction_channel(np.eye(16, dtype=complex) / 16, code)


def test_recovery_products_built_once_with_unchanged_bits():
    # The products, built with the code, equal R_m(s) P_s bit for bit, and
    # the channel over them gives the bits of products formed per call.
    code = five_qubit_code()
    products = code.recovery_products
    assert five_qubit_code().recovery_products is products and len(products) == 16
    for s, rp in enumerate(products):
        fresh = code.error_basis[code.syndrome_table[s]] @ _syndrome_projector(code, s)
        assert rp.tobytes() == fresh.tobytes()
        with pytest.raises(ValueError):
            rp[0, 0] = 1.0
    rng = np.random.default_rng(43)
    for _ in range(20):
        m = rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32))
        rho = m @ m.conj().T
        rho = rho / rho.trace()
        expected = np.zeros_like(rho)
        for s in range(16):
            rp = code.error_basis[code.syndrome_table[s]] @ _syndrome_projector(code, s)
            expected += rp @ rho @ rp.conj().T
        assert np.array_equal(correction_channel(rho, code), expected)


def test_correction_channel_matches_sampled_measurement():
    # Monte Carlo measure-and-recover converges to the deterministic channel
    code = five_qubit_code()
    rng = np.random.default_rng(77)
    psi = rng.standard_normal(32) + 1j * rng.standard_normal(32)
    psi = psi / np.linalg.norm(psi)
    expected = correction_channel(np.outer(psi, psi.conj()), code)
    m = 4000
    meas_rng = np.random.default_rng(78)
    uniforms = meas_rng.random((m, len(code.generators)))
    fixed = _batch_syndrome_recover(np.tile(psi, (m, 1)), uniforms, code).rows()
    # sum over rows of outer(fixed, fixed.conj())
    acc = fixed.T @ fixed.conj()
    assert trace_distance(acc / m, expected) < 0.06


def test_encode_norm_gate():
    code = five_qubit_code()
    psi = encode(0.6, 0.8j, code)
    assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-12)
    target = 0.6 * code.logical_zero + 0.8j * code.logical_one
    np.testing.assert_allclose(psi, target, atol=1e-12)
    with pytest.raises(DomainError):
        encode(1.0, 1.0, code)


def test_code_is_cached_and_immutable():
    code = five_qubit_code()
    assert five_qubit_code() is code
    with pytest.raises(ValueError):
        code.generators[0, 0, 0] = 1.0
    with pytest.raises(ValueError):
        code.logical_zero[0] = 1.0
    with pytest.raises(ValueError):
        code.error_basis[0, 0, 0] = 2.0
