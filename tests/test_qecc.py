"""Five-qubit code tests: stabilizer algebra, syndrome extraction, recovery."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corrqec.errors import DomainError, SimulationError
from corrqec.operators import basis_state, trace_distance
from corrqec.qecc import (
    FIVE_QUBIT_GENERATORS,
    _batch_measure,
    _batch_syndrome_recover,
    correction_channel,
    encode,
    five_qubit_code,
    measure_syndrome,
    pauli_string_matrix,
    recover,
    syndrome_index,
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


def test_generator_algebra():
    code = five_qubit_code()
    gens = code.generators
    assert code.generator_strings == FIVE_QUBIT_GENERATORS
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
    assert code.error_labels[0] == "I"
    assert code.error_labels[7] == "X3"
    np.testing.assert_array_equal(code.error_basis[0], np.eye(32))
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
    assert syndrome_index([0, 0, 0, 0]) == 0
    assert syndrome_index([1, 0, 0, 0]) == 1
    assert syndrome_index([0, 1, 0, 1]) == 10
    assert syndrome_index([1, 1, 1, 1]) == 15


def test_syndrome_projectors_resolve_identity():
    code = five_qubit_code()
    total = code.syndrome_projectors.sum(axis=0)
    np.testing.assert_allclose(total, np.eye(32), atol=1e-10)
    for s, p in enumerate(code.syndrome_projectors):
        np.testing.assert_allclose(p @ p, p, atol=1e-10)
        np.testing.assert_allclose(p, p.conj().T, atol=1e-10)


def test_measure_syndrome_codeword_is_trivial():
    code = five_qubit_code()
    out = measure_syndrome(code.logical_zero, code, np.random.default_rng(0))
    assert out.bits == (0, 0, 0, 0)
    assert out.index == 0
    assert out.born_probability == pytest.approx(1.0, abs=1e-10)
    assert abs(np.vdot(out.collapsed, code.logical_zero)) == pytest.approx(1.0, abs=1e-10)


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
        for m, op in enumerate(code.error_basis):
            corrupted = op @ psi
            out = measure_syndrome(corrupted, code, meas_rng)
            assert out.index == code.syndrome_of_error[m]
            assert out.born_probability == pytest.approx(1.0, abs=1e-10)
            fixed = recover(out, code)
            assert abs(np.vdot(psi, fixed)) == pytest.approx(1.0, abs=1e-9)


def test_measure_syndrome_branch_statistics():
    # coherent mixture of two error images: outcome frequencies follow the
    # Born weights and each branch collapses onto its image
    code = five_qubit_code()
    theta = 0.7
    x3 = code.error_basis[7]
    psi = np.cos(theta) * code.logical_zero + np.sin(theta) * (x3 @ code.logical_zero)
    s_x3 = code.syndrome_of_error[7]
    rng = np.random.default_rng(61)
    m = 2000
    hits = 0
    for _ in range(m):
        out = measure_syndrome(psi, code, rng)
        assert out.index in (0, s_x3)
        if out.index == s_x3:
            hits += 1
            target = x3 @ code.logical_zero
        else:
            target = code.logical_zero
        assert abs(np.vdot(target, out.collapsed)) == pytest.approx(1.0, abs=1e-10)
    p = np.sin(theta) ** 2
    assert abs(hits / m - p) < 3 * np.sqrt(p * (1 - p) / m)


def test_measure_syndrome_shape_gate():
    code = five_qubit_code()
    with pytest.raises(DomainError):
        measure_syndrome(basis_state(0, 4), code, np.random.default_rng(0))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), images=st.lists(st.booleans(), min_size=1, max_size=8))
def test_batch_syndrome_recover_matches_row_by_row(seed, images):
    # A block of rows, each either a single-error image of a random codeword
    # (True) or an arbitrary random state (False), goes through the batched
    # step; every row must match measure_syndrome + recover fed the same
    # uniforms from its own stream.
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
    batched = _batch_syndrome_recover(psi, uniforms, code)
    _, syndromes, _ = _batch_measure(psi, uniforms, code)
    assert batched.shape == psi.shape
    for row, m, stream, s, out in zip(psi, errors, streams, syndromes, batched):
        outcome = measure_syndrome(row, code, np.random.default_rng(stream))
        assert outcome.index == s
        if m is not None:
            assert outcome.index == code.syndrome_of_error[m]
        np.testing.assert_allclose(out, recover(outcome, code), rtol=0, atol=1e-12)


def test_branch_probability_gate():
    # an unnormalized row, or a NaN one, fails the whole block loudly
    code = five_qubit_code()
    good = code.logical_zero
    uniforms = np.full((2, len(code.generators)), 0.5)
    for bad in (2.0 * good, np.full(code.dim, np.nan, dtype=complex)):
        with pytest.raises(SimulationError):
            _batch_syndrome_recover(np.array([good, bad]), uniforms, code)
        with pytest.raises(SimulationError):
            measure_syndrome(bad, code, np.random.default_rng(0))


def test_recover_round_trip_z2():
    code = five_qubit_code()
    psi = encode(0.6, 0.8j, code)
    z2 = code.error_basis[code.error_labels.index("Z2")]
    out = measure_syndrome(z2 @ psi, code, np.random.default_rng(3))
    fixed = recover(out, code)
    assert abs(np.vdot(psi, fixed)) == pytest.approx(1.0, abs=1e-10)


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


def test_correction_channel_matches_sampled_measurement():
    # Monte Carlo measure-and-recover converges to the deterministic channel
    code = five_qubit_code()
    rng = np.random.default_rng(77)
    psi = rng.standard_normal(32) + 1j * rng.standard_normal(32)
    psi = psi / np.linalg.norm(psi)
    expected = correction_channel(np.outer(psi, psi.conj()), code)
    m = 4000
    acc = np.zeros((32, 32), dtype=complex)
    meas_rng = np.random.default_rng(78)
    for _ in range(m):
        fixed = recover(measure_syndrome(psi, code, meas_rng), code)
        acc += np.outer(fixed, fixed.conj())
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
