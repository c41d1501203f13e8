import numpy as np
import pytest
import scipy.sparse as sp

from spinmodels import (
    DimensionMismatchError,
    DomainError,
    EigenSystem,
    Spin,
    adjoint,
    anticommutator,
    chain_volume,
    commutator,
    embed,
    expectation,
    is_hermitian,
    ladder_coefficient,
    operator_norm,
    pauli_matrices,
    spin_matrices,
)
from spinmodels.spin_algebra import as_matrix, eigenvector_columns, hermitian_eig

# hand-written references for S = 1/2 and S = 1
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)

R2 = 1.0 / np.sqrt(2.0)
S1_SPIN1 = np.array([[0, R2, 0], [R2, 0, R2], [0, R2, 0]], dtype=complex)
S2_SPIN1 = np.array([[0, -1j * R2, 0], [1j * R2, 0, -1j * R2], [0, 1j * R2, 0]])
S3_SPIN1 = np.diag([1.0, 0.0, -1.0]).astype(complex)


def test_pauli_matrices_exact():
    p1, p2, p3 = pauli_matrices()
    assert np.array_equal(p1, SX)
    assert np.array_equal(p2, SY)
    assert np.array_equal(p3, SZ)


def test_spin_half_is_half_pauli_exact():
    ops = spin_matrices(0.5)
    # dyadic entries, so the relation holds bitwise
    assert np.array_equal(2.0 * ops.s1, SX)
    assert np.array_equal(2.0 * ops.s2, SY)
    assert np.array_equal(2.0 * ops.s3, SZ)
    assert np.array_equal(ops.s3, np.diag([0.5, -0.5]))


def test_spin_one_matrices_match_reference():
    ops = spin_matrices(1)
    assert np.allclose(ops.s1, S1_SPIN1, atol=1e-15)
    assert np.allclose(ops.s2, S2_SPIN1, atol=1e-15)
    assert np.array_equal(ops.s3, S3_SPIN1)


def test_ladder_coefficient_closed_form():
    # sqrt(S(S+1) - m(m-1)) for the step m -> m-1
    assert ladder_coefficient(0.5, 0.5) == 1.0
    assert abs(ladder_coefficient(1.0, 1.0) - np.sqrt(2.0)) < 1e-15
    assert abs(ladder_coefficient(1.0, 0.0) - np.sqrt(2.0)) < 1e-15
    assert abs(ladder_coefficient(1.5, 0.5) - 2.0) < 1e-15
    assert abs(ladder_coefficient(1.5, -0.5) - np.sqrt(3.0)) < 1e-15


def test_ladder_action_on_weight_basis():
    # S+ |m> = c_{m+1} |m+1>, with digit 0 the highest-weight state
    for s in (0.5, 1.0, 1.5, 2.0):
        ops = spin_matrices(s)
        d = ops.spin.dim
        for k in range(d):
            m = s - k
            e = np.zeros(d, dtype=complex)
            e[k] = 1.0
            up = ops.sp @ e
            if k == 0:
                assert np.allclose(up, 0.0)
            else:
                want = np.zeros(d, dtype=complex)
                want[k - 1] = ladder_coefficient(s, m + 1)
                assert np.allclose(up, want, atol=1e-15)


def test_commutation_relations_all_spins():
    # [S1,S2] = i S3 and cyclic, plus the Casimir, for all bundled spins
    for two_s in range(1, 6):
        s = two_s / 2.0
        ops = spin_matrices(s)
        for a, b, c in ((ops.s1, ops.s2, ops.s3),
                        (ops.s2, ops.s3, ops.s1),
                        (ops.s3, ops.s1, ops.s2)):
            res = a @ b - b @ a - 1j * c
            assert np.max(np.abs(res)) < 1e-12
        casimir = ops.s1 @ ops.s1 + ops.s2 @ ops.s2 + ops.s3 @ ops.s3
        assert np.allclose(casimir, s * (s + 1) * np.eye(ops.spin.dim), atol=1e-12)
        assert np.allclose(ops.casimir(), casimir, atol=1e-13)


def test_hermiticity_and_adjoint_pairing():
    for s in (0.5, 1.0, 2.5):
        ops = spin_matrices(s)
        for m in (ops.s1, ops.s2, ops.s3):
            assert is_hermitian(m)
        assert np.array_equal(ops.sm, ops.sp.conj().T)
        assert np.array_equal(adjoint(ops.sp), ops.sm)
        # the adjoint of a CSR matrix is CSR, not scipy's CSC transpose
        csr = adjoint(sp.csr_array(ops.sp))
        assert csr.format == "csr" and np.array_equal(csr.toarray(), ops.sm)


def test_spin_coercion_rejects_bad_values():
    assert Spin.coerce(0.5).dim == 2
    assert Spin.coerce(1).dim == 3
    assert Spin.coerce(2.5).value == 2.5
    for bad in (0.3, -0.5, 0, 1.1):
        with pytest.raises(DomainError):
            Spin.coerce(bad)


def test_mixed_dense_sparse_pairs_stay_mixed():
    # a mixed pair is not densified: scipy returns ndarrays, equal to the
    # all-dense result to rounding
    rng = np.random.default_rng(29)
    a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    b = sp.random_array((8, 8), density=0.3, rng=rng, dtype=complex)
    bd = b.toarray()
    scale = 1e-15 * np.linalg.norm(a, 2) * np.linalg.norm(bd, 2)
    for x, y, xd, yd in ((a, b, a, bd), (b, a, bd, a)):
        pairs = [
            (commutator(x, y), xd @ yd - yd @ xd),
            (anticommutator(x, y), xd @ yd + yd @ xd),
        ]
        for got, want in pairs:
            assert isinstance(got, np.ndarray)
            assert np.max(np.abs(got - want)) <= scale


def test_dimension_mismatch_raises():
    for a, b in ((np.eye(2), np.eye(3)), (sp.eye_array(2, format="csr"), np.eye(3))):
        with pytest.raises(DimensionMismatchError):
            commutator(a, b)
        with pytest.raises(DimensionMismatchError):
            anticommutator(b, a)


def test_commutator_and_anticommutator():
    rng = np.random.default_rng(11)
    for _ in range(5):
        a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        b = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        assert np.allclose(commutator(a, b), a @ b - b @ a)
        assert np.allclose(anticommutator(a, b), a @ b + b @ a)
    # self-commutator is exactly zero
    assert np.all(commutator(SX, SX) == 0)
    # plain nested lists are accepted by both brackets
    x, z = [[0, 1], [1, 0]], [[1, 0], [0, -1]]
    assert np.array_equal(commutator(x, z), [[0, -2], [2, 0]])
    assert np.array_equal(anticommutator(x, z), np.zeros((2, 2)))


def test_operator_norm_matches_dense_oracle():
    rng = np.random.default_rng(19)
    for _ in range(8):
        m = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
        herm = m + m.conj().T
        want = np.max(np.abs(np.linalg.eigvalsh(herm)))
        assert abs(operator_norm(herm) - want) < 1e-12
        # generic matrix: largest singular value
        want_sv = np.linalg.svd(m, compute_uv=False)[0]
        assert abs(operator_norm(m) - want_sv) < 1e-10
    # anti-Hermitian: i*(m) is Hermitian, same spectrum magnitude
    anti = m - m.conj().T
    want = np.max(np.abs(np.linalg.eigvalsh(1j * anti)))
    assert abs(operator_norm(anti) - want) < 1e-12


def _permuted_block_diagonal(rng, sizes, complex_blocks):
    """Random Hermitian blocks of the given sizes, basis randomly permuted."""
    n = sum(sizes)
    m = np.zeros((n, n), dtype=complex)
    start = 0
    for k, cplx in zip(sizes, complex_blocks):
        b = rng.standard_normal((k, k)) + (1j * rng.standard_normal((k, k)) if cplx else 0)
        m[start:start + k, start:start + k] = b + b.conj().T
        start += k
    perm = rng.permutation(n)
    return m[np.ix_(perm, perm)]


def test_hermitian_eig_matches_full_eigh_on_permuted_blocks():
    rng = np.random.default_rng(23)
    sizes = [3, 1, 5, 1, 2, 4]
    for complex_blocks in ([False] * 6, [False, False, True, False, False, True]):
        m = _permuted_block_diagonal(rng, sizes, complex_blocks)
        w_full = np.linalg.eigvalsh(m)
        for given in (m, sp.csr_array(m)):
            eig = hermitian_eig(given)
            w, v, blocks = eig.eigenvalues, eigenvector_columns(eig), eig.block_sizes
            assert sorted(blocks) == sorted(sizes)
            assert np.max(np.abs(w - w_full)) < 1e-12 * np.max(np.abs(w_full))
            assert np.max(np.abs(m @ v - v * w)) < 1e-12 * np.max(np.abs(w_full))
            assert np.max(np.abs(v.conj().T @ v - np.eye(m.shape[0]))) < 1e-12
            assert (v.dtype == np.float64) == (not any(complex_blocks))
            w_only = hermitian_eig(given, vectors=False).eigenvalues
            assert np.max(np.abs(w_only - w_full)) < 1e-12 * np.max(np.abs(w_full))
        assert abs(operator_norm(m) - np.max(np.abs(w_full))) < 1e-12
        # anti-Hermitian input takes the same block route through i*A
        anti = 1j * m
        want = np.max(np.abs(np.linalg.eigvalsh(1j * anti)))
        assert abs(operator_norm(anti) - want) < 1e-12
        # only exact zeros split: a coupling far below any tolerance joins blocks
        j = np.flatnonzero(m[0] == 0)[0]  # an index outside the block of index 0
        joined = m.copy()
        joined[0, j] = joined[j, 0] = 1e-300
        assert len(hermitian_eig(joined, vectors=False).block_sizes) == len(sizes) - 1


def test_hermitian_eig_of_zero_matrix_is_all_size_one_blocks():
    z = np.zeros((6, 6), dtype=complex)
    eig = hermitian_eig(z)
    w, v, blocks = eig.eigenvalues, eigenvector_columns(eig), eig.block_sizes
    assert blocks == [1] * 6
    assert np.array_equal(w, np.zeros(6))
    assert v.dtype == np.float64 and np.array_equal(v, np.eye(6))
    assert operator_norm(z) == np.max(np.abs(np.linalg.eigvalsh(z))) == 0.0


def test_operator_norm_sparse_large():
    # above the dense cutoff the iterative path must agree with known values
    n = 5000
    diag = np.linspace(-3.0, 2.0, n)
    m = sp.diags_array(diag, format="csr")
    assert abs(operator_norm(m) - 3.0) < 1e-8
    # non-Hermitian shift matrix has all singular values <= 1
    shift = sp.eye_array(n, format="csr", k=1)
    assert abs(operator_norm(shift) - 1.0) < 1e-8


def test_operator_norm_of_sparse_input_solves_blocks(forbid_full_toarray):
    # a block-diagonal CSR matrix is normed block by block, never densified,
    # and gives exactly the dense-route norm
    rng = np.random.default_rng(37)
    herm = _permuted_block_diagonal(rng, [5, 1, 7, 3], [True, False, False, True])
    cases = [herm, 1j * herm]  # Hermitian and anti-Hermitian
    want = [operator_norm(m) for m in cases]
    forbid_full_toarray(herm.shape[0])
    for m, w in zip(cases, want):
        assert operator_norm(sp.csr_array(m)) == w


def test_operator_rejects_nonsquare():
    for m in (np.zeros((2, 3)), np.zeros(4), sp.csr_array(np.ones((2, 3))),
              sp.coo_array(np.ones((3, 2)))):
        with pytest.raises(DomainError):
            as_matrix(m)
    assert as_matrix(sp.coo_array(np.eye(2))).format == "csr"


def test_nonsquare_sparse_input_is_refused():
    # DomainError, not scipy's shape or matmul ValueError, at every entry point
    bad = sp.csr_array(np.ones((2, 3)))
    vol = chain_volume(2)
    with pytest.raises(DomainError):
        EigenSystem(bad)
    with pytest.raises(DomainError):
        is_hermitian(bad)
    with pytest.raises(DomainError):
        expectation(np.array([1.0, 0.0]), bad)
    with pytest.raises(DomainError):
        embed(bad, [(0,)], vol)
