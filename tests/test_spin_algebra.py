import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from spinmodels import (
    DimensionMismatchError,
    DomainError,
    EigenSystem,
    Interaction,
    Spin,
    adjoint,
    assemble_hamiltonian,
    build_model_hamiltonian,
    chain_volume,
    commutator,
    density_matrix,
    eeb_terms,
    embed,
    expectation,
    heisenberg,
    is_hermitian,
    low_levels,
    lr_scan,
    operator_norm,
    pauli_matrices,
    pure,
    spin_algebra,
    spin_matrices,
    stability_value,
    suq2_generators,
    total_spin,
)
from spinmodels.spin_algebra import (
    DENSE_CUTOFF,
    as_matrix,
    eigenvector_columns,
    hermitian_eig,
)

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


def test_raising_superdiagonal_is_the_closed_form():
    # sqrt(S(S+1) - m(m-1)) for the step m -> m-1, m = S, S-1, ... down the superdiagonal
    assert np.diag(spin_matrices(0.5).sp, 1)[0] == 1.0
    assert np.abs(np.diag(spin_matrices(1.0).sp, 1) - np.sqrt(2.0)).max() < 1e-15
    c = np.diag(spin_matrices(1.5).sp, 1)
    assert abs(c[1] - 2.0) < 1e-15
    assert abs(c[2] - np.sqrt(3.0)) < 1e-15


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
                want[k - 1] = np.sqrt(s * (s + 1) - (m + 1) * m)
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
        # two-site S.S = (J(J+1) - 2 S(S+1)) / 2 on total spin J = 0, ..., 2S
        j = np.arange(two_s + 1)
        want = np.repeat((j * (j + 1) - 2 * s * (s + 1)) / 2, 2 * j + 1)
        assert np.allclose(np.linalg.eigvalsh(ops.exchange()), want, atol=1e-12)


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
        got = commutator(x, y)
        assert isinstance(got, np.ndarray)
        assert np.max(np.abs(got - (xd @ yd - yd @ xd))) <= scale


def test_dimension_mismatch_raises():
    for a, b in ((np.eye(2), np.eye(3)), (sp.eye_array(2, format="csr"), np.eye(3))):
        with pytest.raises(DimensionMismatchError):
            commutator(a, b)
        with pytest.raises(DimensionMismatchError):
            commutator(b, a)


def _sparse_and_diagonal_cases():
    """(X, d) pairs: real and complex X with some exact zeros stored, and
    diagonals whose repeated values make d_j - d_i and x d_j - d_i x vanish."""
    rng = np.random.default_rng(41)
    n = 24
    for dtype in (float, complex):
        x = sp.random_array((n, n), density=0.3, rng=rng, dtype=dtype, format="csr")
        x = sp.csr_array(x + sp.eye_array(n))  # the diagonal of X cancels exactly
        x.data[::7] = 0.0
        for d in (rng.choice([0.5, -0.5], n), rng.choice([0.3, 0.0, 1.7j], n)):
            yield x, d.astype(np.result_type(d, dtype))


def _assert_dense_commutator(got, a, b):
    """``got`` is CSR and within 1e-15 ||A|| ||B|| of the dense AB - BA."""
    ad, bd = a.toarray(), b.toarray()
    assert sp.issparse(got)
    tol = 1e-15 * np.linalg.norm(ad, 2) * np.linalg.norm(bd, 2)
    assert np.max(np.abs(got.toarray() - (ad @ bd - bd @ ad))) <= tol


def test_commutators_with_a_diagonal_match_the_dense_products():
    for x, d in _sparse_and_diagonal_cases():
        diag = sp.csr_array((d, np.arange(d.size), np.arange(d.size + 1)))  # zeros stored
        assert diag.nnz == d.size and x.has_canonical_format
        for a, b in ((x, diag), (diag, x)):
            _assert_dense_commutator(commutator(a, b), a, b)


def test_commutators_with_an_embedded_spin1_s3_match_the_dense_products():
    # embed drops spin-1 S3's zeros: S3 at a site of the AKLT chain of 4 sites
    # stores 54 of 81 diagonal entries; its commutators with H and with an
    # evolved S1, and those of a shift with that S1, are the dense products'
    vol = chain_volume(4, "open", local_dim=3)
    ops = spin_matrices(1)
    h = build_model_hamiltonian("aklt", {}, vol).tocsr()
    d = embed(ops.s3, [(1,)], vol)
    assert d.nnz == 54 and d.diagonal().size == 81
    at = EigenSystem(h).evolve(embed(ops.s1, [(0,)], vol), 0.7)
    shift = sp.csr_array(sp.eye_array(81, k=1, format="csr"))
    for a, b in ((h, d), (d, h), (at, d), (d, at), (at, shift)):
        _assert_dense_commutator(commutator(a, b), a, b)


def test_commutators_of_non_canonical_and_dense_operands_are_the_products_bitwise():
    x, d = next(_sparse_and_diagonal_cases())
    n = d.size
    # the diagonal with its first entry stored as two halves: n + 1 entries
    split = sp.csr_array((np.concatenate(([d[0] / 2], d)), np.concatenate(([0], np.arange(n))),
                          np.concatenate(([0], np.arange(2, n + 2)))), shape=(n, n))
    assert not split.has_canonical_format
    for a, b in ((x, split), (split, x)):
        got, want = commutator(a, b), a @ b - b @ a
        for field in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(got, field), getattr(want, field))
    xd, dd = x.toarray(), np.diag(d)
    for a, b in ((xd, dd), (dd, xd)):
        got = commutator(a, b)
        assert isinstance(got, np.ndarray) and np.array_equal(got, a @ b - b @ a)


def test_commutator_of_dense_matrices():
    rng = np.random.default_rng(11)
    for _ in range(5):
        a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        b = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        assert np.allclose(commutator(a, b), a @ b - b @ a)
    # self-commutator is exactly zero
    assert np.all(commutator(SX, SX) == 0)
    # plain nested lists are accepted
    x, z = [[0, 1], [1, 0]], [[1, 0], [0, -1]]
    assert np.array_equal(commutator(x, z), [[0, -2], [2, 0]])


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
            w, v = eig.eigenvalues, eigenvector_columns(eig)
            assert sorted(np.bincount(eig.plan.labels)) == sorted(sizes)
            assert np.max(np.abs(w - w_full)) < 1e-12 * np.max(np.abs(w_full))
            assert np.max(np.abs(m @ v - v * w)) < 1e-12 * np.max(np.abs(w_full))
            assert np.max(np.abs(v.conj().T @ v - np.eye(m.shape[0]))) < 1e-12
            assert (v.dtype == np.float64) == (not any(complex_blocks))
            w_only = hermitian_eig(given, vectors=False).eigenvalues
            assert np.max(np.abs(w_only - w_full)) < 1e-12 * np.max(np.abs(w_full))
        assert abs(operator_norm(m) - np.max(np.abs(w_full))) < 1e-12
        # anti-Hermitian input: its norm is the largest |eigenvalue| of i*A
        anti = 1j * m
        want = np.max(np.abs(np.linalg.eigvalsh(1j * anti)))
        assert abs(operator_norm(anti) - want) < 1e-12
        # only exact zeros split: a coupling far below any tolerance joins blocks
        j = np.flatnonzero(m[0] == 0)[0]  # an index outside the block of index 0
        joined = m.copy()
        joined[0, j] = joined[j, 0] = 1e-300
        assert hermitian_eig(joined, vectors=False).plan.labels.max() == len(sizes) - 2


def test_csr_blocks_are_scattered_bitwise_as_the_dense_blocks(monkeypatch):
    # the entries of a CSR matrix fill its blocks by one scatter, not by
    # scipy indexing: canonical, or with unsorted columns, stored zeros and
    # each entry stored as two halves (which add exactly), the blocks and so
    # the eigenpairs are those of the dense matrix, bit for bit
    rng = np.random.default_rng(41)
    m = _permuted_block_diagonal(rng, [3, 1, 5, 1, 2, 4], [False, False, True, False, False, True])
    canonical = sp.csr_array(m)
    rows, cols = canonical.nonzero()
    rows, cols = np.r_[rows, rows, 0], np.r_[cols, cols, np.flatnonzero(m[0] == 0)[0]]
    data = np.r_[canonical.data / 2, canonical.data / 2, 0.0]
    order = np.lexsort((rng.random(rows.size), rows))  # by row, columns shuffled
    indptr = np.r_[0, np.cumsum(np.bincount(rows, minlength=m.shape[0]))]
    messy = sp.csr_array((data[order], cols[order], indptr), shape=m.shape)
    assert not messy.has_canonical_format and np.array_equal(messy.toarray(), m)
    want = hermitian_eig(m)
    monkeypatch.setattr(sp.csr_array, "__getitem__",
                        lambda *args: pytest.fail("indexed the CSR matrix"))
    for given in (canonical, messy):
        got = hermitian_eig(given)
        assert np.array_equal(got.eigenvalues, want.eigenvalues)
        for (i, w, v), (i2, w2, v2) in zip(got.blocks[1:], want.blocks[1:]):
            assert np.array_equal(i, i2) and np.array_equal(w, w2) and np.array_equal(v, v2)
            assert v.dtype == v2.dtype


def test_a_dense_row_with_no_zero_makes_one_block_without_a_graph_search(monkeypatch):
    # such a row joins every index; a graph search on a dense pattern of n^2
    # entries would cost far more than the answer, so none runs
    rng = np.random.default_rng(5)
    psi = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    m = np.outer(psi, psi.conj())
    monkeypatch.setattr(spin_algebra, "_components",
                        lambda *a, **k: pytest.fail("searched the pattern of a full row"))
    plan = spin_algebra._block_plan(sp.csr_array(m))
    assert plan.labels.tolist() == [0] * 9 and plan.starts.tolist() == [0, 0, 9]
    norm2 = np.vdot(psi, psi).real
    assert abs(hermitian_eig(m, vectors=False).eigenvalues[-1] - norm2) < 1e-13 * norm2


def test_hermitian_eig_of_zero_matrix_is_all_size_one_blocks():
    z = np.zeros((6, 6), dtype=complex)
    eig = hermitian_eig(z)
    w, v = eig.eigenvalues, eigenvector_columns(eig)
    assert np.bincount(eig.plan.labels).tolist() == [1] * 6
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


def test_operator_norm_arpack_route_matches_the_dense_route(monkeypatch, dm_chain):
    # a cap of 8 sends these dim-64 CSR inputs to one ARPACK svds run each,
    # in float64 exactly when the input's imaginary part is zero: Hermitian,
    # anti-Hermitian and non-normal input alike
    vol = chain_volume(6, boundary="open")
    h = assemble_hamiltonian(heisenberg(j=-1.0), vol)
    cases = [
        (h, [np.float64]),
        (dm_chain(6), [np.complex128]),
        (commutator(h, embed(spin_matrices(0.5).s1, [(0,)], vol)), [np.float64]),
        (suq2_generators(vol, 0.5).generators["K+"], [np.float64]),
    ]
    want = [operator_norm(m) for m, _ in cases]
    seen = []
    svds = spla.svds

    def recording_svds(m, *args, **kwargs):
        seen.append(m.dtype)
        return svds(m, *args, **kwargs)

    monkeypatch.setattr(spla, "svds", recording_svds)
    for (m, dtypes), w in zip(cases, want):
        seen.clear()
        assert w > 0 and abs(operator_norm(m, cap_dense=8) - w) <= 1e-10 * w
        assert seen == dtypes
    # ARPACK cannot start on a zero matrix; its norm needs no solver call
    for zero in (sp.csr_array((64, 64)), commutator(h, total_spin(vol).generators["S3"])):
        seen.clear()
        assert operator_norm(zero, cap_dense=8) == 0.0 and seen == []


def test_operator_norm_of_rounding_level_non_normal_input():
    # every entry of 1e-15 K+ lies below STRUCTURE_TOL, so it passes as
    # Hermitian within tolerance; its norm is still its largest singular
    # value on either side of the dense cap
    m = 1e-15 * suq2_generators(chain_volume(5, boundary="open"), 0.5).generators["K+"]
    want = np.linalg.norm(m.toarray(), 2)
    assert is_hermitian(m) and want > 0
    for cap in (DENSE_CUTOFF, 8):
        assert abs(operator_norm(m, cap_dense=cap) - want) <= 1e-12 * want


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


def test_operator_norm_gram_of_a_flip_symmetric_matrix_takes_the_flip(monkeypatch):
    # scipy's product X^H X comes out without canonical format, which the
    # flip test reads as not symmetric; summed into it, the Gram of the
    # flip-symmetric Heisenberg ring reads flip and takes the pairs and halves
    h = assemble_hamiltonian(heisenberg(j=1.0), chain_volume(8, boundary="periodic")).tocsr()
    gram = h.conj().T @ h
    assert not spin_algebra._block_plan(gram).flip
    gram.sort_indices()
    assert not spin_algebra._block_plan(gram).flip
    gram.sum_duplicates()
    assert spin_algebra._block_plan(gram).flip
    plans, build = [], spin_algebra._block_plan
    monkeypatch.setattr(spin_algebra, "_block_plan",
                        lambda m: plans.append(build(m)) or plans[-1])
    got = operator_norm(h)
    want = np.linalg.svd(h.toarray(), compute_uv=False)[0]
    assert [plan.flip for plan in plans] == [True]
    assert abs(got - want) <= 1e-13 * want


def test_operator_rejects_nonsquare():
    for m in (np.zeros((2, 3)), np.zeros(4), sp.csr_array(np.ones((2, 3))),
              sp.coo_array(np.ones((3, 2)))):
        with pytest.raises(DomainError):
            as_matrix(m)
    assert as_matrix(sp.coo_array(np.eye(2))).format == "csr"


def test_operator_norm_leaves_the_callers_csr_as_it_is():
    h = build_model_hamiltonian("heisenberg", {"J": 1.0}, chain_volume(6, "periodic")).tocsr()
    order = np.concatenate([np.arange(lo, hi)[::-1] for lo, hi in zip(h.indptr[:-1], h.indptr[1:])])
    m = sp.csr_array((h.data[order], h.indices[order], h.indptr), shape=h.shape)
    arrays = [x.copy() for x in (m.data, m.indices, m.indptr)]
    assert not m.has_canonical_format
    want = np.linalg.svd(h.toarray(), compute_uv=False)[0]
    assert abs(operator_norm(m) - want) <= 1e-13 * want
    assert all(np.array_equal(x, y) for x, y in zip(arrays, (m.data, m.indices, m.indptr)))
    assert not m.has_canonical_format


def test_as_matrix_returns_a_csr_array_as_it_is():
    m = sp.csr_array(np.eye(3))
    assert as_matrix(m) is m
    for other in (sp.csr_matrix(np.eye(3)), sp.coo_array(np.eye(3))):
        out = as_matrix(other)
        assert isinstance(out, sp.csr_array) and out is not other
        assert np.array_equal(out.toarray(), np.eye(3))


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


def _unpaired(dim):
    """A dim x dim matrix whose one entry (0, 1) = 1 has no partner:
    ||A - A^H||_max = 1."""
    return sp.csr_array(([1.0], ([0], [1])), shape=(dim, dim)).toarray()


_S3 = spin_matrices(0.5).s3

# each entry point that needs a Hermitian input: (call on a bad input, the name it gives)
_HERMITIAN_REFUSALS = {
    "EigenSystem": (lambda: EigenSystem(_unpaired(2)), "Hamiltonian"),
    "low_levels_krylov": (lambda: low_levels(_unpaired(2), method="krylov"), "Hamiltonian"),
    "eeb_terms": (lambda: eeb_terms(_unpaired(2), np.eye(2)), "Hamiltonian"),
    "stability_value": (lambda: stability_value(_unpaired(2), pure(np.ones(2)), np.eye(2)),
                        "Hamiltonian"),
    "lr_scan_a": (lambda: lr_scan(heisenberg(), chain_volume(3), _unpaired(2), _S3, [0.5], [1]),
                  "observable A"),
    "lr_scan_b": (lambda: lr_scan(heisenberg(), chain_volume(3), _S3, _unpaired(2), [0.5], [1]),
                  "observable B"),
    "site_term": (lambda: Interaction(2, site_term=_unpaired(2)), "site term"),
    "bond_term": (lambda: Interaction(2, bond_term=_unpaired(4)), "bond term"),
    "density_matrix": (lambda: density_matrix(np.eye(2) / 2 + _unpaired(2)), "density matrix"),
}


@pytest.mark.parametrize("entry", sorted(_HERMITIAN_REFUSALS))
def test_every_hermitian_input_is_refused_by_one_check_naming_it(entry):
    call, name = _HERMITIAN_REFUSALS[entry]
    with pytest.raises(DomainError) as err:
        call()
    assert str(err.value).startswith(name)
    assert "is not Hermitian (||A - A^H||_max = 1.000e+00)" in str(err.value)
