"""Lattice geometry, basis indexing, operator embedding, site permutations."""

import itertools

import numpy as np
import pytest
import scipy.sparse as sp

from spinmodels import (
    DimensionMismatchError,
    DomainError,
    ResourceCapError,
    SitePermutation,
    basis_digits,
    basis_index,
    basis_vector,
    build_volume,
    chain_volume,
    embed,
    permutation_unitary,
    spin_matrices,
)


def test_chain_sites_and_edges_open():
    vol = chain_volume(4, boundary="open")
    assert vol.sites == ((0,), (1,), (2,), (3,))
    assert vol.edges == (((0,), (1,)), ((1,), (2,)), ((2,), (3,)))
    assert vol.hilbert_dim == 16


def test_chain_edges_periodic():
    vol = chain_volume(4, boundary="periodic")
    assert len(vol.edges) == 4
    assert (((3,), (0,)) in vol.edges) or (((0,), (3,)) in vol.edges)


def test_edge_counts_against_hand_counts():
    # (#sites, boundary) -> edge count worked out by hand
    cases = [
        ((4,), "open", 3),
        ((4,), "periodic", 4),
        ((2,), "periodic", 1),   # wrap duplicates the single bond; deduplicated
        ((3,), "periodic", 3),
        ((2, 2), "open", 4),
        ((2, 2), "periodic", 4),  # wrap bonds coincide with the open ones
        ((3, 3), "open", 12),
        ((3, 3), "periodic", 18),
        ((2, 3), "open", 7),
    ]
    for dims, boundary, count in cases:
        vol = build_volume(dims, boundary=boundary)
        assert len(vol.edges) == count, (dims, boundary, len(vol.edges))


def test_sites_are_lexicographic():
    vol = build_volume((2, 3), boundary="open")
    assert vol.sites == tuple(itertools.product(range(2), range(3)))


def test_basis_index_digit_roundtrip():
    vol = chain_volume(3, local_dim=3)
    for idx in range(27):
        digits = basis_digits(vol, idx)
        assert basis_index(vol, digits) == idx
    # site 0 is the most significant digit
    assert basis_index(vol, (1, 0, 0)) == 9
    assert basis_index(vol, (0, 0, 2)) == 2


def test_basis_vector_one_hot():
    vol = chain_volume(2)
    v = basis_vector(vol, (1, 0))
    assert v.shape == (4,)
    assert v[basis_index(vol, (1, 0))] == 1.0
    assert np.sum(np.abs(v)) == 1.0


def test_hilbert_cap_enforced():
    with pytest.raises(ResourceCapError):
        build_volume((17,), local_dim=2)  # 2^17 > 65536
    # explicit larger cap admits it
    vol = build_volume((17,), local_dim=2, max_hilbert_dim=1 << 20)
    assert vol.hilbert_dim == 1 << 17


def test_embed_single_site_oracle():
    vol = chain_volume(2)
    ops = spin_matrices(0.5)
    a0 = embed(ops.s3, ((0,),), vol).toarray()
    assert np.array_equal(a0, np.diag([0.5, 0.5, -0.5, -0.5]))
    a1 = embed(ops.s3, ((1,),), vol).toarray()
    assert np.array_equal(a1, np.diag([0.5, -0.5, 0.5, -0.5]))


def test_embed_matches_kron_oracle():
    rng = np.random.default_rng(5)
    vol = chain_volume(4, local_dim=2)
    eye = np.eye(2)
    for _ in range(6):
        m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        x = int(rng.integers(0, 4))
        factors = [eye] * 4
        factors[x] = m
        want = factors[0]
        for f in factors[1:]:
            want = np.kron(want, f)
        got = embed(m, ((x,),), vol).toarray()
        assert np.array_equal(got, want)  # embedding copies entries, no arithmetic


def test_embed_two_site_nonadjacent():
    # operator on sites (0, 2) of a 3-chain, explicit matrix-element oracle
    rng = np.random.default_rng(9)
    vol = chain_volume(3)
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    got = embed(m, ((0,), (2,)), vol).toarray()
    want = np.zeros((8, 8), dtype=complex)
    for d0, d1, d2, e0, e1, e2 in itertools.product(range(2), repeat=6):
        if d1 != e1:
            continue
        row = d0 * 4 + d1 * 2 + d2
        col = e0 * 4 + e1 * 2 + e2
        want[row, col] = m[d0 * 2 + d2, e0 * 2 + e2]
    assert np.array_equal(got, want)


@pytest.mark.parametrize("local_dim, support", [
    (2, [(1,)]), (2, [(0,), (1,)]), (2, [(3,), (1,)]),
    (3, [(2,)]), (3, [(1,), (2,)]), (3, [(2,), (0,)]),
], ids=["s1/2-site", "s1/2-bond", "s1/2-reversed", "s1-site", "s1-bond", "s1-reversed"])
def test_embed_is_the_canonical_csr_of_its_matrix_elements(local_dim, support):
    # the CSR is built directly, not converted: it must hold exactly the
    # arrays scipy's canonical form of the matrix-element oracle holds
    n, k = local_dim, len(support)
    vol = chain_volume(4, local_dim=n)
    rng = np.random.default_rng(11)
    m = rng.standard_normal((n**k, n**k)) + 1j * rng.standard_normal((n**k, n**k))
    want = np.zeros((vol.hilbert_dim,) * 2, dtype=complex)
    slots = [vol.rank[s] for s in support]
    for row, col in itertools.product(range(vol.hilbert_dim), repeat=2):
        dr, dc = basis_digits(vol, row), basis_digits(vol, col)
        if all(dr[x] == dc[x] for x in range(vol.num_sites) if x not in slots):
            local = [sum(d[x] * n ** (k - 1 - i) for i, x in enumerate(slots)) for d in (dr, dc)]
            want[row, col] = m[local[0], local[1]]
    got, want = embed(m, support, vol), sp.csr_array(want)
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


def test_embed_bare_site_support():
    vol = chain_volume(2)
    ops = spin_matrices(0.5)
    # a bare site tuple is accepted in place of a 1-tuple of sites
    a = embed(ops.s3, (0,), vol).toarray()
    b = embed(ops.s3, ((0,),), vol).toarray()
    assert np.array_equal(a, b)


def test_embed_rejects_bad_support():
    vol = chain_volume(3)
    ops = spin_matrices(0.5)
    with pytest.raises(DomainError):
        embed(ops.s3, ((5,),), vol)
    with pytest.raises(DomainError):
        embed(ops.s3, ((0,), (0,)), vol)  # repeated site
    with pytest.raises(DimensionMismatchError):
        embed(np.eye(3), ((0,),), vol)  # local dim mismatch


def test_permutation_identity_and_inverse():
    vol = chain_volume(5, boundary="periodic")
    ident = SitePermutation.identity(vol)
    tr = SitePermutation.translation(vol, 2)
    assert tr.compose(tr.inverse()).mapping == ident.mapping
    assert tr.inverse().compose(tr).mapping == ident.mapping


def test_permutation_unitary_is_homomorphism():
    vol = chain_volume(4, boundary="periodic")
    t1 = SitePermutation.translation(vol, 1)
    u1 = permutation_unitary(t1, vol).toarray()
    u2 = permutation_unitary(t1.compose(t1), vol).toarray()
    assert np.array_equal(u2, u1 @ u1)
    # unitary with 0/1 entries
    assert np.array_equal(u1 @ u1.conj().T, np.eye(16))
    assert set(np.unique(u1)) <= {0.0, 1.0}


def test_permutation_unitary_transports_support():
    vol = chain_volume(4, boundary="periodic")
    ops = spin_matrices(0.5)
    t1 = SitePermutation.translation(vol, 1)
    u = permutation_unitary(t1, vol).toarray()
    for x in range(4):
        ax = embed(ops.s3, ((x,),), vol).toarray()
        ay = embed(ops.s3, (t1((x,)),), vol).toarray()
        assert np.array_equal(u @ ax @ u.conj().T, ay)


def test_swap_preserves_edges_only_when_symmetric():
    vol = chain_volume(4, boundary="open")
    # reflecting the whole chain maps edges to edges
    reflect = SitePermutation({(x,): (3 - x,) for x in range(4)})
    assert reflect.preserves_edges(vol)
    # swapping the ends of two bonds does not
    sw = SitePermutation.swap(vol, (0,), (2,))
    assert not sw.preserves_edges(vol)
    # wrap-around shift of an open chain is a permutation but not a symmetry
    tr = SitePermutation.translation(vol, 1)
    assert not tr.preserves_edges(vol)
    assert tr.preserves_edges(chain_volume(4, boundary="periodic"))


def test_permutation_rejects_non_bijection():
    vol = chain_volume(3)
    with pytest.raises(DomainError):
        SitePermutation({(0,): (1,), (1,): (1,), (2,): (0,)})
