"""Lattice geometry, basis indexing, operator embedding."""

import itertools

import numpy as np
import pytest
import scipy.sparse as sp

from spinmodels import (
    DimensionMismatchError,
    DomainError,
    ResourceCapError,
    basis_index,
    build_volume,
    chain_volume,
    embed,
    spin_matrices,
)


def basis_digits(vol, index):
    """The digits of a basis index, rank 0 first: the inverse of basis_index."""
    assert 0 <= index < vol.hilbert_dim
    return tuple(index // vol.local_dim ** (vol.num_sites - 1 - x) % vol.local_dim
                 for x in range(vol.num_sites))


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
    # the basis vector at basis_index of digits (1, 0) is the product state
    # down (x) up: S3 at site 0 reads -1/2 on it, at site 1 +1/2
    vol = chain_volume(2)
    v = np.zeros(vol.hilbert_dim)
    v[basis_index(vol, (1, 0))] = 1.0
    s3 = spin_matrices(0.5).s3
    assert np.array_equal(embed(s3, [(0,)], vol) @ v, -0.5 * v)
    assert np.array_equal(embed(s3, [(1,)], vol) @ v, 0.5 * v)


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
