"""Finite hypercubic volumes: sites, bonds, tensor-slot indexing, embeddings.

A volume is a box of shape ``dims`` in Z^d with open or periodic boundary.
Sites are integer coordinate tuples, ordered lexicographically; the position
of a site in that order is its *rank*, which is also its tensor slot.  The
product-basis index of a digit string (d_0, ..., d_{L-1}) — one base-n digit
per site in rank order, digit 0 meaning the highest S3 state — puts the
rank-0 digit in the most significant position:

    index = sum_x  d_x * n**(L - 1 - x)

which is exactly the ordering produced by chained Kronecker products with the
rank-0 factor leftmost.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .errors import DimensionMismatchError, DomainError, ResourceCapError
from .spin_algebra import as_matrix

#: Hard cap on the total Hilbert-space dimension (sparse storage included).
MAX_HILBERT_DIM = 65536

Site = tuple[int, ...]


@dataclass(frozen=True, eq=False)
class Volume:
    """A finite box of spins with its adjacency structure.

    Attributes:
        dims: box extent per axis.
        boundary: "open" or "periodic".
        local_dim: on-site Hilbert-space dimension n (= 2S+1).
        sites: all sites in lexicographic order.
        edges: nearest-neighbour bonds as (a, b) pairs with rank(a) < rank(b),
            deduplicated (an extent-2 periodic axis yields one bond, not two).
        rank: site -> position in ``sites`` (also its tensor slot).
    """

    dims: tuple[int, ...]
    boundary: str
    local_dim: int
    sites: tuple[Site, ...]
    edges: tuple[tuple[Site, Site], ...]
    rank: dict = field(repr=False)

    @property
    def num_sites(self) -> int:
        return len(self.sites)

    @property
    def dimension(self) -> int:
        """Spatial dimension d of the box."""
        return len(self.dims)

    @property
    def hilbert_dim(self) -> int:
        return self.local_dim ** self.num_sites

    def strides(self) -> np.ndarray:
        """stride[slot] = n**(L-1-slot); index = digits . strides."""
        n, L = self.local_dim, self.num_sites
        return np.array([n ** (L - 1 - j) for j in range(L)], dtype=np.int64)

    def __repr__(self):
        return (
            f"Volume(dims={self.dims}, boundary={self.boundary!r}, "
            f"local_dim={self.local_dim}, sites={self.num_sites}, "
            f"edges={len(self.edges)})"
        )


def build_volume(
    dims,
    boundary: str = "open",
    local_dim: int = 2,
    max_hilbert_dim: int = MAX_HILBERT_DIM,
) -> Volume:
    """Construct a Volume, its lexicographic site order and its bond list.

    Raises:
        DomainError: bad extents, boundary keyword, or local dimension.
        ResourceCapError: local_dim**num_sites exceeds ``max_hilbert_dim``.
    """
    dims = tuple(int(t) for t in np.atleast_1d(np.asarray(dims, dtype=object)).tolist())
    if len(dims) == 0 or any(t < 1 for t in dims):
        raise DomainError(f"box extents must be positive integers, got {dims}")
    if boundary not in ("open", "periodic"):
        raise DomainError(f"boundary must be 'open' or 'periodic', got {boundary!r}")
    if not isinstance(local_dim, (int, np.integer)) or local_dim < 2:
        raise DomainError(f"local dimension must be an integer >= 2, got {local_dim!r}")
    num_sites = 1
    for t in dims:
        num_sites *= t
    total = local_dim ** num_sites  # exact bignum arithmetic
    if total > max_hilbert_dim:
        raise ResourceCapError(
            f"Hilbert dimension {local_dim}^{num_sites} exceeds cap {max_hilbert_dim}"
        )

    sites = tuple(itertools.product(*(range(t) for t in dims)))
    rank = {site: i for i, site in enumerate(sites)}

    seen: dict[tuple[Site, Site], None] = {}
    for site in sites:
        for axis, extent in enumerate(dims):
            nxt = list(site)
            nxt[axis] += 1
            if nxt[axis] >= extent:
                if boundary == "open" or extent == 1:
                    continue
                nxt[axis] %= extent
            neighbour = tuple(nxt)
            if neighbour == site:
                continue
            pair = (site, neighbour)
            if rank[pair[0]] > rank[pair[1]]:
                pair = (neighbour, site)
            if pair not in seen:
                seen[pair] = None
    return Volume(
        dims=dims,
        boundary=boundary,
        local_dim=int(local_dim),
        sites=sites,
        edges=tuple(seen),
        rank=rank,
    )


def chain_volume(
    length: int,
    boundary: str = "open",
    local_dim: int = 2,
    max_hilbert_dim: int = MAX_HILBERT_DIM,
) -> Volume:
    """One-dimensional convenience wrapper around build_volume."""
    return build_volume((length,), boundary, local_dim, max_hilbert_dim)


# ---------------------------------------------------------------------------
# Product-basis bookkeeping
# ---------------------------------------------------------------------------


def basis_index(volume: Volume, digits) -> int:
    """Index of the product state with the given digits.

    ``digits`` is either a sequence in rank order or a site -> digit dict.
    Digit 0 is the highest-S3 local state.
    """
    if isinstance(digits, dict):
        digits = [digits[site] for site in volume.sites]
    digits = list(digits)
    if len(digits) != volume.num_sites:
        raise DimensionMismatchError(
            f"got {len(digits)} digits for {volume.num_sites} sites"
        )
    n = volume.local_dim
    idx = 0
    for d in digits:
        d = int(d)
        if not 0 <= d < n:
            raise DomainError(f"digit {d} outside local range 0..{n - 1}")
        idx = idx * n + d
    return idx


def basis_digits(volume: Volume, index: int) -> tuple[int, ...]:
    """Inverse of basis_index."""
    if not 0 <= index < volume.hilbert_dim:
        raise DomainError(f"basis index {index} outside 0..{volume.hilbert_dim - 1}")
    n = volume.local_dim
    out = []
    for _ in range(volume.num_sites):
        out.append(index % n)
        index //= n
    return tuple(reversed(out))


def basis_vector(volume: Volume, digits) -> np.ndarray:
    """Unit vector of the product state with the given digits."""
    vec = np.zeros(volume.hilbert_dim, dtype=np.complex128)
    vec[basis_index(volume, digits)] = 1.0
    return vec


# ---------------------------------------------------------------------------
# Embedding local operators
# ---------------------------------------------------------------------------


def _normalize_support(support, volume: Volume) -> list[Site]:
    """Accept a single site or a sequence of sites; validate membership."""
    if isinstance(support, tuple) and all(isinstance(c, (int, np.integer)) for c in support):
        support = [support]
    sites = [tuple(int(c) for c in s) for s in support]
    for s in sites:
        if s not in volume.rank:
            raise DomainError(f"site {s} is not in the volume")
    if len(set(sites)) != len(sites):
        raise DomainError(f"support sites must be distinct, got {sites}")
    return sites


def _embed_csr(local_op, support: list[Site], volume: Volume) -> sp.csr_array:
    """CSR embedding of ``local_op`` acting on ``support`` (identity elsewhere).

    Entry values are copied verbatim from the local matrix — the embedding
    itself introduces no floating-point arithmetic, so operators embedded on
    disjoint supports commute exactly.  Row r holds the local row that r's
    digits on the support spell, its columns shifted by r's other digits, in
    increasing column order: the CSR is canonical as built.
    """
    n, k, dim = volume.local_dim, len(support), volume.hilbert_dim
    local = as_matrix(local_op)  # DomainError unless square
    local = np.asarray(local.toarray() if sp.issparse(local) else local, np.complex128)
    if local.shape[0] != n ** k:
        raise DimensionMismatchError(
            f"local operator dim {local.shape[0]} != {n}^{k} for a {k}-site support"
        )

    strides = volume.strides()[[volume.rank[s] for s in support]]
    local_strides = n ** np.arange(k - 1, -1, -1, dtype=np.int64)

    def digits(indices: np.ndarray, radix: np.ndarray) -> np.ndarray:
        """The base-n digit of each index at each of the given strides."""
        return (indices[:, None] // radix) % n

    rows_l, cols_l = np.nonzero(local)
    col_off = digits(cols_l, local_strides) @ strides  # local column -> offset in the volume
    order = np.lexsort((col_off, rows_l))
    vals, col_off = local[rows_l, cols_l][order], col_off[order]
    counts = np.bincount(rows_l, minlength=n ** k)
    first = np.cumsum(counts) - counts

    index = np.arange(dim, dtype=np.int64)
    on_support = digits(index, strides)
    local_row = on_support @ local_strides
    rest = index - on_support @ strides
    per_row = counts[local_row]
    indptr = np.concatenate(([0], np.cumsum(per_row)))
    entry = np.repeat(first[local_row] - indptr[:-1], per_row) + np.arange(indptr[-1])
    cols = col_off[entry] + np.repeat(rest, per_row)
    return sp.csr_array((vals[entry], cols, indptr), shape=(dim, dim))


def embed(local_op, support, volume: Volume) -> sp.csr_array:
    """Embed a k-site operator into the full volume (identity on other sites).

    ``support`` is an ordered list of sites; the first tensor factor of
    ``local_op`` acts on ``support[0]``, and so on.  A single site may be
    passed bare.  The result is CSR at every size, with at most dim * n^k
    stored entries.
    """
    sites = _normalize_support(support, volume)
    return _embed_csr(local_op, sites, volume)


# ---------------------------------------------------------------------------
# Site permutations and their unitaries
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SitePermutation:
    """A bijection of a volume's site set.

    Only permutations that preserve the bond set implement symmetries of a
    translation-invariant Hamiltonian; ``preserves_edges`` checks that.
    """

    mapping: dict

    def __post_init__(self):
        m = dict(self.mapping)
        if set(m.keys()) != set(m.values()):
            raise DomainError("mapping is not a bijection of its site set")
        object.__setattr__(self, "mapping", m)

    def __call__(self, site: Site) -> Site:
        try:
            return self.mapping[site]
        except KeyError:
            raise DomainError(f"site {site} not in permutation domain") from None

    def inverse(self) -> "SitePermutation":
        return SitePermutation({v: k for k, v in self.mapping.items()})

    def compose(self, other: "SitePermutation") -> "SitePermutation":
        """self after other: x -> self(other(x))."""
        if set(self.mapping) != set(other.mapping):
            raise DomainError("permutations act on different site sets")
        return SitePermutation({x: self.mapping[y] for x, y in other.mapping.items()})

    def preserves_edges(self, volume: Volume) -> bool:
        def canon(a, b):
            return (a, b) if volume.rank[a] <= volume.rank[b] else (b, a)

        imaged = {canon(self(a), self(b)) for a, b in volume.edges}
        return imaged == set(volume.edges)

    @classmethod
    def identity(cls, volume: Volume) -> "SitePermutation":
        return cls({s: s for s in volume.sites})

    @classmethod
    def translation(cls, volume: Volume, shift) -> "SitePermutation":
        """x -> x + shift (mod dims).  Edge-preserving only on periodic volumes."""
        shift = tuple(int(c) for c in np.atleast_1d(shift).tolist())
        if len(shift) != volume.dimension:
            raise DomainError(
                f"shift has {len(shift)} components for a {volume.dimension}-d volume"
            )
        return cls(
            {
                s: tuple((c + dc) % t for c, dc, t in zip(s, shift, volume.dims))
                for s in volume.sites
            }
        )

    @classmethod
    def swap(cls, volume: Volume, a: Site, b: Site) -> "SitePermutation":
        if a not in volume.rank or b not in volume.rank:
            raise DomainError(f"swap sites {a}, {b} must lie in the volume")
        m = {s: s for s in volume.sites}
        m[a], m[b] = b, a
        return cls(m)


def permutation_unitary(perm, volume: Volume) -> sp.csr_array:
    """The unitary that relabels sites by ``perm``, as a CSR permutation matrix.

    Moves the digit at site x to site g(x), so U A U^dagger carries an
    operator supported on x to one supported on g(x), and the map g -> U_g
    is a homomorphism: U_g U_h = U_{g.compose(h)}.  Entries are exactly 0/1.
    """
    if not isinstance(perm, SitePermutation):
        perm = SitePermutation(perm)
    if set(perm.mapping) != set(volume.sites):
        raise DomainError("permutation domain does not match the volume's sites")
    n = volume.local_dim
    L = volume.num_sites
    dim = volume.hilbert_dim
    strides = volume.strides()
    # target_stride[slot] = stride of the slot the digit moves to
    target = np.array(
        [strides[volume.rank[perm(site)]] for site in volume.sites], dtype=np.int64
    )
    idx = np.arange(dim, dtype=np.int64)
    digits = (idx[:, None] // strides[None, :]) % n
    rows = digits @ target
    data = np.ones(dim, dtype=np.complex128)
    return sp.csr_array(sp.coo_array((data, (rows, idx)), shape=(dim, dim)))
