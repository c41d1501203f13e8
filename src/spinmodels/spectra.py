"""Spectra, ground spaces and gaps.

A Hamiltonian is diagonalized once.  :class:`EigenSystem` holds H with its
decomposition from :func:`spinmodels.spin_algebra.hermitian_eig`, kept as
blocks: the invariant blocks of H's exact nonzero pattern (for the built-in
models, the conserved total-S3 sectors or finer), in float64 when the block
is real, as all of a built-in H are, and no dim x dim eigenvector matrix.
Each block is one LAPACK ``eigh``, except when H is exactly spin-flip
symmetric (``flip``): then each +-m pair of blocks costs one ``eigh``, and a
block that is its own mirror two of half its size.
``full_spectrum``, ``ground_space``, ``spectral_gap``, the Gibbs and KMS
routines of :mod:`spinmodels.states` and the evolutions of
:mod:`spinmodels.dynamics` accept a Hamiltonian (and then build an
EigenSystem with the default cap) or an EigenSystem built once and shared.
Its constructor is the only dense-size guard; the cap is an argument.  The
one imaginary-time guard is the constant ``RANGE_LIMIT``: exp(beta H) runs
only while |beta| * (w_max - w_min) <= RANGE_LIMIT.

The low end of the spectrum has one routine, :func:`low_levels`, with two
independent routes: the EigenSystem (exact, up to the dense cap) and the
in-house block Lanczos from :mod:`spinmodels.krylov` for sparse operators.
It picks the route from the dimension but accepts an explicit ``method`` so
the two can be cross-checked; ``ground_space`` and ``spectral_gap`` are
views of its result.  Both routes solve the blocks of one plan of H, copy
solved blocks onto their spin-flip mirrors, and read their window scale from
their own solves (no norm estimate runs).  A real H is solved in float64 on
both; a complex H on the dense route in float64 for each block whose
imaginary part is exactly zero, and on the krylov route in complex128.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .errors import (DimensionMismatchError, DomainError, RangeLimitError,
                     ResourceCapError, SolverError)
from .krylov import lowest_eigenpairs
from .spin_algebra import (
    DENSE_CUTOFF,
    _block_plan,
    _flip_parity,
    _hermitian,
    as_matrix,
    eigenvector_columns,
    hermitian_eig,
)

#: Relative width of the window that groups eigenvalues into one multiplet.
DEGENERACY_TOL = 1e-8

#: Largest certifiable ground-space degeneracy on the sparse route.
MAX_SPARSE_DEGENERACY = 64

#: Largest exponent fed to exp(); beyond this the call is refused.
RANGE_LIMIT = 700.0


def _adjoint(v):
    """v^H, a view when v is real; None (the identity) stays None."""
    return v if v is None else v.conj().T


def _matmul(l, r):
    """l @ r.  A real dense factor meets a complex one in float64: it
    multiplies the complex factor's interleaved real and imaginary parts."""
    if sp.issparse(l) or sp.issparse(r) or np.iscomplexobj(l) == np.iscomplexobj(r):
        return l @ r
    if np.iscomplexobj(l):
        return _matmul(r.T, l.T).T
    return (l @ np.ascontiguousarray(r).view(np.float64)).view(np.complex128)


def _sandwich(l, x, r):
    """l @ x @ r, right product first; None stands for an identity factor."""
    x = x if r is None else _matmul(x, r)
    return x if l is None else _matmul(l, x)


def _row_sums(k, g, n):
    """The n-row array whose row r is the sum of the rows g[k == r]."""
    order = np.argsort(k, kind="stable")
    k, first = k[order], np.flatnonzero(np.diff(k[order], prepend=-1))
    out = np.zeros((n, g.shape[1]), g.dtype)
    out[k[first]] = np.add.reduceat(g[order], first)
    return out


class EigenSystem:
    """A Hermitian Hamiltonian with its full eigendecomposition, computed once.

    ``h`` is the Hamiltonian as given (ndarray or CSR), ``eigenvalues`` are
    ascending, and the eigenvectors stay per invariant block: ``blocks`` are
    the (basis indices, eigenvalues, eigenvectors) triples of
    :class:`~spinmodels.spin_algebra.HermitianEig`, float64 when H has no
    imaginary part, and ``plan`` the block plan they were solved from, whose
    block order the evolutions read.  In the eigenbasis, conjugation by
    exp(itH) is an entrywise phase, so an evolution costs a few products per
    pair of blocks that the operator couples, or per mirror pair of them (see
    ``_conjugate``).
    """

    def __init__(self, h, *, cap_dense: int = DENSE_CUTOFF):
        m = _hermitian(h, "Hamiltonian")
        dim = m.shape[0]
        if dim > cap_dense:
            raise ResourceCapError(
                f"dense eigendecomposition refused at dim {dim} > {cap_dense}"
            )
        self.h = m
        self.eigenvalues, self.blocks, self.plan = hermitian_eig(m)
        self.gibbs_memo = None  # the last state built by states.gibbs
        # the plan's block order lists the blocks' basis indices, and their columns, in turn
        self._start, self._basis = self.plan.starts, self.plan.members
        self._vectors = [None] + [v for _, _, v in self.blocks[1:]]  # None: the identity
        w = np.concatenate([w for _, w, _ in self.blocks])
        self._rank = np.argsort(np.argsort(w, kind="stable"))  # ascending index

    @classmethod
    def of(cls, h, **kwargs) -> "EigenSystem":
        """``h`` itself if it is an EigenSystem, else a new one built from it."""
        return h if isinstance(h, cls) else cls(h, **kwargs)

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[0]

    @cached_property
    def orthogonality_defect(self) -> float:
        """max_b ||V_b^H V_b - I||_F, one GEMM per block (block 0, the identity,
        gives 0): the witness of the completeness V V^H = I on which the KMS
        flow side rests (see :func:`spinmodels.states.kms_terms`)."""
        return max((float(np.linalg.norm(_matmul(_adjoint(x), x) - np.eye(len(x))))
                    for x in self._vectors[1:]), default=0.0)

    def require_range(self, beta: float) -> None:
        """Refuse imaginary time beta when |beta| * spread exceeds RANGE_LIMIT."""
        exponent = abs(beta) * float(self.eigenvalues[-1] - self.eigenvalues[0])
        if exponent > RANGE_LIMIT:
            raise RangeLimitError(
                f"imaginary-time exponent {exponent:.3g} exceeds range limit {RANGE_LIMIT}"
            )

    def _entries(self, a):
        """A's CSR entries (i, j, d), a dense A converted once, in block order
        (``_BlockPlan.places``), with their pair keys b * nb + c."""
        m = as_matrix(a)
        m = m if sp.issparse(m) else sp.csr_array(m)
        if m.shape[0] != self.dim:
            raise DimensionMismatchError(
                f"operator dim {m.shape[0]} does not match Hamiltonian dim {self.dim}"
            )
        br, bc, row, col = self.plan.places(m)
        return br * len(self.blocks) + bc, row, col, m.data

    def coupled(self, a) -> set[tuple[int, int]]:
        """The pairs (b, c) of ``blocks`` that A couples: label lookups on its
        entries, no product."""
        keys = np.flatnonzero(np.bincount(self._entries(a)[0])).tolist()
        return {divmod(k, len(self.blocks)) for k in keys}

    def eigen_diagonal(self, a) -> np.ndarray:
        """The diagonal of V^H A V in block order from A's entries (i, j, d)
        inside one block b: t_k = sum d conj(V_b[i, k]) V_b[j, k], O(nnz(A_bb) d_b)
        and no GEMM; block 0, whose vectors are the identity, reads A's diagonal."""
        nb, s, v = len(self.blocks), self._start, self._vectors
        key, row, col, data = self._entries(a)
        keep = np.flatnonzero(key % (nb + 1) == 0)  # b * nb + c with b == c
        keep = keep[np.argsort(row[keep], kind="stable")]
        row, col, data = row[keep], col[keep], data[keep]
        cut, out = np.searchsorted(row, s), np.zeros(self.dim, np.complex128)
        one = (row == col) & (row < s[1])
        np.add.at(out, row[one], data[one])  # duplicate entries add
        for b in range(1, nb):  # 2^20 gathered numbers at a time
            step = max(1, (1 << 20) // len(v[b]))
            for e in range(cut[b], cut[b + 1], step):
                f = min(e + step, cut[b + 1])
                i, j = row[e:f] - s[b], col[e:f] - s[b]
                out[s[b]:s[b + 1]] += _matmul(data[None, e:f], v[b][i].conj() * v[b][j])[0]
        return out

    def pairs(self, a, among=None):
        """Yield (b, c, V_b^H A_bc V_c) for each pair of ``blocks`` that A
        couples, or only for those in the set ``among``.

        A's entries (see ``_entries``) are grouped by pair.  Each pair costs
        whichever is fewer multiply-adds: the gather-GEMM
        V_b[i]^H (d * V_c[j]) (nnz d_b d_c), or A_bc, filled from the entries,
        times V_c and then V_b^H (d_b d_c (d_b + d_c)).  Real blocks meet
        complex factors in float64 (see ``_matmul``).  Block 0's vectors, the
        identity, are applied by indexing; between two of its entries the
        result is A's own entries as a COO array.
        """
        nb, s, v = len(self.blocks), self._start, self._vectors
        key, row, col, data = self._entries(a)
        if among is not None:
            keep = np.isin(key, [b * nb + c for b, c in among])
            key, row, col, data = key[keep], row[keep], col[keep], data[keep]
        order = np.argsort(key, kind="stable")
        key, row, col, data = key[order], row[order], col[order], data[order]
        bounds = np.flatnonzero(np.diff(key, prepend=-1, append=nb * nb)).tolist()
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            b, c = divmod(int(key[lo]), nb)
            shape = (s[b + 1] - s[b], s[c + 1] - s[c])
            i, j, d = row[lo:hi] - s[b], col[lo:hi] - s[c], data[lo:hi]
            if v[b] is None and v[c] is None:
                yield b, c, sp.coo_array((d, (i, j)), shape=shape)
            elif v[c] is None:  # the columns d V_b[i]^H add up by j
                yield b, c, _row_sums(j, d[:, None] * v[b][i].conj(), shape[1]).T
            elif v[b] is None:  # the rows d V_c[j] add up by i
                yield b, c, _row_sums(i, d[:, None] * v[c][j], shape[0])
            elif i.size <= sum(shape):
                yield b, c, _matmul(_adjoint(v[b][i]), d[:, None] * v[c][j])
            else:
                x = np.zeros(shape, d.dtype)
                np.add.at(x, (i, j), d)  # duplicate entries add
                yield b, c, _sandwich(_adjoint(v[b]), x, v[c])

    def flow(self, b, c, x, z):
        """The (b, c) block V_b (x * exp(z (w_j - w_k))) V_c^H of exp(zH) A exp(-zH)
        from x = V_b^H A_bc V_c as ``pairs`` yields it; a COO x is rescaled in place."""
        wb, wc, v = self.blocks[b][1], self.blocks[c][1], self._vectors
        if sp.issparse(x):
            x.data = x.data * np.exp(z * (wb[x.row] - wc[x.col]))
            return x
        return _sandwich(v[b], x * np.exp(z * (wb[:, None] - wc[None, :])), _adjoint(v[c]))

    def _conjugate(self, a, z=None):
        """V^H A V in the order of ``eigenvalues`` when ``z`` is None, else
        exp(zH) A exp(-zH) = V (V^H A V * exp(z (w_j - w_k))) V^H, A itself at
        z = 0; stored as A is.

        Under a flip-symmetric H, a flow of A with J A J == s A exactly
        (s = +-1) computes only the first of each pair (b, c) and its mirror,
        then adds the image s J Y J of all it computed: the pairs it skipped,
        and, for a pair that is its own mirror, the other half of an average.
        So J A_t J == s A_t holds bitwise.  The eigenbasis form keeps every
        pair: self-mirrored blocks' eigenvectors are even and odd halves."""
        m, mirror = as_matrix(a), self.plan.mirror
        if z == 0:
            return m
        s = _flip_parity(m) if z is not None and self.plan.flip else 0
        target = self._rank if z is None else self._basis
        first = {min((b, c), (mirror[b], mirror[c])) for b, c in self.coupled(m)} if s else None
        parts = [(np.empty(0, np.intp), np.empty(0, np.intp), np.empty(0))]
        for b, c, x in self.pairs(m, first):
            x = sp.coo_array(x if z is None else self.flow(b, c, x, z))
            if s and (mirror[b], mirror[c]) == (b, c):
                x.data = x.data / 2  # its image adds the other half
            parts.append((target[self._start[b] + x.row], target[self._start[c] + x.col], x.data))
        rows, cols, vals = map(np.concatenate, zip(*parts))
        if s:  # J is the index reversal
            n = self.dim - 1
            rows, cols, vals = np.r_[rows, n - rows], np.r_[cols, n - cols], np.r_[vals, s * vals]
        out = sp.coo_array((vals, (rows, cols)), shape=(self.dim, self.dim)).tocsr()
        return out if sp.issparse(m) else out.toarray()

    def to_eigenbasis(self, a):
        """V^dagger A V in the order of ``eigenvalues``, stored as A is."""
        return self._conjugate(a)

    def evolve(self, a, t: float):
        """alpha_t(A) = exp(itH) A exp(-itH), stored as A is.  t = 0 returns
        A unchanged."""
        return self._conjugate(a, 1j * float(t))

    def evolve_imaginary(self, a, beta: float):
        """exp(-beta H) A exp(beta H), stored as A is.  Refused when
        |beta| * spread > RANGE_LIMIT."""
        self.require_range(float(beta))
        return self._conjugate(a, -float(beta))

    def evolve_vector(self, psi: np.ndarray, t: float) -> np.ndarray:
        """Schroedinger evolution exp(-itH) psi, block by block."""
        psi = np.asarray(psi, dtype=np.complex128)
        if psi.shape != (self.dim,):
            raise DimensionMismatchError(f"state shape {psi.shape} does not match dim {self.dim}")
        out = np.empty_like(psi)
        for idx, w, v in self.blocks:
            out[idx] = v @ (np.exp(-1j * float(t) * w) * (v.conj().T @ psi[idx]))
        return out


@dataclass
class LowLevels:
    """The low end of a spectrum, from one route.

    ``eigenvalues`` are ascending: the whole spectrum on the dense route, the
    lowest ``num`` on the krylov route.  ``basis`` spans the ground multiplet
    of ``degeneracy`` levels; ``gap`` is 0.0 when no level lies above it.
    The route's own diagnostics are set on its route only: ``block_sizes``,
    the EigenSystem's invariant blocks, and ``flip``, whether H is exactly
    flip-symmetric, on the dense route; on the krylov route
    ``solved_blocks``, the size of the block of each Lanczos run in solve
    order, ``iterations``, the steps of all runs, and ``max_residual``, the
    largest ||H v - theta v|| of their pairs (0 and 0.0 with no run).
    """

    method: str
    eigenvalues: np.ndarray
    degeneracy: int
    gap: float
    basis: np.ndarray
    block_sizes: list[int] | None = None
    flip: bool | None = None
    iterations: int | None = None
    max_residual: float | None = None
    solved_blocks: list[int] | None = None

    @property
    def energy(self) -> float:
        return float(self.eigenvalues[0])

    @property
    def diagnostics(self) -> dict:
        """The route's own diagnostics by name, for a result payload."""
        dense = self.method == "dense"
        keys = ("block_sizes", "flip") if dense else ("iterations", "max_residual", "solved_blocks")
        return {key: getattr(self, key) for key in keys}


def full_spectrum(h) -> EigenSystem:
    """All eigenvalues (ascending) and eigenvectors, dense route only."""
    return EigenSystem.of(h)


def _window(e0: float, scale: float) -> float:
    return e0 + DEGENERACY_TOL * max(1.0, scale)


def _gap(w: np.ndarray, degeneracy: int) -> float:
    return float(w[degeneracy] - w[0]) if degeneracy < w.size else 0.0


def low_levels(
    h, num: int = 1, *, method: str | None = None, cap_dense: int = DENSE_CUTOFF
) -> LowLevels:
    """Ground multiplet, gap, and at least the ``num`` lowest eigenvalues.

    Eigenvalues within ``DEGENERACY_TOL * max(1, ||H||)`` of the minimum
    count as one multiplet.  ``method`` is "dense", "krylov", or None (dense
    for an EigenSystem or when the dimension is at most ``cap_dense``, block
    Lanczos otherwise).  Each route takes ||H|| from its own solve: the
    dense route max |eigenvalue|, the krylov route the largest |Ritz value|
    of its Lanczos runs (:attr:`~spinmodels.krylov.KrylovResult.scale`) and
    |entry| of its size-1 blocks.  A real H runs in float64 on both routes; a
    complex one in complex128, except for the dense route's blocks whose
    imaginary part is exactly zero.  The krylov route's runs take
    :func:`~spinmodels.krylov.lowest_eigenpairs`'s default seed and stop at
    residuals ``SOLVER_TOL`` relative to their scale.

    The krylov route gives each block of the plan that
    :func:`~spinmodels.spin_algebra.hermitian_eig` solves (the S3 sectors of
    the built-in models) one Lanczos run of max(num, 6) pairs, block as wide;
    size-1 blocks are their diagonal entries, and the mirror of a solved
    block of a flip-symmetric H copies it as there.  Blocks are visited by
    their Gershgorin bound min_i (h_ii - sum_{j != i} |h_ij|), which none of
    their eigenvalues undercuts (Golub and Van Loan, *Matrix Computations*,
    Thm 7.2.1).  Invariant: the lowest max(num, degeneracy + 1) values lie
    more than the window width below the bound of every unsolved block and
    the top Ritz value of every run short of its block; until they do, the
    limiting block is solved, or its run repeated with twice the pairs.  A
    ground multiplet over ``MAX_SPARSE_DEGENERACY`` is a SolverError.
    """
    m = h.h if isinstance(h, EigenSystem) else as_matrix(h)
    dim = m.shape[0]
    if method is None:
        method = "dense" if isinstance(h, EigenSystem) or dim <= cap_dense else "krylov"
    if method not in ("dense", "krylov"):
        raise DomainError(f"method must be 'dense' or 'krylov', got {method!r}")

    if method == "dense":
        es = EigenSystem.of(h, cap_dense=cap_dense)
        w = es.eigenvalues
        win = _window(w[0], float(np.max(np.abs(w))))
        deg = max(int(np.searchsorted(w, win, side="right")), 1)
        return LowLevels("dense", w, deg, _gap(w, deg), eigenvector_columns(es, np.arange(deg)),
                         np.bincount(es.plan.labels).tolist(), es.plan.flip)

    if not isinstance(h, EigenSystem):
        _hermitian(m, "Hamiltonian")
    msp = m if sp.issparse(m) else sp.csr_array(m)
    plan, diag = (h.plan if isinstance(h, EigenSystem) else _block_plan(msp)), msp.diagonal()
    # Gershgorin radii from the arrays: scipy's abs() sorts them, and m's data with them
    radius = np.bincount(np.repeat(np.arange(dim), np.diff(msp.indptr)), abs(msp.data), dim)
    bound = np.minimum.reduceat((diag.real - radius + abs(diag))[plan.members], plan.starts[1:-1])
    singles = plan.members[:plan.starts[1]]
    eye = sp.eye_array(singles.size, dtype=np.result_type(msp.dtype, np.float64), format="csr")
    found = {0: (singles, diag.real[singles], eye)}  # plan block -> (indices, values, vectors)
    # plan block -> the value below which it may hide levels: its bound, then
    # the top Ritz value of its last run, inf once a run covers the block
    limits = dict(enumerate(bound, start=1))
    runs = []  # (block size, KrylovResult) of each Lanczos run
    while True:
        w = np.sort(np.concatenate([w for _, w, _ in found.values()]), kind="stable")
        scale = max([r.scale for _, r in runs] + [float(np.max(abs(found[0][1]), initial=0.0))])
        win = _window(w[0], scale) if w.size else np.inf
        deg = int(np.sum(w <= win))
        need = max(num, deg + 1)
        cutoff = w[need - 1] + (win - w[0]) if need <= w.size else np.inf
        limit, b = min(((v, b) for b, v in limits.items()), default=(np.inf, None))
        done = limit > cutoff or limit == np.inf
        if deg > MAX_SPARSE_DEGENERACY and (done or b in found):
            raise SolverError(
                f"ground-space degeneracy exceeds {MAX_SPARSE_DEGENERACY}; "
                "use the dense route"
            )
        if done:
            break
        idx = plan.members[plan.starts[b]:plan.starts[b + 1]]
        k = min(idx.size, max(2 * found[b][1].size if b in found else 0, num, 6))
        # block as wide as k so a k-fold multiplet survives the Krylov slice
        res = lowest_eigenpairs(msp[idx][:, idx], k, block_size=k)
        runs.append((idx.size, res))
        block, c = (idx, res.eigenvalues, res.eigenvectors), int(plan.mirror[b])
        # b last, so a self-mirrored block (every block without flip) keeps idx
        found[c], found[b] = plan.mirrored(block), block
        limits[c] = limits[b] = float(res.eigenvalues[-1]) if k < idx.size else np.inf
    basis = eigenvector_columns(list(found.values()), np.arange(deg), dim)
    return LowLevels("krylov", w[:num], deg, _gap(w, deg), basis,
                     iterations=sum(r.iterations for _, r in runs),
                     max_residual=max((float(np.max(r.residuals)) for _, r in runs), default=0.0),
                     solved_blocks=[d for d, _ in runs])


def ground_space(h, *, method: str | None = None) -> LowLevels:
    """Lowest eigenvalue with multiplicity, grouped by a relative window.

    The :func:`low_levels` result itself (``energy``, ``degeneracy`` and
    ``basis``); that routine documents the window and ``method``.
    """
    return low_levels(h, method=method)


def spectral_gap(h, *, method: str | None = None) -> float:
    """Energy difference between the ground multiplet and the next level.

    Returns 0.0 when no eigenvalue lies above the degeneracy window (the
    operator is a multiple of the identity to within the window).  A view of
    :func:`low_levels`.
    """
    return low_levels(h, method=method).gap
