"""Spectra, ground spaces and gaps.

A Hamiltonian is diagonalized once.  :class:`EigenSystem` holds H with its
decomposition from :func:`spinmodels.spin_algebra.hermitian_eig`, kept as
blocks: the invariant blocks of H's exact nonzero pattern (for the built-in
models, the conserved total-S3 sectors or finer), in float64 when the block
is real, as all of a built-in H are, and no dim x dim eigenvector matrix.
Each block is one LAPACK ``eigh``, except when H is exactly spin-flip
symmetric (``flip``): then each +-m pair of blocks costs one ``eigh``, and a
block that is its own mirror two of half its size.  ``full_spectrum`` and
the Gibbs and KMS routines of :mod:`spinmodels.states` accept a Hamiltonian
(and then build an EigenSystem with the default cap) or an EigenSystem
built once and shared.  The evolutions are EigenSystem's own methods; each
flows every block pair that the operator couples and refuses a non-finite
time.  The one imaginary-time guard is the constant ``RANGE_LIMIT``:
exp(beta H) runs only while |beta| * (w_max - w_min) <= RANGE_LIMIT.

The low end of the spectrum has one routine, :func:`low_levels`, with two
independent routes, picked from the dimension or named by ``method`` so
they can be cross-checked: the dense route, which reads an EigenSystem or
solves the same blocks of a bare H for eigenvalues alone (``eigvalsh``),
and the in-house block Lanczos of :mod:`spinmodels.krylov` for sparse
operators.  ``ground_space`` and ``spectral_gap`` are views of its result.
Both dense routes pass one size guard, the cap an argument.
"""

from __future__ import annotations

from collections.abc import Callable
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
    _hermitian,
    as_matrix,
    eigenvector_columns,
    hermitian_eig,
    spin_matrices,
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


def _finite(x, what: str) -> float:
    """float(x), or DomainError naming ``what`` unless it is finite."""
    if not np.isfinite(x := float(x)):
        raise DomainError(f"{what} must be finite, got {x}")
    return x


def _dense_hamiltonian(h, cap_dense: int):
    """``as_matrix(h)`` if Hermitian of dim <= ``cap_dense``: the dense-size guard."""
    m = _hermitian(h, "Hamiltonian")
    if m.shape[0] > cap_dense:
        raise ResourceCapError(f"dense eigensolve refused at dim {m.shape[0]} > {cap_dense}")
    return m


class EigenSystem:
    """A Hermitian Hamiltonian with its full eigendecomposition, computed once.

    ``h`` is the Hamiltonian as given (ndarray or CSR), ``eigenvalues`` are
    ascending, and the eigenvectors stay per invariant block: ``blocks`` are
    the (basis indices, eigenvalues, eigenvectors) triples of
    :class:`~spinmodels.spin_algebra.HermitianEig`, float64 when H has no
    imaginary part, and ``plan`` the block plan they were solved from, whose
    block order the evolutions read.  In the eigenbasis, conjugation by
    exp(itH) is an entrywise phase, so an evolution costs one sparse product
    and three GEMMs per pair of blocks that the operator couples (see
    ``pairs`` and ``flow``).
    """

    def __init__(self, h, *, cap_dense: int = DENSE_CUTOFF):
        m = self.h = _dense_hamiltonian(h, cap_dense)
        self.eigenvalues, self.blocks, self.plan = hermitian_eig(m)
        self.gibbs_memo = None  # the last state built by states.gibbs
        # the plan's block order lists the blocks' basis indices, and their columns, in turn
        self._start, self._basis = self.plan.starts, self.plan.members
        self._vectors = [None] + [v for _, _, v in self.blocks[1:]]  # None: the identity

    @classmethod
    def of(cls, h) -> "EigenSystem":
        """``h`` itself if it is an EigenSystem, else a new one built from it."""
        return h if isinstance(h, cls) else cls(h)

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
        """Refuse imaginary time beta unless |beta| * spread <= RANGE_LIMIT."""
        exponent = abs(beta) * float(self.eigenvalues[-1] - self.eigenvalues[0])
        if not exponent <= RANGE_LIMIT:
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

        A's entries (see ``_entries``) are grouped by pair into a COO array
        A_bc (duplicate entries add), and every pair takes one route: A_bc V_c
        (nnz d_c multiply-adds), then V_b^H times that (d_b^2 d_c), real
        blocks meeting complex factors in float64 (see ``_matmul``).  Block
        0's vectors, the identity, are skipped, so between two of its sides
        the result is A_bc itself.
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
            x = sp.coo_array((data[lo:hi], (row[lo:hi] - s[b], col[lo:hi] - s[c])),
                             shape=(s[b + 1] - s[b], s[c + 1] - s[c]))
            yield b, c, _sandwich(_adjoint(v[b]), x, v[c])

    def flow(self, b, c, x, z):
        """The (b, c) block V_b (x * exp(z (w_j - w_k))) V_c^H of exp(zH) A exp(-zH)
        from x = V_b^H A_bc V_c as ``pairs`` yields it; a COO x is rescaled in place."""
        wb, wc, v = self.blocks[b][1], self.blocks[c][1], self._vectors
        if sp.issparse(x):
            x.data = x.data * np.exp(z * (wb[x.row] - wc[x.col]))
            return x
        return _sandwich(v[b], x * np.exp(z * (wb[:, None] - wc[None, :])), _adjoint(v[c]))

    def _conjugate(self, a, z):
        """exp(zH) A exp(-zH) = V (V^H A V * exp(z (w_j - w_k))) V^H, A itself
        at z = 0, stored as A is: one ``flow`` of each pair that ``pairs`` yields."""
        m = as_matrix(a)
        if z == 0:
            return m
        basis, s = self._basis, self._start
        parts = [(np.empty(0, np.intp), np.empty(0, np.intp), np.empty(0))]
        for b, c, x in self.pairs(m):
            x = sp.coo_array(self.flow(b, c, x, z))
            parts.append((basis[s[b] + x.row], basis[s[c] + x.col], x.data))
        rows, cols, vals = map(np.concatenate, zip(*parts))
        out = sp.coo_array((vals, (rows, cols)), shape=(self.dim, self.dim)).tocsr()
        return out if sp.issparse(m) else out.toarray()

    def evolve(self, a, t: float):
        """alpha_t(A) = exp(itH) A exp(-itH), stored as A is.  t = 0 returns
        A unchanged; a non-finite t is refused."""
        return self._conjugate(a, 1j * _finite(t, "time t"))

    def evolve_imaginary(self, a, beta: float):
        """exp(-beta H) A exp(beta H), stored as A is.  Refused when beta is
        not finite or |beta| * spread > RANGE_LIMIT."""
        beta = _finite(beta, "imaginary time beta")
        self.require_range(beta)
        return self._conjugate(a, -beta)

    def evolve_vector(self, psi: np.ndarray, t: float) -> np.ndarray:
        """Schroedinger evolution exp(-itH) psi, block by block; t must be finite."""
        t = _finite(t, "time t")
        psi = np.asarray(psi, dtype=np.complex128)
        if psi.shape != (self.dim,):
            raise DimensionMismatchError(f"state shape {psi.shape} does not match dim {self.dim}")
        out = np.empty_like(psi)
        for idx, w, v in self.blocks:
            out[idx] = v @ (np.exp(-1j * t * w) * (v.conj().T @ psi[idx]))
        return out


@dataclass
class LowLevels:
    """The low end of a spectrum, from one route.

    ``eigenvalues`` are ascending: the whole spectrum on the dense route, the
    lowest ``num`` on the krylov route.  ``basis`` spans the ground multiplet
    of ``degeneracy`` levels; ``gap`` is 0.0 when no level lies above it.
    ``basis`` is computed on its first read: from a bare H, solved then.
    The route's own diagnostics are set on its route only: ``block_sizes``,
    the EigenSystem's invariant blocks, and ``flip``, whether H is exactly
    flip-symmetric, on the dense route; on the krylov route
    ``solved_blocks``, the size of the block of each Lanczos run in solve
    order, ``iterations``, the steps of all runs, ``max_residual``, the
    largest ||H v - theta v|| of their pairs (0 and 0.0 with no run), and
    ``route``, "su2_sector" (with ``spins``, S of each eigenvalue) or "sectors".
    """

    method: str
    eigenvalues: np.ndarray
    degeneracy: int
    gap: float
    _solve_basis: Callable[[], np.ndarray]  # called on the first read of basis
    block_sizes: list[int] | None = None
    flip: bool | None = None
    iterations: int | None = None
    max_residual: float | None = None
    solved_blocks: list[int] | None = None
    route: str | None = None
    spins: np.ndarray | None = None

    @cached_property
    def basis(self) -> np.ndarray:
        return self._solve_basis()

    @property
    def energy(self) -> float:
        return float(self.eigenvalues[0])

    @property
    def diagnostics(self) -> dict:
        """The route's own diagnostics by name, for a result payload."""
        keys = (("block_sizes", "flip") if self.method == "dense" else
                ("iterations", "max_residual", "solved_blocks", "route", "spins"))
        return {key: getattr(self, key) for key in keys if key != "spins" or self.spins is not None}


def full_spectrum(h) -> EigenSystem:
    """All eigenvalues (ascending) and eigenvectors, dense route only."""
    return EigenSystem.of(h)


def _window(e0: float, scale: float) -> float:
    return e0 + DEGENERACY_TOL * max(1.0, scale)


def _gap(w: np.ndarray, degeneracy: int) -> float:
    return float(w[degeneracy] - w[0]) if degeneracy < w.size else 0.0


def _ground_basis(m, blocks, win: float, deg: int) -> np.ndarray:
    """The ``deg`` lowest eigenvectors of the CSR matrix ``m``: m restricted
    to its ``blocks`` (eigenvalues only) that hold a level <= ``win``, solved."""
    idx = np.sort(np.concatenate([i[w <= win] if b == 0 else i for b, (i, w, _)
                                  in enumerate(blocks) if b == 0 or w[0] <= win]))
    sub = hermitian_eig(m[idx][:, idx])
    return eigenvector_columns([(idx[i], w, v) for i, w, v in sub.blocks], np.arange(deg), m.shape[0])


def _raising(src, tgt, n: int, c, dim: int) -> sp.csr_array:
    """Total S+ from the basis states ``src`` into the ranks of the sorted ``tgt``:
    at each site's stride t, a digit d > 0 drops to d - 1 (index - t), weight c[d - 1]."""
    parts, t = [], 1
    while t < dim:
        d = src // t % n
        up = np.flatnonzero(d)
        parts.append((np.searchsorted(tgt, src[up] - t), up, c[d[up] - 1]))
        t *= n
    rows, cols, vals = map(np.concatenate, zip(*parts))
    return sp.csr_array((vals, (rows, cols)), shape=(tgt.size, src.size))


def _su2_levels(m, num: int, spin) -> LowLevels | None:
    """The krylov route on the sector m0 of an H that commutes with the total
    S+ and S3 of local ``spin`` (see :func:`low_levels`), or None."""
    ops, dim, sums = spin_matrices(spin), m.shape[0], np.zeros(1, np.intp)
    n, c = ops.dim, np.diag(ops.sp, 1)
    while sums.size < dim:  # base-n digit sums, accumulated site by site
        sums = (sums[:, None] + np.arange(n)).ravel()
    if sums.size != dim:
        raise DimensionMismatchError(f"dim {dim} is not a power of the local dimension {n}")
    top = int(sums[-1]) // 2  # the digit sum of sector m0 = L s - top, 0 or 1/2
    m0, src, tgt = sums[-1] / 2 - top, np.flatnonzero(sums == top), np.flatnonzero(sums == top - 1)
    h0, up = m[src][:, src], _raising(src, tgt, n, c, dim)
    k, runs = min(src.size, max(num, 6)), []
    while True:
        runs.append(res := lowest_eigenpairs(h0, k, block_size=k))
        theta, width, starts = res.eigenvalues, _window(0.0, res.scale), [0]
        for j in range(1, k):  # a level over width above its cluster's first opens a cluster
            if theta[j] > theta[starts[-1]] + width:
                starts.append(j)
        x = up @ res.eigenvectors
        gram, rot, g = x.conj().T @ x, np.zeros((k, k), x.dtype), np.empty(k)
        for a, b in zip(starts, starts[1:] + [k]):  # S^2 commutes with H: rotate each cluster
            g[a:b], rot[a:b, a:b] = np.linalg.eigh(gram[a:b, a:b])
        s = np.sqrt(g + (m0 + 0.5) ** 2) - 0.5  # S(S+1) = ||S+ psi||^2 + m0 (m0 + 1)
        if not np.abs(s - (level_s := m0 + np.round(s - m0))).max() <= 1e-8:
            return None
        w, spins = (np.repeat(a, (2 * level_s + 1).astype(int)) for a in (theta, level_s))
        deg = int(np.sum(w <= theta[0] + width))
        need = max(num, deg + 1)
        if k == src.size or need <= w.size and theta[-1] > w[need - 1] + width:
            break
        k = min(src.size, 2 * k)

    def ladder():  # each Casimir-rotated ground vector with its S+ and S- images
        g0, full = (starts + [k])[1], np.arange(dim)
        raising, psi = _raising(full, full, n, c, dim), np.zeros((dim, g0), res.eigenvectors.dtype)
        psi[src] = res.eigenvectors @ rot[:, :g0]
        cols = [psi]
        for j in range(g0):
            for op, steps in ((raising, level_s[j] - m0), (raising.T, level_s[j] + m0)):
                v = psi[:, j]
                for _ in range(round(steps)):
                    v = op @ v
                    cols.append(v[:, None] / np.linalg.norm(v))
        return np.hstack(cols)

    return LowLevels("krylov", w[:num], deg, _gap(w, deg), ladder,
                     iterations=sum(r.iterations for r in runs),
                     max_residual=max(float(np.max(r.residuals)) for r in runs),
                     solved_blocks=[src.size] * len(runs), route="su2_sector", spins=spins[:num])


def low_levels(h, num: int = 1, *, method: str | None = None, cap_dense: int = DENSE_CUTOFF,
               spin=None) -> LowLevels:
    """Ground multiplet, gap, and at least the ``num`` lowest eigenvalues.

    Eigenvalues within ``DEGENERACY_TOL * max(1, ||H||)`` of the minimum
    count as one multiplet, ||H|| read from the route's own solve: max
    |eigenvalue|, or the largest |Ritz value| of the Lanczos runs
    (:attr:`~spinmodels.krylov.KrylovResult.scale`) and |entry| of the
    size-1 blocks.  ``method`` is "dense", "krylov", or None (dense for an
    EigenSystem or a dimension at most ``cap_dense``).  Lanczos runs, in the
    dtype of H, take :func:`~spinmodels.krylov.lowest_eigenpairs`'s default
    seed, k = max(num, 6) pairs, block as wide, and stop at residuals
    ``SOLVER_TOL`` relative to their scale.

    The dense route reads an EigenSystem, or solves a bare H (refused above
    ``cap_dense``) for eigenvalues alone, one ``eigvalsh`` per solved block,
    in float64 unless the block's imaginary part is nonzero.
    Its ``basis`` is then solved on first read, one ``eigh`` per solved
    block that holds a ground level: the EigenSystem's vectors bit for bit
    while H restricted to those blocks is flip-symmetric exactly when H is.

    Given ``spin``, the local spin of an H that commutes with the total S+
    and S3 (see :func:`~spinmodels.interactions.su2_spin`), the krylov route
    ("su2_sector") runs on the S3 sector m0 = 0 or 1/2 alone, which holds a
    state of every multiplet.  A level of spin S, read from the Casimir
    S(S+1) = ||S+ psi||^2 + m0 (m0 + 1) (inside a window cluster from the
    eigenvalues of the Gram (S+ V)^H (S+ V)), counts 2S+1 times, and
    ``basis`` is the S+ and S- ladder of the rotated ground vectors.  A
    label over 1e-8 from m0 plus an integer falls back to the plan route.

    The plan route ("sectors") runs on each block of the plan that
    :func:`~spinmodels.spin_algebra.hermitian_eig` solves (the S3 sectors of
    the built-in models), visited by their Gershgorin bound min_i (h_ii -
    sum_{j != i} |h_ij|), which no eigenvalue undercuts (Golub and Van Loan,
    *Matrix Computations*, Thm 7.2.1); size-1 blocks are their diagonal
    entries, a flip-symmetric H's mirror block copies its partner, and a
    ground multiplet over ``MAX_SPARSE_DEGENERACY`` is a SolverError.
    Invariant of both: the lowest max(num, degeneracy + 1) values, with
    multiplicity, lie more than the window width below the bound of every
    unsolved block and the top Ritz value of every run short of its block;
    until they do, the limiting block is solved, or its run repeated with
    twice the pairs.
    """
    m = h.h if isinstance(h, EigenSystem) else as_matrix(h)
    dim = m.shape[0]
    if method is None:
        method = "dense" if isinstance(h, EigenSystem) or dim <= cap_dense else "krylov"
    if method not in ("dense", "krylov"):
        raise DomainError(f"method must be 'dense' or 'krylov', got {method!r}")

    if method == "dense":
        if not isinstance(h, EigenSystem):
            m = sp.csr_array(_dense_hamiltonian(m, cap_dense))
        eig = h if isinstance(h, EigenSystem) else hermitian_eig(m, vectors=False)
        w = eig.eigenvalues
        win = _window(w[0], float(np.max(np.abs(w))))
        deg = max(int(np.searchsorted(w, win, side="right")), 1)
        basis = (lambda: eigenvector_columns(h, np.arange(deg))) if eig is h else (
            lambda: _ground_basis(m, eig.blocks, win, deg))
        return LowLevels("dense", w, deg, _gap(w, deg), basis,
                         np.bincount(eig.plan.labels).tolist(), eig.plan.flip)

    if not isinstance(h, EigenSystem):
        _hermitian(m, "Hamiltonian")
    msp = m if sp.issparse(m) else sp.csr_array(m)
    if spin is not None and (low := _su2_levels(msp, num, spin)) is not None:
        return low
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
    return LowLevels("krylov", w[:num], deg, _gap(w, deg),
                     lambda: eigenvector_columns(list(found.values()), np.arange(deg), dim),
                     iterations=sum(r.iterations for _, r in runs),
                     max_residual=max((float(np.max(r.residuals)) for _, r in runs), default=0.0),
                     solved_blocks=[d for d, _ in runs], route="sectors")


def ground_space(h, *, method: str | None = None) -> LowLevels:
    """The :func:`low_levels` result itself: ``energy``, ``degeneracy`` and
    ``basis`` of the ground multiplet, which that routine's window groups."""
    return low_levels(h, method=method)


def spectral_gap(h, *, method: str | None = None) -> float:
    """The :func:`low_levels` gap between the ground multiplet and the next
    level; 0.0 when no level lies above the window (H is a multiple of I)."""
    return low_levels(h, method=method).gap
