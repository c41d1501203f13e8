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
and one loop of :mod:`spinmodels.krylov` block Lanczos runs over invariant
blocks.  ``ground_space`` and ``spectral_gap`` are views of its result; both
dense routes pass one size guard, the cap an argument.
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
    of ``degeneracy`` levels, computed on first read (from a bare H, solved
    then); ``gap`` is 0.0 when no level lies above it.  Diagnostics are set
    on their route only: dense, ``block_sizes`` (the EigenSystem's invariant
    blocks) and ``flip`` (H exactly flip-symmetric); krylov, ``solved_blocks``
    (the block size of each Lanczos run of its one loop, in order),
    ``iterations`` (the steps of all runs), ``max_residual`` (the largest
    ||H v - theta v|| of their pairs; 0 and 0.0 with no run) and ``route``,
    "su2_sector" (with ``spins``, S of each eigenvalue) or "sectors".
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


def _sliced_sector(m, states):
    """The SU(2) route's block of a bare CSR ``m``: m[states][:, states], or
    None if a stored nonzero couples the states to the rest."""
    inside = np.zeros(m.shape[0], bool)
    inside[states] = True
    leak = (np.repeat(inside, np.diff(m.indptr)) != inside[m.indices]) & (m.data != 0)
    return None if leak.any() else m[states][:, states]


def _su2_levels(sector, dim: int, num: int, spin) -> LowLevels | None:
    """:func:`_lanczos_levels` on the sector m0 alone, labelled; its block is
    ``sector(states)`` for its basis states in ascending index, and None
    there (the sector is not invariant) or from the labels returns None."""
    ops, sums = spin_matrices(spin), np.zeros(1, np.intp)
    n, c = ops.dim, np.diag(ops.sp, 1)
    while sums.size < dim:  # base-n digit sums, accumulated site by site
        sums = (sums[:, None] + np.arange(n)).ravel()
    if sums.size != dim:
        raise DimensionMismatchError(f"dim {dim} is not a power of the local dimension {n}")
    top = int(sums[-1]) // 2  # the digit sum of sector m0 = L s - top, 0 or 1/2
    m0, src, tgt = sums[-1] / 2 - top, np.flatnonzero(sums == top), np.flatnonzero(sums == top - 1)
    if (h0 := sector(src)) is None:
        return None
    up = _raising(src, tgt, n, c, dim)

    def label(res, short):
        """Weights 2S+1, spins S and ladder basis (a ``short`` run's top cluster out), or Nones."""
        theta, width, starts = res.eigenvalues, _window(0.0, res.scale), [0]
        for j in range(1, theta.size):  # a level over width above its cluster's first opens a cluster
            if theta[j] > theta[starts[-1]] + width:
                starts.append(j)
        k = starts.pop() if short else theta.size
        x = up @ res.eigenvectors[:, :k]
        gram, rot, g = x.conj().T @ x, np.zeros((k, k), x.dtype), np.empty(k)
        for a, b in zip(starts, starts[1:] + [k]):  # S^2 commutes with H: rotate each cluster
            g[a:b], rot[a:b, a:b] = np.linalg.eigh(gram[a:b, a:b])
        s = np.sqrt(g + (m0 + 0.5) ** 2) - 0.5  # S(S+1) = ||S+ psi||^2 + m0 (m0 + 1)
        if not np.max(np.abs(s - (level_s := m0 + np.round(s - m0))), initial=0.0) <= 1e-8:
            return None, None, None
        weights = (2 * level_s + 1).astype(int)

        def ladder():  # each Casimir-rotated ground vector with its S+ and S- images
            g0, full = (starts + [k])[1], np.arange(dim)
            raising, psi = _raising(full, full, n, c, dim), np.zeros((dim, g0), x.dtype)
            psi[src], cols = res.eigenvectors[:, :k] @ rot[:, :g0], [psi]
            for j in range(g0):
                for op, steps in ((raising, level_s[j] - m0), (raising.T, level_s[j] + m0)):
                    v = psi[:, j]
                    for _ in range(round(steps)):
                        cols.append((v := op @ v)[:, None] / np.linalg.norm(v))
            return np.hstack(cols)

        return weights, np.repeat(level_s, weights), ladder

    return _lanczos_levels(lambda idx: h0, dim, num, [(src, -np.inf, 0)], {}, label=label)


def _lanczos_levels(sub, dim: int, num: int, blocks, found, mirrored=None,
                    label=None) -> LowLevels | None:
    """The one krylov loop of :func:`low_levels` over ``blocks``, (indices, lower bound,
    mirror), of a dim x dim H whose block on those indices is ``sub(indices)``, from
    ``found`` (indices, eigenvalues, eigenvectors) solved; ``mirrored`` copies a block
    onto its mirror, and a None from ``label`` returns None."""
    # block -> the value below which it may hide levels, inf once a run covers it
    limits = {b: bound for b, (_, bound, _) in enumerate(blocks)}
    pairs, runs, spins, basis = {}, [], None, None  # pairs: block -> k of its last run
    while True:
        w = np.sort(np.concatenate([np.empty(0), *(w for _, w, _ in found.values())]), kind="stable")
        # found's values hold the size-1 entries and lie inside their runs' scales
        scale = max([r.scale for _, r in runs] + [float(np.max(abs(w), initial=0.0))])
        win = _window(w[0], scale) if w.size else np.inf
        deg = int(np.sum(w <= win))
        need = max(num, deg + 1)
        cutoff = w[need - 1] + (win - w[0]) if need <= w.size else np.inf
        limit, b = min((v, b) for b, v in limits.items())
        done = limit > cutoff or limit == np.inf
        if deg > MAX_SPARSE_DEGENERACY and (done or b in found):
            raise SolverError(f"ground-space degeneracy exceeds {MAX_SPARSE_DEGENERACY}; "
                              "use the dense route")
        if done:
            break
        idx, _, c = blocks[b]
        k = pairs[b] = pairs[c] = min(idx.size, max(2 * pairs.get(b, 0), num, 6))
        # block as wide as k so a k-fold multiplet survives the Krylov slice
        res = lowest_eigenpairs(sub(idx), k, block_size=k)
        runs.append((idx.size, res))
        short = k < idx.size
        weights, spins, basis = label(res, short) if label else (np.ones(k, np.intp), None, None)
        if weights is None:
            return None
        block = (idx, np.repeat(res.eigenvalues[:weights.size], weights), res.eigenvectors)
        found[c], found[b] = mirrored(block) if c != b else block, block
        limits[b] = limits[c] = float(res.eigenvalues[min(weights.size, k - 1)]) if short else np.inf
    basis = basis or (lambda: eigenvector_columns(list(found.values()), np.arange(deg), dim))
    return LowLevels("krylov", w[:num], deg, _gap(w, deg), basis,
                     iterations=sum(r.iterations for _, r in runs),
                     max_residual=max((float(np.max(r.residuals)) for _, r in runs), default=0.0),
                     solved_blocks=[d for d, _ in runs], route="su2_sector" if label else "sectors",
                     spins=None if spins is None else spins[:num])


def low_levels(h, num: int = 1, *, method: str | None = None, cap_dense: int = DENSE_CUTOFF,
               spin=None) -> LowLevels:
    """Ground multiplet, gap, and at least the ``num`` lowest eigenvalues.

    ``num`` is an integer >= 1; ``method`` is "dense", "krylov", or None
    (dense for an EigenSystem or a dimension at most ``cap_dense``).  Levels
    within ``DEGENERACY_TOL * max(1, ||H||)`` of the lowest are one
    multiplet, ||H|| read from the route's own solve: max |eigenvalue|, or
    the largest |Ritz value| of the runs and |entry| of the size-1 blocks.

    The dense route reads an EigenSystem, or solves a bare H (refused above
    ``cap_dense``) for eigenvalues alone, one ``eigvalsh`` per block, in
    float64 unless its imaginary part is nonzero; ``basis`` is solved on first
    read, one ``eigh`` per block with a ground level, the EigenSystem's vectors
    bit for bit while H on those blocks is flip-symmetric exactly when H is.

    The krylov route is one loop of Lanczos runs (in H's dtype, the default
    seed, k = max(num, 6) pairs, block as wide, residuals ``SOLVER_TOL``
    relative to their scale) on blocks with lower bounds.  Invariant: the
    lowest max(num, degeneracy + 1) reported values, with multiplicity, lie
    more than the window width below the bound of every unsolved block and
    the lowest Ritz value that each run short of its block left unreported
    (else its top one); until they do, the limiting block is solved, or its
    run repeated with twice the pairs.  A ground multiplet over
    ``MAX_SPARSE_DEGENERACY``, weights counted, is a SolverError.

    Given ``spin``, the local spin of an H that commutes with the total S+
    and S3 (see :func:`~spinmodels.interactions.su2_spin`), the one block
    ("su2_sector") is the S3 sector m0 = 0 or 1/2, unbounded, which holds a
    state of every multiplet, sliced out of H (the CLI's spectrum and scan
    build it from the terms instead, ``assemble_hamiltonian`` with ``states``,
    and no full H).  A level of spin S, from S(S+1) = ||S+ psi||^2 + m0 (m0 +
    1) in the Gram (S+ V)^H (S+ V) of its window cluster, weighs 2S+1; a
    short run leaves its top cluster, which may be cut, unreported; ``basis``
    is the S+ and S- ladder of the rotated ground vectors.  Otherwise, or if
    a stored nonzero of H couples m0 to another sector, or a label lies over
    1e-8 from m0 plus an integer, the blocks ("sectors") are those of
    ``hermitian_eig`` (the S3 sectors of the built-in models) with Gershgorin
    bounds min_i (h_ii - sum_{j != i} |h_ij|) (Golub and Van Loan, *Matrix
    Computations*, Thm 7.2.1); size-1 blocks are their diagonal entries, a
    flip-symmetric H's mirror block copies its partner's.
    """
    if isinstance(num, bool) or not isinstance(num, (int, np.integer)) or num < 1:
        raise DomainError(f"num must be an integer >= 1, got {num!r}")
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
    if spin is not None and (low := _su2_levels(lambda s: _sliced_sector(msp, s), dim, num, spin)):
        return low
    plan, diag = (h.plan if isinstance(h, EigenSystem) else _block_plan(msp)), msp.diagonal()
    # Gershgorin radii from the arrays: scipy's abs() sorts them, and m's data with them
    radius = np.bincount(np.repeat(np.arange(dim), np.diff(msp.indptr)), abs(msp.data), dim)
    bound = np.minimum.reduceat((diag.real - radius + abs(diag))[plan.members], plan.starts[1:-1])
    singles = plan.members[:plan.starts[1]]
    eye = sp.eye_array(singles.size, dtype=np.result_type(msp.dtype, np.float64), format="csr")
    blocks = list(zip(np.split(plan.members, plan.starts[1:-1]), [np.inf, *bound], plan.mirror))
    return _lanczos_levels(lambda idx: msp[idx][:, idx], dim, num, blocks,
                           {0: (singles, diag.real[singles], eye)}, plan.mirrored)


def ground_space(h, *, method: str | None = None) -> LowLevels:
    """The :func:`low_levels` result itself: ``energy``, ``degeneracy`` and
    ``basis`` of the ground multiplet, which that routine's window groups."""
    return low_levels(h, method=method)


def spectral_gap(h, *, method: str | None = None) -> float:
    """The :func:`low_levels` gap between the ground multiplet and the next
    level; 0.0 when no level lies above the window (H is a multiple of I)."""
    return low_levels(h, method=method).gap
