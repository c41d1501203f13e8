"""Spectra, ground spaces, gaps, and equal-time correlations.

A Hamiltonian is diagonalized once.  :class:`EigenSystem` holds H with its
decomposition from :func:`spinmodels.spin_algebra.hermitian_eig`, kept as
blocks: one LAPACK ``eigh`` per invariant block of H's exact nonzero pattern
(for the built-in models, the conserved total-S3 sectors or finer), in
float64 when the block is real, and no dim x dim eigenvector matrix.
``full_spectrum``, ``ground_space``, ``spectral_gap``, the Gibbs and KMS
routines of :mod:`spinmodels.states` and the evolutions of
:mod:`spinmodels.dynamics` accept a Hamiltonian (and then build an
EigenSystem with the default cap) or an EigenSystem built once and shared.
Its constructor is the only dense-size guard; the cap is an argument.

The low end of the spectrum has one routine, :func:`low_levels`, with two
independent routes: the EigenSystem (exact, up to the dense cap) and the
in-house block Lanczos from :mod:`spinmodels.krylov` for sparse operators.
It picks the route from the dimension but accepts an explicit ``method`` so
the two can be cross-checked; ``ground_space`` and ``spectral_gap`` are
views of its result.  Both routes take float64 by the same rule,
:func:`~spinmodels.spin_algebra.exact_real`: the dense route per block, the
krylov route for the whole matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import DomainError, RangeLimitError, ResourceCapError, SolverError
from .krylov import lowest_eigenpairs
from .lattice import Volume, embed
from .spin_algebra import (
    DENSE_CUTOFF,
    SOLVER_TOL,
    adjoint,
    as_matrix,
    eigenvector_columns,
    exact_real,
    hermitian_eig,
    is_hermitian,
    spin_matrices,
)

#: Relative width of the window that groups eigenvalues into one multiplet.
DEGENERACY_TOL = 1e-8

#: Largest certifiable ground-space degeneracy on the sparse route.
MAX_SPARSE_DEGENERACY = 64

#: Largest exponent fed to exp(); beyond this the call is refused.
RANGE_LIMIT = 700.0


def _require_hermitian(h):
    if not is_hermitian(h):
        raise DomainError("operator is not Hermitian")


def _adjoint(v):
    """v^H, a view when v is real; None (the identity) stays None."""
    return v if v is None else (v.conj().T if np.iscomplexobj(v) else v.T)


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
    imaginary part, and ``block_sizes`` the blocks solved.  In the eigenbasis,
    conjugation by exp(itH) is an entrywise phase, so an evolution costs a
    few products per pair of blocks that the operator couples.
    """

    def __init__(self, h, *, cap_dense: int = DENSE_CUTOFF, range_limit: float = RANGE_LIMIT):
        m = as_matrix(h)
        _require_hermitian(m)
        dim = m.shape[0]
        if dim > cap_dense:
            raise ResourceCapError(
                f"dense eigendecomposition refused at dim {dim} > {cap_dense}"
            )
        self.h = m
        self.range_limit = float(range_limit)
        self.eigenvalues, self.blocks, self.block_sizes = hermitian_eig(m)
        self.gibbs_memo = None  # the last state built by states.gibbs
        # block order lists the blocks' basis indices, and their columns, in turn
        sizes = [idx.size for idx, _, _ in self.blocks]
        self._start, self._label = np.cumsum([0] + sizes), np.repeat(np.arange(len(sizes)), sizes)
        self._basis = np.concatenate([idx for idx, _, _ in self.blocks])
        self._position = np.argsort(self._basis)  # basis index -> place in block order
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
    def eigenvectors(self) -> np.ndarray:
        """All eigenvectors as dense columns, scattered on first use."""
        return eigenvector_columns(self)

    @property
    def residuals(self) -> np.ndarray:
        """Per-pair residual norms ||H v - w v||."""
        v = eigenvector_columns(self)
        return np.linalg.norm(self.h @ v - v * self.eigenvalues, axis=0)

    def require_range(self, beta: float, limit: float) -> None:
        """Refuse imaginary time beta when |beta| * spread exceeds ``limit``."""
        exponent = abs(beta) * float(self.eigenvalues[-1] - self.eigenvalues[0])
        if exponent > limit:
            raise RangeLimitError(
                f"imaginary-time exponent {exponent:.3g} exceeds range limit {limit}"
            )

    def pairs(self, a):
        """Yield (b, c, V_b^H A_bc V_c) for each pair of ``blocks`` that A couples.

        A's nonzero entries (i, j, d) are taken in block order, through one
        inverse permutation for CSR A, and grouped by pair.  Each pair costs
        whichever is fewer multiply-adds: the gather-GEMM V_b[i]^H (d * V_c[j])
        (nnz d_b d_c), or A_bc, filled from the entries or sliced from a dense
        A, times V_c and then V_b^H (d_b d_c (d_b + d_c)).  Real blocks meet
        complex factors in float64 (see ``_matmul``).  Block 0's vectors, the
        identity, are applied by indexing; between two of its entries the
        result is A's own entries as a COO array.
        """
        m = as_matrix(a)
        if m.shape[0] != self.dim:
            raise DomainError(
                f"operator dim {m.shape[0]} does not match Hamiltonian dim {self.dim}"
            )
        nb, s, v = len(self.blocks), self._start, self._vectors
        if sp.issparse(m):
            row = self._position[np.repeat(np.arange(self.dim), np.diff(m.indptr))]
            col, data, full = self._position[m.indices], m.data, None
        else:
            full = m[np.ix_(self._basis, self._basis)]  # A in block order
            row, col = np.nonzero(full)
            data = full[row, col]
        key = self._label[row] * nb + self._label[col]
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
                if full is None:
                    x = np.zeros(shape, d.dtype)
                    np.add.at(x, (i, j), d)  # duplicate entries add
                else:
                    x = full[s[b]:s[b + 1], s[c]:s[c + 1]]
                yield b, c, _sandwich(_adjoint(v[b]), x, v[c])

    def _conjugate(self, a, z=None):
        """V^H A V in the order of ``eigenvalues`` when ``z`` is None, else
        exp(zH) A exp(-zH) = V (V^H A V * exp(z (w_j - w_k))) V^H; stored as A is."""
        target, v = self._rank if z is None else self._basis, self._vectors
        parts = [(np.empty(0, np.intp), np.empty(0, np.intp), np.empty(0))]
        for b, c, x in self.pairs(a):
            wb, wc = self.blocks[b][1], self.blocks[c][1]
            if z is not None and sp.issparse(x):
                x.data = x.data * np.exp(z * (wb[x.row] - wc[x.col]))
            elif z is not None:
                x = _sandwich(v[b], x * np.exp(z * (wb[:, None] - wc[None, :])), _adjoint(v[c]))
            x = sp.coo_array(x)
            parts.append((target[self._start[b] + x.row], target[self._start[c] + x.col], x.data))
        rows, cols, vals = map(np.concatenate, zip(*parts))
        out = sp.coo_array((vals, (rows, cols)), shape=(self.dim, self.dim)).tocsr()
        return out if sp.issparse(as_matrix(a)) else out.toarray()

    def to_eigenbasis(self, a):
        """V^dagger A V in the order of ``eigenvalues``, stored as A is."""
        return self._conjugate(a)

    def evolve(self, a, t: float):
        """alpha_t(A) = exp(itH) A exp(-itH), stored as A is.  t = 0 returns
        A unchanged."""
        return self._flow(a, 1j * float(t))

    def evolve_imaginary(self, a, beta: float):
        """exp(-beta H) A exp(beta H), stored as A is.  Refused when
        beta * spread > range_limit."""
        self.require_range(float(beta), self.range_limit)
        return self._flow(a, -float(beta))

    def _flow(self, a, z):
        """exp(zH) A exp(-zH); z = 0 returns A unchanged."""
        return as_matrix(a) if z == 0 else self._conjugate(a, z)

    def evolve_vector(self, psi: np.ndarray, t: float) -> np.ndarray:
        """Schroedinger evolution exp(-itH) psi, block by block."""
        psi = np.asarray(psi, dtype=np.complex128)
        if psi.shape != (self.dim,):
            raise DomainError(f"state shape {psi.shape} does not match dim {self.dim}")
        out = np.empty_like(psi)
        for idx, w, v in self.blocks:
            out[idx] = v @ (np.exp(-1j * float(t) * w) * (v.conj().T @ psi[idx]))
        return out


@dataclass
class GroundSpace:
    """Lowest eigenvalue, its multiplicity, and an orthonormal basis for it."""

    energy: float
    degeneracy: int
    basis: np.ndarray


@dataclass
class LowLevels:
    """The low end of a spectrum, from one solver run.

    ``eigenvalues`` are ascending: the whole spectrum on the dense route, the
    lowest ``num`` on the krylov route.  ``basis`` spans the ground multiplet
    of ``degeneracy`` levels; ``gap`` is 0.0 when no level lies above it.
    The route's own diagnostics are set on its route only: ``block_sizes``,
    the EigenSystem's invariant blocks, on the dense route; ``iterations``
    and ``max_residual`` (largest ||H v - theta v|| of the returned pairs) of
    the last Lanczos run on the krylov route.
    """

    method: str
    eigenvalues: np.ndarray
    degeneracy: int
    gap: float
    basis: np.ndarray
    block_sizes: list[int] | None = None
    iterations: int | None = None
    max_residual: float | None = None

    @property
    def energy(self) -> float:
        return float(self.eigenvalues[0])

    @property
    def diagnostics(self) -> dict:
        """The route's own diagnostics by name, for a result payload."""
        keys = ("block_sizes",) if self.method == "dense" else ("iterations", "max_residual")
        return {key: getattr(self, key) for key in keys}


def full_spectrum(h) -> EigenSystem:
    """All eigenvalues (ascending) and eigenvectors, dense route only."""
    return EigenSystem.of(h)


def _sparse_spectral_scale(m, seed: int = 0x5CA1E) -> float:
    """Deterministic largest-|eigenvalue| estimate for Hermitian sparse m."""
    dim = m.shape[0]
    if dim <= 16:
        return float(np.max(np.abs(hermitian_eig(m, vectors=False).eigenvalues)))
    rng = np.random.default_rng(seed)
    v0 = rng.standard_normal(dim)
    vals = spla.eigsh(m, k=1, which="LM", v0=v0, return_eigenvectors=False)
    return float(np.max(np.abs(vals)))


def _window(e0: float, scale: float, degeneracy_tol: float) -> float:
    return e0 + degeneracy_tol * max(1.0, scale)


def _gap(w: np.ndarray, degeneracy: int) -> float:
    return float(w[degeneracy] - w[0]) if degeneracy < w.size else 0.0


def low_levels(
    h,
    num: int = 1,
    degeneracy_tol: float = DEGENERACY_TOL,
    *,
    method: str | None = None,
    cap_dense: int = DENSE_CUTOFF,
    tol: float = SOLVER_TOL,
    seed: int = 7,
) -> LowLevels:
    """Ground multiplet, gap, and at least the ``num`` lowest eigenvalues.

    Eigenvalues within ``degeneracy_tol * max(1, ||H||)`` of the minimum
    count as one multiplet.  ``method`` is "dense", "krylov", or None (dense
    for an EigenSystem or when the dimension is at most ``cap_dense``, block
    Lanczos otherwise).  The krylov route runs in float64 when H's imaginary
    part is exactly zero (ARPACK ``dsaupd`` and a real Lanczos basis), in
    complex128 otherwise.  It makes one ARPACK scale estimate and grows a
    Lanczos run, block as wide as the number of pairs, from max(num, 6) pairs
    until a level lies above the ground window; ``iterations`` and
    ``max_residual`` are those of the last run.
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
        win = _window(w[0], float(np.max(np.abs(w))), degeneracy_tol)
        deg = max(int(np.searchsorted(w, win, side="right")), 1)
        return LowLevels("dense", w, deg, _gap(w, deg),
                         eigenvector_columns(es, np.arange(deg)), es.block_sizes)

    if not isinstance(h, EigenSystem):
        _require_hermitian(h)
    msp = exact_real(m if sp.issparse(m) else sp.csr_array(m))
    scale = _sparse_spectral_scale(msp)
    k = min(dim, max(num, 6))
    while True:
        # block as wide as k so a k-fold multiplet survives the Krylov slice
        res = lowest_eigenpairs(msp, k, block_size=k, tol=tol, seed=seed)
        w = res.eigenvalues
        deg = int(np.sum(w <= _window(float(w[0]), scale, degeneracy_tol)))
        if deg < k or k == dim:
            return LowLevels("krylov", w[:num], deg, _gap(w, deg),
                             res.eigenvectors[:, :deg], iterations=res.iterations,
                             max_residual=float(np.max(res.residuals)))
        if k >= MAX_SPARSE_DEGENERACY:
            raise SolverError(
                f"ground-space degeneracy exceeds {MAX_SPARSE_DEGENERACY}; "
                "use the dense route"
            )
        k = min(dim, max(k + 1, 2 * k))


def ground_space(
    h,
    degeneracy_tol: float = DEGENERACY_TOL,
    *,
    method: str | None = None,
    tol: float = SOLVER_TOL,
    seed: int = 7,
) -> GroundSpace:
    """Lowest eigenvalue with multiplicity, grouped by a relative window.

    A view of :func:`low_levels`, which documents the window and ``method``.
    """
    low = low_levels(h, 1, degeneracy_tol, method=method, tol=tol, seed=seed)
    return GroundSpace(energy=low.energy, degeneracy=low.degeneracy, basis=low.basis)


def spectral_gap(
    h,
    degeneracy_tol: float = DEGENERACY_TOL,
    *,
    method: str | None = None,
    tol: float = SOLVER_TOL,
    seed: int = 7,
) -> float:
    """Energy difference between the ground multiplet and the next level.

    Returns 0.0 when no eigenvalue lies above the degeneracy window (the
    operator is a multiple of the identity to within the window).  A view of
    :func:`low_levels`.
    """
    return low_levels(h, 1, degeneracy_tol, method=method, tol=tol, seed=seed).gap


# ---------------------------------------------------------------------------
# Equal-time correlations
# ---------------------------------------------------------------------------

_TWO_POINT_KINDS = ("sdots", "s3s3")


def two_point(state, x, y, volume: Volume, kind: str = "sdots") -> float:
    """<S_x . S_y> ("sdots") or <S3_x S3_y> ("s3s3") in ``state``.

    ``state`` is a StateVector, DensityMatrix, or plain vector.  x == y is
    allowed (on-site moment).  The value is the real part; for Hermitian
    observables the imaginary part is zero to rounding.
    """
    from .states import expectation

    if kind not in _TWO_POINT_KINDS:
        raise DomainError(f"kind must be one of {_TWO_POINT_KINDS}, got {kind!r}")
    x = tuple(int(c) for c in np.atleast_1d(x).tolist())
    y = tuple(int(c) for c in np.atleast_1d(y).tolist())
    for s in (x, y):
        if s not in volume.rank:
            raise DomainError(f"site {s} is not in the volume")
    ops = spin_matrices((volume.local_dim - 1) / 2.0)
    if x == y:
        if kind == "sdots":
            local = ops.casimir()
        else:
            local = ops.s3 @ ops.s3
        op = embed(local, [x], volume)
    else:
        if kind == "sdots":
            local = (
                np.kron(ops.s1, ops.s1)
                + np.kron(ops.s2, ops.s2)
                + np.kron(ops.s3, ops.s3)
            )
        else:
            local = np.kron(ops.s3, ops.s3)
        op = embed(local, [x, y], volume)
    return float(expectation(state, op).real)


def structure_factor(state, volume: Volume, momentum) -> float:
    """S(k) = <M(k)^dagger M(k)> / |volume|^2 with M(k) = sum_x e^{-i k.x} S3_x.

    Real and nonnegative for any valid state; 1/4 at k = (pi,...) for the
    two-sublattice alternating spin-1/2 product state, S(S+1)/(3 |volume|)
    at every k for the maximally mixed state.
    """
    from .states import expectation

    momentum = np.atleast_1d(np.asarray(momentum, dtype=float))
    if momentum.shape != (volume.dimension,):
        raise DomainError(
            f"momentum needs {volume.dimension} components, got {momentum.shape}"
        )
    ops = spin_matrices((volume.local_dim - 1) / 2.0)
    total = None
    for site in volume.sites:
        phase = np.exp(-1j * float(np.dot(momentum, site)))
        part = embed(phase * ops.s3, [site], volume)
        total = part if total is None else total + part
    num = expectation(state, adjoint(total) @ total).real
    return float(num) / volume.num_sites**2
