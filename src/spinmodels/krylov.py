"""Block Lanczos for the low end of a Hermitian spectrum.

Thick-restart block Lanczos with full reorthogonalization.  The run keeps an
orthonormal basis V, its image W = H V and the Rayleigh matrix T = V^H W, and
grows all three one block per step.  Appending a block X fills only T's new
columns V^H (H X) and mirrors them into its rows; the same columns give the
first projection of the next candidate block H X - V (V^H H X), and a second
block sweep against V completes classical Gram-Schmidt with
reorthogonalization.  Only the orthonormalization inside the block and the
seeded rank repair go column by column.  A step therefore costs
O(dim * nbasis * b), not O(dim * nbasis^2).  When the basis is full, a thick
restart keeps the lowest Ritz vectors Y: V <- V Y, W <- W Y and
T <- diag(theta), with nothing recomputed (Wu and Simon, SIAM J. Matrix Anal.
Appl. 22, 602 (2000); Golub and Van Loan, *Matrix Computations* section 10.3).
Each step solves T by one ``numpy.linalg.eigh``, and explicit residual norms
||W y - theta V y|| judge convergence.

A run takes the dtype of its matrix.  A real matrix, as every built-in
Hamiltonian is, runs in float64 end to end: matvecs, V, W, T, Ritz vectors,
and the seeded start and rank-repair vectors.  A complex matrix runs in
complex128, even when its imaginary part is zero.

Blocks matter for degenerate multiplets: the Krylov space grown from one
starting block can never hold more of an eigenspace than the starting block's
slice of it, so a multiplet of dimension m needs block_size >= m to come out
complete.  The low-end routine :func:`spinmodels.spectra.low_levels` runs on
S3 sectors, where a multiplet spanning the sectors has one state each: once
on the lowest sector alone when given the local spin of an SU(2)-invariant H,
else once per block of H's plan (a sector, or a +-m pair).  A block is as
wide as its pairs, and a run is repeated twice as wide only when its top pair
is among the levels it reports; the default block of 4 is for generic
low-end queries.

This is the sparse counterpart to dense LAPACK diagonalization; the test
suite cross-checks the two routes (and ARPACK) against each other.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SolverError
from .spin_algebra import SOLVER_TOL, as_matrix


@dataclass
class KrylovResult:
    """Lowest-k eigenpairs with their residual norms ||H v - theta v||, and
    ``scale``, the largest |Ritz value| the run saw: a lower bound on ||H||
    and the scale of its convergence test."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    residuals: np.ndarray
    iterations: int
    scale: float


def _random_block(rng, dim: int, width: int, dtype) -> np.ndarray:
    """Seeded Gaussian dim x width block, column-major, real or complex."""
    x = rng.standard_normal((width, dim)).T
    if np.dtype(dtype).kind == "c":
        x = x + 1j * rng.standard_normal((width, dim)).T
    return x


def _overlap(basis, x):
    """basis^H x, conjugating only the narrow ``x``."""
    return (x.conj().T @ basis).conj().T


def _combine(basis, coef):
    """basis @ coef, column-major like ``basis``."""
    return (coef.T @ basis.T).T


def _project_out(x, basis):
    """Remove from ``x`` (in place) its projection on the orthonormal columns
    of ``basis``."""
    x -= _combine(basis, _overlap(basis, x))
    return x


def _orthonormal_block(cand, basis, rng):
    """Orthonormal columns spanning ``cand`` with ``basis`` projected out.

    ``cand`` (column-major, overwritten) must have had one projection on
    ``basis`` removed already; this is the second block sweep.  Its columns
    are then orthonormalized in order against the ones accepted before them;
    a column whose norm falls below 1/sqrt(2) of its norm before that sweep
    is swept against ``basis`` and the block once more (Daniel, Gragg,
    Kaufman and Stewart, Math. Comp. 30, 772 (1976)).  A column left with
    norm <= 1e-8 is replaced by a seeded random vector, so the block comes
    back full rank unless the basis fills the space.  The result is
    row-major, the layout of a sparse multi-vector product.
    """
    dim, width = cand.shape
    _project_out(cand, basis)
    out = np.empty_like(cand, order="C")
    filled = 0
    for j in range(width):
        v = cand[:, j]
        for _attempt in range(6):
            before = float(np.linalg.norm(v))
            _project_out(v, out[:, :filled])
            nv = float(np.linalg.norm(v))
            if nv < before / np.sqrt(2.0):  # cancellation: sweep once more
                _project_out(_project_out(v, basis), out[:, :filled])
                nv = float(np.linalg.norm(v))
            if nv > 1e-8:
                out[:, filled] = v / nv
                filled += 1
                break
            v = _random_block(rng, dim, 1, cand.dtype)[:, 0]
            for _ in range(2):
                _project_out(v, basis)
        else:
            break
    return out[:, :filled]


def lowest_eigenpairs(
    h,
    k: int,
    *,
    block_size: int = 4,
    max_basis: int | None = None,
    max_steps: int = 500,
    seed: int = 7,
) -> KrylovResult:
    """Compute the k smallest eigenvalues (with multiplicity) of Hermitian h,
    converged once each residual is at most ``SOLVER_TOL`` times the running
    spectral-scale estimate (max |Ritz value| seen, returned as ``scale``).

    Args:
        h: ndarray or sparse matrix, Hermitian.  The run and its
            eigenvectors take its dtype: float64 when h is real.
        k: number of eigenpairs (1 <= k <= dim).
        block_size: Lanczos block width; use >= the largest multiplicity
            expected among the lowest k (see module docstring).
        max_basis: retained basis cap before a thick restart, at least
            k + 3 * block_size so that a restart keeps k + 2 * block_size.
        max_steps: total block-expansion budget before giving up.
        seed: seed for the start block and rank-repair vectors.

    Raises:
        SolverError: budget exhausted before residuals fell below tolerance
            (carries the best residual reached, explicit or, on steps that
            took no explicit norms, from the block-Lanczos relation).
    """
    m = as_matrix(h)
    dim = m.shape[0]
    if not isinstance(k, (int, np.integer)) or k < 1:
        raise DomainError(f"k must be a positive integer, got {k!r}")
    if k > dim:
        raise DomainError(f"k={k} exceeds matrix dimension {dim}")
    b = int(min(max(1, block_size), dim))
    if max_basis is None:
        max_basis = max(3 * k + 2 * b, 10 * b)
    max_basis = int(min(dim, max(max_basis, k + 3 * b)))

    dtype = np.result_type(m.dtype, np.float64)
    rng = np.random.default_rng(seed)
    # column-major, so the leading columns in use are one contiguous block
    V = np.zeros((dim, max_basis), dtype=dtype, order="F")
    W = np.zeros((dim, max_basis), dtype=dtype, order="F")
    T = np.zeros((max_basis, max_basis), dtype=dtype)
    nbasis = 0
    X = V[:, :0]

    best_res = np.inf
    scale_seen = 0.0
    steps = 0
    while steps < max_steps:
        if X.shape[1] == 0:  # first step, or candidates vanished: a random block
            basis = V[:, :nbasis]
            cand = _project_out(_random_block(rng, dim, b, dtype), basis)
            X = _orthonormal_block(cand, basis, rng)
            if X.shape[1] == 0:
                break  # basis already spans the whole space
        bw = X.shape[1]
        if nbasis + bw > max_basis:
            # thick restart onto the lowest Ritz vectors of the last step
            keep = max(min(k + 2 * b, nbasis - bw), 1)
            V[:, :keep] = _combine(V[:, :nbasis], Y[:, :keep])
            W[:, :keep] = _combine(W[:, :nbasis], Y[:, :keep])
            T[:keep, :keep] = np.diag(theta[:keep])
            nbasis = keep
        new = slice(nbasis, nbasis + bw)
        V[:, new] = X
        W[:, new] = m @ X
        # T's new columns V^H (H X), mirrored into its new rows
        cols = _overlap(V[:, :nbasis + bw], W[:, new])
        T[:nbasis + bw, new] = cols
        T[new, :nbasis] = cols[:nbasis].conj().T
        T[new, new] = (cols[nbasis:] + cols[nbasis:].conj().T) / 2.0
        nbasis += bw
        steps += 1

        theta, Y = np.linalg.eigh(T[:nbasis, :nbasis])
        scale_seen = max(scale_seen, abs(float(theta[0])), abs(float(theta[-1])))
        # next block: the new block's image with its first projection on V
        # taken from T's new columns, so no second V^H W product is needed
        cand = W[:, new] - _combine(V[:, :nbasis], cols)
        if nbasis >= k:
            # The block-Lanczos relation H V = V T + cand E^T gives the
            # residuals as cand y_new; it only screens, and the convergence
            # test itself takes explicit norms ||W y - theta V y||.
            est = float(np.max(np.linalg.norm(cand @ Y[new, :k], axis=0)))
            best_res = min(best_res, est)
            if est <= SOLVER_TOL * scale_seen or nbasis >= dim:
                ritz_v = V[:, :nbasis] @ Y[:, :k]
                resid = np.linalg.norm(
                    W[:, :nbasis] @ Y[:, :k] - ritz_v * theta[:k], axis=0
                )
                maxres = float(np.max(resid))
                best_res = min(best_res, maxres)
                if maxres <= SOLVER_TOL * scale_seen or nbasis >= dim:
                    return KrylovResult(
                        eigenvalues=theta[:k].copy(),
                        eigenvectors=ritz_v,
                        residuals=resid,
                        iterations=steps,
                        scale=scale_seen,
                    )
        X = _orthonormal_block(cand, V[:, :nbasis], rng)

    raise SolverError(
        f"block Lanczos did not converge in {max_steps} steps "
        f"(best residual {best_res:.3e})",
        residual=None if not np.isfinite(best_res) else best_res,
    )
