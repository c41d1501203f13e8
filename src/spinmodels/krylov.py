"""Block Lanczos for the low end of a Hermitian spectrum.

Thick-restart block Lanczos with full reorthogonalization (every new block is
orthogonalized twice against the whole retained basis).  Blocks matter for
degenerate multiplets: the Krylov space grown from one starting block can
never hold more of an eigenspace than the starting block's slice of it, so a
multiplet of dimension m needs block_size >= m to come out complete.  The
low-end routine :func:`spinmodels.spectra.low_levels` sizes the block to the
number of requested pairs for exactly this reason; the default block of 4 is
for generic low-end queries.

This is the sparse counterpart to dense LAPACK diagonalization; the test
suite cross-checks the two routes (and ARPACK) against each other.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SolverError
from .spin_algebra import SOLVER_TOL, as_matrix, hermitian_eig


@dataclass
class KrylovResult:
    """Lowest-k eigenpairs with their residual norms ||H v - theta v||."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    residuals: np.ndarray
    iterations: int


def _orthonormal_block(cand, basis, rng, dim):
    """Orthonormalize the columns of ``cand`` against ``basis`` and each other.

    Rank-deficient columns are replaced by seeded random vectors so the block
    always comes back full rank (keeps degenerate subspaces explorable).
    """
    b = cand.shape[1]
    out = np.zeros((dim, b), dtype=np.complex128, order="F")
    filled = 0
    for j in range(b):
        v = cand[:, j].astype(np.complex128, copy=True)
        for attempt in range(6):
            for _ in range(2):  # two Gram-Schmidt sweeps
                if basis is not None and basis.shape[1]:
                    v -= basis @ (v.conj() @ basis).conj()
                if filled:
                    v -= out[:, :filled] @ (v.conj() @ out[:, :filled]).conj()
            nv = float(np.linalg.norm(v))
            if nv > 1e-8:
                out[:, filled] = v / nv
                filled += 1
                break
            v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        else:
            return out[:, :filled]
    return out[:, :filled]


def lowest_eigenpairs(
    h,
    k: int,
    *,
    block_size: int = 4,
    tol: float = SOLVER_TOL,
    max_basis: int | None = None,
    max_steps: int = 500,
    seed: int = 7,
) -> KrylovResult:
    """Compute the k smallest eigenvalues (with multiplicity) of Hermitian h.

    Args:
        h: Operator / ndarray / sparse matrix, Hermitian.
        k: number of eigenpairs (1 <= k <= dim).
        block_size: Lanczos block width; use >= the largest multiplicity
            expected among the lowest k (see module docstring).
        tol: convergence threshold, relative to the running spectral-scale
            estimate (max |Ritz value| seen).
        max_basis: retained basis cap before a thick restart.
        max_steps: total block-expansion budget before giving up.
        seed: seed for the start block and rank-repair vectors.

    Raises:
        SolverError: budget exhausted before residuals fell below tolerance
            (carries the best residual reached).
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
    max_basis = int(min(dim, max(max_basis, k + 2 * b)))

    rng = np.random.default_rng(seed)
    # column-major, so the leading columns in use are one contiguous block
    V = np.zeros((dim, max_basis), dtype=np.complex128, order="F")
    W = np.zeros((dim, max_basis), dtype=np.complex128, order="F")
    nbasis = 0
    X = _orthonormal_block(
        rng.standard_normal((dim, b)) + 1j * rng.standard_normal((dim, b)),
        None,
        rng,
        dim,
    )

    best_res = np.inf
    scale_seen = 0.0
    steps = 0
    while steps < max_steps:
        if X.shape[1] == 0:  # candidates vanished; explore randomly
            X = _orthonormal_block(
                rng.standard_normal((dim, b)) + 1j * rng.standard_normal((dim, b)),
                V[:, :nbasis],
                rng,
                dim,
            )
            if X.shape[1] == 0:
                break  # basis already spans the whole space
        bw = X.shape[1]
        if nbasis + bw > max_basis:
            # thick restart: compress onto the lowest Ritz vectors
            T = V[:, :nbasis].conj().T @ W[:, :nbasis]
            T = (T + T.conj().T) / 2.0
            theta, Y, _ = hermitian_eig(T)
            keep = min(k + 2 * b, nbasis - bw)
            keep = max(keep, 1)
            V[:, :keep] = V[:, :nbasis] @ Y[:, :keep]
            W[:, :keep] = W[:, :nbasis] @ Y[:, :keep]
            nbasis = keep
        V[:, nbasis:nbasis + bw] = X
        W[:, nbasis:nbasis + bw] = m @ X
        nbasis += bw
        steps += 1

        T = V[:, :nbasis].conj().T @ W[:, :nbasis]
        T = (T + T.conj().T) / 2.0
        theta, Y, _ = hermitian_eig(T)
        kk = min(k, nbasis)
        ritz_v = V[:, :nbasis] @ Y[:, :kk]
        ritz_w = W[:, :nbasis] @ Y[:, :kk]
        resid = np.linalg.norm(ritz_w - ritz_v * theta[:kk], axis=0)
        scale_seen = max(scale_seen, abs(float(theta[0])), abs(float(theta[-1])))
        maxres = float(np.max(resid)) if kk else np.inf
        if kk == k:
            best_res = min(best_res, maxres)
            if maxres <= tol * scale_seen or maxres == 0.0 or nbasis >= dim:
                return KrylovResult(
                    eigenvalues=theta[:k].copy(),
                    eigenvectors=ritz_v,
                    residuals=resid,
                    iterations=steps,
                )
        # next block: residual directions of the newest block
        last = W[:, nbasis - bw:nbasis]
        cand = last - V[:, :nbasis] @ (last.conj().T @ V[:, :nbasis]).conj().T
        X = _orthonormal_block(cand, V[:, :nbasis], rng, dim)

    raise SolverError(
        f"block Lanczos did not converge in {max_steps} steps "
        f"(best residual {best_res:.3e})",
        residual=None if not np.isfinite(best_res) else best_res,
    )
