"""Heisenberg-picture time evolution and locality (light-cone) scans.

Evolution is by exact eigendecomposition of the Hamiltonian — no
Trotterization anywhere: in the eigenbasis, conjugation by exp(itH) is an
entrywise phase exp(it(w_j - w_k)), and imaginary time replaces the phase by
exp(-beta(w_j - w_k)).  The evolutions are methods of the shared
:class:`spinmodels.spectra.EigenSystem` (``Propagator`` is its old name), kept
as one block of eigenvectors per invariant block of H's nonzero pattern.  An
evolution runs over the block pairs that the operator couples, and the
result keeps the operator's storage: CSR in gives CSR out, nonzero only on
those pairs, so S3 at a site (which the built-in models' blocks leave
invariant) stays block-diagonal.  A light-cone scan of diagonal observables
(S3 at any spin) keeps alpha_t(A) in H's blocks and norms each block and time by one
batched Gram eigvalsh of its corners (an eigvalsh per x where B_x takes more than two
values); others take the largest |eigenvalue| of i[alpha_t(A), B_x] from ``commutator``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import DegenerateInputError, DomainError, SolverError
from .interactions import Interaction, assemble_hamiltonian
from .lattice import Volume, embed
from .spectra import EigenSystem
from .spin_algebra import (
    DENSE_CUTOFF,
    _flip_parity,
    _hermitian,
    commutator,
    hermitian_eig,
    operator_norm,
)

#: Earlier name of EigenSystem, kept importable.
Propagator = EigenSystem


def _diagonal(m) -> bool:
    """Whether ``m`` is canonical CSR with at most one entry a row, on the diagonal."""
    return (sp.issparse(m) and m.nnz <= m.shape[0] and m.has_canonical_format
            and np.array_equal(m.indices, np.repeat(np.arange(m.shape[0]), np.diff(m.indptr))))


# ---------------------------------------------------------------------------
# Light-cone scans
# ---------------------------------------------------------------------------


@dataclass
class LRScan:
    """Commutator norms ||[alpha_t(A_0), B_x]|| on a (time, distance) grid."""

    times: np.ndarray
    distances: np.ndarray
    norms: np.ndarray  # shape (len(times), len(distances))
    a_norm: float
    b_norm: float

    @property
    def bound(self) -> float:
        """The a-priori bound 2 ||A|| ||B|| on every entry."""
        return 2.0 * self.a_norm * self.b_norm

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.distances = np.asarray(self.distances, dtype=int)
        self.norms = np.asarray(self.norms, dtype=float)
        if self.norms.shape != (self.times.size, self.distances.size):
            raise DomainError(f"norms shape {self.norms.shape} does not match grids "
                              f"({self.times.size}, {self.distances.size})")
        if not np.all(np.isfinite(self.norms) & (self.norms >= 0)):
            raise SolverError("negative or non-finite commutator norm in scan")
        if float(np.max(self.norms, initial=0.0)) > self.bound + 1e-10:
            raise SolverError("scan entry exceeds the a-priori commutator bound 2||A||||B||")


@dataclass
class LRFit:
    """Exponential light-cone envelope bound * exp(-c (x - v t)) over a scan."""

    velocity: float
    decay_rate: float
    bound: float
    max_violation: float
    points_used: int


def lr_scan(
    interaction: Interaction,
    volume: Volume,
    a_local,
    b_local,
    times,
    distances,
    *,
    cap_dense: int = DENSE_CUTOFF,
) -> LRScan:
    """Evolve A at the chain origin and tabulate ||[alpha_t(A), B_x]||.

    Requires a 1-d volume whose dimension is at most ``cap_dense``, the cap
    of the dense eigendecomposition that propagates A.  The t = 0 row is
    exactly zero off-site: evolution returns A unchanged at t = 0 and
    embeddings on disjoint supports commute exactly.  Diagonal A and B_x
    (``_diagonal``) keep alpha_t(A) in H's blocks, A itself on block 0: each
    other block is flowed once per t > 0 (``EigenSystem.flow``) and normed for
    all x at once by :func:`_block_norms`, whose corner indices are built once
    per block; mirror blocks are skipped when H, A and every B_x have a flip
    parity (J C J = +-C).  Other observables take the largest |eigenvalue| of
    i[alpha_t(A), B_x] from ``hermitian_eig``.
    """
    if volume.dimension != 1:
        raise DomainError(f"light-cone scans run on chains; volume dims {volume.dims}")
    times = np.asarray(list(times), dtype=float)
    distances = np.asarray(list(distances), dtype=int)
    if times.size == 0 or distances.size == 0:
        raise DomainError("time and distance grids must be nonempty")
    if np.any(distances < 0) or np.any(distances >= volume.num_sites):
        raise DomainError(f"distances must lie in 0..{volume.num_sites - 1}")

    _hermitian(a_local, "observable A")
    _hermitian(b_local, "observable B")
    prop = EigenSystem(assemble_hamiltonian(interaction, volume), cap_dense=cap_dense)
    a0 = embed(a_local, [(0,)], volume)
    b_ops = [embed(b_local, [(int(x),)], volume) for x in distances]
    a_norm, b_norm = (operator_norm(m, cap_dense=cap_dense) for m in (a0, b_ops[0]))

    norms = np.zeros((times.size, distances.size))
    if _diagonal(a0) and all(_diagonal(bx) for bx in b_ops):
        skip = prop.plan.flip and _flip_parity(a0) != 0 and all(_flip_parity(bx) for bx in b_ops)
        own = {(b, b) for b in range(1, len(prop.blocks)) if not skip or prop.plan.mirror[b] >= b}
        diagonals = np.array([bx.diagonal().real for bx in b_ops])
        for b, _, x in prop.pairs(a0, own):
            norm = _block_norms(diagonals[:, prop.blocks[b][0]])
            for i in np.flatnonzero(times):  # the t = 0 row stays zero: alpha_0(A) = A
                norms[i] = np.maximum(norms[i], norm(prop.flow(b, b, x, 1j * times[i])))
    else:  # i[alpha_t(A), B] is Hermitian: its norm is its largest |eigenvalue|
        for i, t in enumerate(times):
            at = prop.evolve(a0, float(t))
            for j, bx in enumerate(b_ops):
                eig = hermitian_eig(commutator(at, 1j * bx), vectors=False)
                norms[i, j] = np.abs(eig.eigenvalues).max()
    return LRScan(times=times, distances=distances, norms=norms, a_norm=a_norm, b_norm=b_norm)


def _block_norms(d, batch=1 << 17):
    """Y -> ||[Y, diag(d_r)]|| for each row d_r of ``d``, Y Hermitian.  If d_r takes two
    values d1 < d2, it is (d2 - d1) sigma_max(C), C = Y[d_r = d1][:, d_r = d2]; corners of
    one shape are stacked (up to ``batch`` entries) for one Gram G = C^H C on C's narrower
    side and one eigvalsh.  sigma_max(C)^2 = lambda_max(G) (Golub and Van Loan, Matrix
    Computations, 8.6), which forming G and eigvalsh move by about n eps ||C||^2 (8.1), so
    sqrt(max(lambda_max, 0)) is exact to about n eps relative.  More values take the
    largest |eigenvalue| of i Y * (d_j - d_i); a constant d_r gives 0."""
    values = 1 + np.count_nonzero(np.diff(np.sort(d, axis=1), axis=1), axis=1)
    low, batches = d == d.min(axis=1, keepdims=True), []
    count = np.where(values == 2, low.sum(axis=1), 0)
    for m in np.unique(count[count > 0]):  # the row and column indices of each corner
        g = np.flatnonzero(count == m)
        r, c = np.nonzero(low[g])[1].reshape(g.size, m), np.nonzero(~low[g])[1].reshape(g.size, -1)
        step = max(1, batch // (m * (d.shape[1] - m)))
        batches += [(g[e:e + step], r[e:e + step], c[e:e + step]) for e in range(0, g.size, step)]

    def norms(y):
        out = np.zeros(len(d))
        for g, r, c in batches:
            x = y[r[:, :, None], c[:, None, :]]
            xh = x.conj().swapaxes(1, 2)
            lam = np.linalg.eigvalsh(xh @ x if x.shape[2] <= x.shape[1] else x @ xh)[:, -1]
            out[g] = np.ptp(d[g], axis=1) * np.sqrt(np.maximum(lam, 0.0))
        for r in np.flatnonzero(values > 2):
            out[r] = np.abs(np.linalg.eigvalsh(1j * y * (d[r][None, :] - d[r][:, None]))).max()
        return out

    return norms


#: Scan norms at or below this are rounding noise and take no part in a fit.
FIT_FLOOR = 1e-12


def lr_fit(scan: LRScan) -> LRFit:
    """Fit bound * exp(-c (x - v t)) over scan points above ``FIT_FLOOR``.

    Least squares on log(norm / bound) against (distance, time) determines c
    and v; v is then raised (minimally) until the envelope dominates every
    scanned point, so ``max_violation`` is zero up to rounding.  This
    extraction procedure is a construction of this tool and carries no
    literature meaning beyond the scanned grid.
    """
    c0 = scan.bound
    if c0 <= 0:
        raise DegenerateInputError("scan bound is zero; nothing to fit")
    ts = np.repeat(scan.times, scan.distances.size)
    xs = np.tile(scan.distances.astype(float), scan.times.size)
    ns = scan.norms.ravel()
    mask = ns > FIT_FLOOR
    if int(np.sum(mask)) < 3:
        raise DegenerateInputError(
            f"only {int(np.sum(mask))} scan points above floor {FIT_FLOOR}; fit needs >= 3"
        )
    y = np.log(ns[mask] / c0)
    design = np.column_stack([xs[mask], ts[mask]])
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    c = -float(coef[0])
    if c <= 0:
        raise DegenerateInputError("scan shows no spatial decay; cannot fit a cone")
    v = float(coef[1]) / c
    # minimal velocity raise so that norm <= bound * exp(-c (x - v t)) everywhere
    pos = (ns > 0) & (ts > 0)
    if np.any(pos):
        v_required = np.max((np.log(ns[pos] / c0) / c + xs[pos]) / ts[pos])
        v = max(v, float(v_required))
    v = max(v, 0.0)
    envelope = c0 * np.exp(-c * (xs - v * ts))
    max_violation = float(np.max(ns - envelope, initial=0.0))
    return LRFit(velocity=v, decay_rate=c, bound=c0, max_violation=max_violation,
                 points_used=int(np.sum(mask)))
