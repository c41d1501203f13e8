"""Heisenberg-picture time evolution and locality (light-cone) scans.

Evolution is by exact eigendecomposition of the Hamiltonian — no
Trotterization anywhere: in the eigenbasis, conjugation by exp(itH) is an
entrywise phase exp(it(w_j - w_k)), and imaginary time replaces the phase by
exp(-beta(w_j - w_k)).  The decomposition is the shared
:class:`spinmodels.spectra.EigenSystem` (``Propagator`` is its old name), kept
as one block of eigenvectors per invariant block of H's nonzero pattern.  An
evolution runs over the block pairs that the operator couples, and the
result keeps the operator's storage: CSR in gives CSR out, nonzero only on
those pairs, so S3 at a site (which the built-in models' blocks leave
invariant) stays block-diagonal, and an exactly flip-even or flip-odd A
keeps its parity bit for bit.  A light-cone scan of diagonal observables
(S3 at any spin) keeps alpha_t(A) in H's blocks and norms each block of the
commutator by one corner SVD (an eigvalsh where B_x takes more than two values);
others take the largest |eigenvalue| of i[alpha_t(A), B_x] from ``commutator``.
Above the dense cutoff, a Hamiltonian (not an EigenSystem) still gets vector
propagation through a Krylov-based matrix-exponential action.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import DegenerateInputError, DimensionMismatchError, DomainError, SolverError
from .interactions import Interaction, assemble_hamiltonian
from .lattice import Volume, embed
from .spectra import EigenSystem
from .spin_algebra import (
    DENSE_CUTOFF,
    _diagonal,
    _flip_parity,
    _hermitian,
    as_matrix,
    commutator,
    hermitian_eig,
    operator_norm,
)

#: Earlier name of EigenSystem, kept importable.
Propagator = EigenSystem


def evolve(h, a, t: float):
    """One-shot Heisenberg evolution, stored as ``a`` is; ``h`` is a
    Hamiltonian or its EigenSystem."""
    return EigenSystem.of(h).evolve(a, t)


def evolve_imaginary(h, a, beta: float):
    """One-shot imaginary-time conjugation exp(-beta H) A exp(beta H),
    refused when |beta| * spread > RANGE_LIMIT."""
    return EigenSystem.of(h).evolve_imaginary(a, beta)


def evolve_state(h, psi: np.ndarray, t: float) -> np.ndarray:
    """exp(-itH) psi; a Hamiltonian above DENSE_CUTOFF takes the sparse Krylov
    exponential.  An EigenSystem, built under its own ``cap_dense``, takes its
    eigendecomposition at any size."""
    if isinstance(h, EigenSystem) or as_matrix(h).shape[0] <= DENSE_CUTOFF:
        return EigenSystem.of(h).evolve_vector(psi, t)
    m = _hermitian(h, "Hamiltonian")
    from scipy.sparse.linalg import expm_multiply

    psi = np.asarray(psi, dtype=np.complex128)
    if psi.shape != (m.shape[0],):
        raise DimensionMismatchError(f"state shape {psi.shape} does not match dim {m.shape[0]}")
    return expm_multiply(-1j * float(t) * sp.csr_array(m), psi)


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
            raise DomainError(
                f"norms shape {self.norms.shape} does not match grids "
                f"({self.times.size}, {self.distances.size})"
            )
        if np.any(self.norms < 0):
            raise SolverError("negative commutator norm in scan")
        if float(np.max(self.norms, initial=0.0)) > self.bound + 1e-10:
            raise SolverError(
                "scan entry exceeds the a-priori commutator bound 2||A||||B||"
            )


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
    other block is flowed once per t > 0 (``EigenSystem.flow``) for all x and
    normed by :func:`_block_norm`, skipping mirror blocks when H, A and every
    B_x have a flip parity (J C J = +-C).  Other observables take the largest
    |eigenvalue| of i[alpha_t(A), B_x] from ``hermitian_eig``.
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
        for b, _, x in prop.pairs(a0, own):
            diagonals = [bx.diagonal()[prop.blocks[b][0]] for bx in b_ops]
            for i in np.flatnonzero(times):  # the t = 0 row stays zero: alpha_0(A) = A
                y = prop.flow(b, b, x, 1j * times[i])
                norms[i] = np.maximum(norms[i], [_block_norm(y, d) for d in diagonals])
    else:  # i[alpha_t(A), B] is Hermitian: its norm is its largest |eigenvalue|
        for i, t in enumerate(times):
            at = prop.evolve(a0, float(t))
            for j, bx in enumerate(b_ops):
                eig = hermitian_eig(commutator(at, 1j * bx), vectors=False)
                norms[i, j] = np.abs(eig.eigenvalues).max()
    return LRScan(times=times, distances=distances, norms=norms, a_norm=a_norm, b_norm=b_norm)


def _block_norm(y, d) -> float:
    """||[Y, D]|| for a Hermitian block Y and D = diag(d): for two values d1 < d2
    [Y, D] is zero off the corner Y[d = d1][:, d = d2] and its transpose, so (d2 - d1)
    sigma_max(corner); else the largest |eigenvalue| of i[Y, D] (0 for constant d)."""
    values, low = np.unique(d), d == d.min()
    if values.size == 2:
        return float((values[1] - values[0]) * np.linalg.svd(y[low][:, ~low], compute_uv=False)[0])
    ic = 1j * y * (d[None, :] - d[:, None])
    return float(np.abs(np.linalg.eigvalsh(ic)).max()) if values.size > 2 else 0.0


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
