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
invariant) stays block-diagonal.  A light-cone scan takes each norm as the
largest |eigenvalue| of the Hermitian i[alpha_t(A), B_x], a product of CSR
matrices solved block by block.  Above the dense cutoff, Hamiltonians still
get vector propagation through a Krylov-based matrix-exponential action.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .errors import DegenerateInputError, DomainError, SolverError
from .interactions import Interaction, assemble_hamiltonian
from .lattice import Volume, embed
from .spectra import RANGE_LIMIT, EigenSystem
from .spin_algebra import (
    DENSE_CUTOFF,
    as_matrix,
    hermitian_eig,
    is_hermitian,
    operator_norm,
)

#: Earlier name of EigenSystem, kept importable.
Propagator = EigenSystem


def evolve(h, a, t: float):
    """One-shot Heisenberg evolution, stored as ``a`` is; ``h`` is a
    Hamiltonian or its EigenSystem."""
    return EigenSystem.of(h).evolve(a, t)


def evolve_imaginary(h, a, beta: float, *, range_limit: float = RANGE_LIMIT):
    """One-shot imaginary-time conjugation exp(-beta H) A exp(beta H).

    ``range_limit`` applies when ``h`` is a Hamiltonian; an EigenSystem
    carries its own.
    """
    return EigenSystem.of(h, range_limit=range_limit).evolve_imaginary(a, beta)


def evolve_state(h, psi: np.ndarray, t: float) -> np.ndarray:
    """exp(-itH) psi; uses the sparse Krylov exponential above the dense cutoff."""
    if isinstance(h, EigenSystem) or as_matrix(h).shape[0] <= DENSE_CUTOFF:
        return EigenSystem.of(h).evolve_vector(psi, t)
    m = as_matrix(h)
    if not is_hermitian(h):
        raise DomainError("evolution requires a Hermitian Hamiltonian")
    from scipy.sparse.linalg import expm_multiply

    psi = np.asarray(psi, dtype=np.complex128)
    if psi.shape != (m.shape[0],):
        raise DomainError(f"state shape {psi.shape} does not match dim {m.shape[0]}")
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
    metadata: dict = field(default_factory=dict)

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
    metadata: dict = field(default_factory=dict)


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
    embeddings on disjoint supports commute exactly.
    """
    if volume.dimension != 1:
        raise DomainError(f"light-cone scans run on chains; volume dims {volume.dims}")
    times = np.asarray(list(times), dtype=float)
    distances = np.asarray(list(distances), dtype=int)
    if times.size == 0 or distances.size == 0:
        raise DomainError("time and distance grids must be nonempty")
    length = volume.num_sites
    if np.any(distances < 0) or np.any(distances >= length):
        raise DomainError(f"distances must lie in 0..{length - 1}")

    if not (is_hermitian(a_local) and is_hermitian(b_local)):
        raise DomainError("light-cone scans take Hermitian observables")
    prop = EigenSystem(assemble_hamiltonian(interaction, volume), cap_dense=cap_dense)
    a0 = embed(a_local, [(0,)], volume)
    b_ops = [embed(b_local, [(int(x),)], volume) for x in distances]
    a_norm = operator_norm(a0)
    b_norm = operator_norm(b_ops[0]) if b_ops else 0.0

    # i[alpha_t(A), B] is Hermitian: its norm is its largest |eigenvalue|
    ib_ops = [1j * b for b in b_ops]
    norms = np.zeros((times.size, distances.size))
    for i, t in enumerate(times):
        at = prop.evolve(a0, float(t))
        for j, ib in enumerate(ib_ops):
            c = at @ ib - ib @ at
            norms[i, j] = np.max(np.abs(hermitian_eig(c, vectors=False).eigenvalues))
    return LRScan(
        times=times,
        distances=distances,
        norms=norms,
        a_norm=a_norm,
        b_norm=b_norm,
        metadata={
            "interaction": interaction.name,
            "length": int(length),
            "boundary": volume.boundary,
            "origin": 0,
        },
    )


def lr_fit(scan: LRScan, *, floor: float = 1e-12) -> LRFit:
    """Fit bound * exp(-c (x - v t)) over scan points above ``floor``.

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
    mask = ns > floor
    if int(np.sum(mask)) < 3:
        raise DegenerateInputError(
            f"only {int(np.sum(mask))} scan points above floor {floor}; fit needs >= 3"
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
    max_violation = max(max_violation, 0.0)
    return LRFit(
        velocity=v,
        decay_rate=c,
        bound=c0,
        max_violation=max_violation,
        points_used=int(np.sum(mask)),
        metadata={
            "floor": floor,
            "method": (
                "log-linear least squares in (distance, time); velocity raised "
                "minimally so the envelope dominates every scanned point. "
                "This extraction is a construction of this tool."
            ),
        },
    )
