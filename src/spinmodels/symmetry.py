"""Symmetry generators (ordinary and q-deformed) and invariance residuals.

The q-deformed total-spin generators on an open spin-1/2 chain use the
one-sided deformation strings

    K+ = sum_x t x ... x t x S+_x x 1 x ... x 1        (t left of x)
    K- = sum_x 1 x ... x 1 x S-_x x t^-1 x ... x t^-1  (t^-1 right of x)
    K3 = sum_x S3_x,          t = diag(1/q, q),

which commute with the anisotropic chain carrying the matching boundary
fields.  At q = 1 they reduce to the ordinary total-spin components.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .errors import DimensionMismatchError, DomainError
from .lattice import Volume, embed
from .spin_algebra import (
    DENSE_CUTOFF,
    as_matrix,
    commutator,
    operator_norm,
    spin_matrices,
)


@dataclass
class GeneratorSet:
    """A labelled family of symmetry generators on one volume."""

    name: str
    generators: dict = field(default_factory=dict)  # label -> CSR matrix

    def __iter__(self):
        return iter(self.generators.items())


def total_spin(volume: Volume) -> GeneratorSet:
    """Total S1, S2, S3 over all sites, as CSR: S1 and S3 float64, S2 complex128."""
    ops = spin_matrices((volume.local_dim - 1) / 2.0)
    gens = {}
    for label, local in (("S1", ops.s1), ("S2", ops.s2), ("S3", ops.s3)):
        total = None
        for site in volume.sites:
            part = embed(local, [site], volume)
            total = part if total is None else total + part
        gens[label] = total
    return GeneratorSet(name="total_spin", generators=gens)


def suq2_generators(volume: Volume, q: float) -> GeneratorSet:
    """q-deformed total-spin generators K3, K+, K- on an open spin-1/2 chain,
    as float64 CSR operators.

    Raises DomainError off the supported geometry or for q outside (0, 1].
    """
    q = float(q)
    if not 0.0 < q <= 1.0:
        raise DomainError(f"q must lie in (0, 1], got {q}")
    if volume.dimension != 1 or volume.boundary != "open" or volume.local_dim != 2:
        raise DomainError(
            "deformed generators are defined on open spin-1/2 chains; got "
            f"dims={volume.dims}, boundary={volume.boundary}, n={volume.local_dim}"
        )
    # basis index = sum_x (1 if site x is down) * 2^(length - 1 - x): K3 and
    # the q-strings are read off the bits, q^(#down - #up) left of x for K+
    # and q^(#up - #down) right of x for K-, in one COO pass per generator
    length, weight = volume.num_sites, volume.strides()
    states = np.arange(2**length)
    down = states[:, None] // weight % 2
    left = np.cumsum(down, axis=1) - down
    right = down.sum(axis=1, keepdims=True) - left - down
    x = np.arange(length)
    gens = {"K3": sp.diags_array(length / 2 - down.sum(axis=1), format="csr")}
    for name, flip, power in (("K+", 1, 2 * left - x), ("K-", 0, length - 1 - x - 2 * right)):
        s, y = np.nonzero(down == flip)  # S+ raises a down spin, S- lowers an up one
        rows = states[s] + (1 - 2 * flip) * weight[y]
        gens[name] = sp.csr_array((q ** power[s, y], (rows, states[s])),
                                  shape=(states.size, states.size))
    return GeneratorSet(name="suq2", generators=gens)


def invariance_residual(h, symmetry, *, cap_dense: int = DENSE_CUTOFF) -> float:
    """max_G ||[H, G]|| over the generators G of the GeneratorSet ``symmetry``:
    how far ``h`` is from commuting with them; anything else is a DomainError.
    Each norm is exact up to ``cap_dense`` and an ARPACK ``svds`` estimate
    above it, with no Hermiticity test (see
    :func:`~spinmodels.spin_algebra.operator_norm`).
    """
    if not isinstance(symmetry, GeneratorSet):
        raise DomainError(f"symmetry must be a GeneratorSet, got {type(symmetry).__name__}")
    hm, worst = as_matrix(h), 0.0
    for _, g in symmetry:
        gm = as_matrix(g)
        if gm.shape != hm.shape:
            raise DimensionMismatchError(f"generator shape {gm.shape} vs Hamiltonian {hm.shape}")
        worst = max(worst, operator_norm(commutator(hm, gm), cap_dense=cap_dense))
    return worst
