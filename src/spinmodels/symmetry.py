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
    STRUCTURE_TOL,
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
    """Total S1, S2, S3 summed over all sites, as CSR operators."""
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
    as CSR operators.

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
    gens = {"K3": sp.diags_array(length / 2 - down.sum(axis=1) + 0j, format="csr")}
    for name, flip, power in (("K+", 1, 2 * left - x), ("K-", 0, length - 1 - x - 2 * right)):
        s, y = np.nonzero(down == flip)  # S+ raises a down spin, S- lowers an up one
        rows = states[s] + (1 - 2 * flip) * weight[y]
        gens[name] = sp.csr_array((q ** power[s, y] + 0j, (rows, states[s])),
                                  shape=(states.size, states.size))
    return GeneratorSet(name="suq2", generators=gens)


def _is_unitary(u, tol: float = STRUCTURE_TOL) -> bool:
    m = as_matrix(u)
    return float(abs(m.conj().T @ m - sp.eye_array(m.shape[0])).max()) <= tol


def invariance_residual(h, symmetry) -> float:
    """How far ``h`` is from commuting with a symmetry.

    ``symmetry`` may be a GeneratorSet (or iterable of operators), giving
    max_G ||[H, G]||, or a single unitary U, giving ||U^dagger H U - H||.
    For a Hermitian unitary the two coincide.
    """
    hm = as_matrix(h)
    if isinstance(symmetry, GeneratorSet):
        items = [op for _, op in symmetry]
    elif isinstance(symmetry, (list, tuple)):
        items = list(symmetry)
    else:
        items = None
    if items is not None:
        worst = 0.0
        for g in items:
            gm = as_matrix(g)
            if gm.shape != hm.shape:
                raise DimensionMismatchError(
                    f"generator shape {gm.shape} vs Hamiltonian {hm.shape}"
                )
            worst = max(worst, operator_norm(commutator(hm, gm)))
        return worst
    um = as_matrix(symmetry)
    if um.shape != hm.shape:
        raise DimensionMismatchError(f"unitary shape {um.shape} vs Hamiltonian {hm.shape}")
    if not _is_unitary(um):
        raise DomainError("single-operator invariance check requires a unitary")
    conj = um.conj().T @ hm @ um
    return operator_norm(conj - hm)


def state_invariance_residual(state, u, probes) -> float:
    """max over probes A of | omega(U^dagger A U) - omega(A) |.

    ``probes`` is an iterable of operators, a label -> operator mapping, or a
    GeneratorSet.  U must be unitary to structure tolerance.
    """
    from .states import expectation

    um = as_matrix(u)
    if not _is_unitary(um):
        raise DomainError("state invariance requires a unitary")
    if isinstance(probes, GeneratorSet):
        probes = [op for _, op in probes]
    elif isinstance(probes, dict):
        probes = list(probes.values())
    worst = 0.0
    for a in probes:
        am = as_matrix(a)
        if am.shape != um.shape:
            raise DimensionMismatchError(
                f"probe shape {am.shape} vs unitary {um.shape}"
            )
        rotated = um.conj().T @ am @ um
        delta = abs(expectation(state, rotated) - expectation(state, am))
        worst = max(worst, float(delta))
    return worst


def default_probe_set(volume: Volume) -> dict:
    """Spin components on every site and exchange terms on every bond."""
    ops = spin_matrices((volume.local_dim - 1) / 2.0)
    probes = {}
    for site in volume.sites:
        for label, local in (("S1", ops.s1), ("S2", ops.s2), ("S3", ops.s3)):
            probes[f"{label}@{site}"] = embed(local, [site], volume)
    bond = (
        np.kron(ops.s1, ops.s1) + np.kron(ops.s2, ops.s2) + np.kron(ops.s3, ops.s3)
    )
    for a, b in volume.edges:
        probes[f"SdotS@{a}-{b}"] = embed(bond, [a, b], volume)
    return probes
