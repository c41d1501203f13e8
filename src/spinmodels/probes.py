"""Seeded random local observables for verification sweeps."""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .errors import DomainError
from .lattice import Volume, embed
from .spin_algebra import operator_norm


def random_local_operator(
    volume: Volume,
    rng,
    *,
    support=None,
    num_sites: int = 1,
    hermitian: bool = False,
) -> sp.csr_array:
    """A random operator supported on one site or one bond, normalized to
    unit operator norm.

    With ``support=None`` a random site (num_sites=1) or random bond
    (num_sites=2) is drawn from ``rng``; complex Gaussian entries,
    Hermitized on request.
    """
    rng = np.random.default_rng(rng) if isinstance(rng, (int, np.integer)) else rng
    if support is None:
        if num_sites == 1:
            support = [volume.sites[int(rng.integers(volume.num_sites))]]
        elif num_sites == 2:
            if not volume.edges:
                raise DomainError("volume has no bonds to support a 2-site probe")
            support = list(volume.edges[int(rng.integers(len(volume.edges)))])
        else:
            raise DomainError(f"num_sites must be 1 or 2, got {num_sites}")
    else:
        support = list(support)
    k = len(support)
    d = volume.local_dim**k
    local = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    if hermitian:
        local = (local + local.conj().T) / 2.0
    nrm = operator_norm(local)
    if nrm == 0.0:  # pragma: no cover - measure zero
        raise DomainError("drew a zero probe")
    return embed(local / nrm, support, volume)


def random_probe_pairs(
    volume: Volume, seed: int, count: int, *, hermitian: bool = False
) -> list[tuple[sp.csr_array, sp.csr_array]]:
    """``count`` seeded (A, B) pairs, alternating site- and bond-supported."""
    rng = np.random.default_rng(seed)
    pairs = []
    has_bonds = bool(volume.edges)
    for i in range(count):
        na = 2 if (i % 2 and has_bonds) else 1
        nb = 2 if ((i // 2) % 2 and has_bonds) else 1
        a = random_local_operator(volume, rng, num_sites=na, hermitian=hermitian)
        b = random_local_operator(volume, rng, num_sites=nb, hermitian=hermitian)
        pairs.append((a, b))
    return pairs
