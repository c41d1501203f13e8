"""Seeded random local observables for verification sweeps."""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .errors import DomainError
from .lattice import Volume, embed


def _draw(volume: Volume, rng, num_sites: int):
    """The support and the complex Gaussian local matrix of one probe, drawn
    from ``rng``."""
    if num_sites == 1:
        support = [volume.sites[int(rng.integers(volume.num_sites))]]
    elif num_sites == 2:
        if not volume.edges:
            raise DomainError("volume has no bonds to support a 2-site probe")
        support = list(volume.edges[int(rng.integers(len(volume.edges)))])
    else:
        raise DomainError(f"num_sites must be 1 or 2, got {num_sites}")
    d = volume.local_dim**num_sites
    return support, rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))


def random_local_operator(volume: Volume, rng, *, num_sites: int = 1) -> sp.csr_array:
    """A random operator on one site (num_sites=1) or one bond (num_sites=2),
    both drawn from ``rng``, with complex Gaussian entries normalized to unit
    operator norm."""
    rng = np.random.default_rng(rng) if isinstance(rng, (int, np.integer)) else rng
    support, local = _draw(volume, rng, num_sites)
    nrm = np.linalg.norm(local, 2)
    if nrm == 0.0:  # pragma: no cover - measure zero
        raise DomainError("drew a zero probe")
    return embed(local / nrm, support, volume)


def random_probe_pairs(volume: Volume, seed: int, count: int, *,
                       embed_b: bool = True) -> list[tuple[sp.csr_array, sp.csr_array | None]]:
    """``count`` seeded (A, B) pairs, alternating site- and bond-supported.

    With ``embed_b=False`` each B is drawn but neither normalized nor
    embedded, and the pair is (A, None): the A's are those of the default."""
    rng = np.random.default_rng(seed)
    pairs = []
    has_bonds = bool(volume.edges)
    for i in range(count):
        na = 2 if (i % 2 and has_bonds) else 1
        nb = 2 if ((i // 2) % 2 and has_bonds) else 1
        a = random_local_operator(volume, rng, num_sites=na)
        if embed_b:
            pairs.append((a, random_local_operator(volume, rng, num_sites=nb)))
        else:
            _draw(volume, rng, nb)  # B's draws, so the next A is unchanged
            pairs.append((a, None))
    return pairs
