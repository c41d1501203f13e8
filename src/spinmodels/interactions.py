"""Built-in interactions and Hamiltonian assembly.

An Interaction is a translation-invariant bundle of at most one single-site
term and one nearest-neighbour bond term (both Hermitian matrices in the
product basis, first tensor factor = lower-ranked site).  Assembly sums the
site term over all sites and the bond term over all bonds of a volume.

The deformed anisotropic chain is special: its boundary-field bookkeeping
makes it a per-chain construction rather than a translation-invariant bundle,
so it is exposed as a direct Hamiltonian builder.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import DimensionMismatchError, DomainError, ResourceCapError
from .lattice import MAX_HILBERT_DIM, Volume, _embed_coo, chain_volume
from .spin_algebra import DENSE_CUTOFF, STRUCTURE_TOL, Operator, Spin, spin_matrices


@dataclass(frozen=True)
class Interaction:
    """A translation-invariant site + nearest-neighbour bond interaction.

    Attributes:
        local_dim: on-site dimension n; site_term is n x n, bond_term n^2 x n^2.
        site_term: Hermitian matrix applied at every site, or None.
        bond_term: Hermitian matrix applied on every bond (factor order =
            rank order), or None.
        name: model tag used in run specs and outputs.
    """

    local_dim: int
    site_term: np.ndarray | None = None
    bond_term: np.ndarray | None = None
    name: str = "custom"

    def __post_init__(self):
        n = self.local_dim
        if not isinstance(n, (int, np.integer)) or n < 2:
            raise DomainError(f"local dimension must be an integer >= 2, got {n!r}")
        for label, term, dim in (
            ("site", self.site_term, n),
            ("bond", self.bond_term, n * n),
        ):
            if term is None:
                continue
            term = np.asarray(term, dtype=np.complex128)
            if term.shape != (dim, dim):
                raise DimensionMismatchError(
                    f"{label} term must be {dim}x{dim}, got {term.shape}"
                )
            if float(np.max(np.abs(term - term.conj().T))) > STRUCTURE_TOL:
                raise DomainError(f"{label} term is not Hermitian")
            object.__setattr__(self, f"{label}_term", term)

    @property
    def interaction_range(self) -> int:
        """0 for purely on-site interactions, 1 if a bond term is present."""
        return 1 if self.bond_term is not None else 0


# ---------------------------------------------------------------------------
# Built-in models
# ---------------------------------------------------------------------------


def heisenberg(j: float = 1.0, spin=0.5) -> Interaction:
    """Isotropic exchange -j * S.S on every bond (j > 0 ferromagnetic)."""
    if j == 0:
        raise DomainError("heisenberg coupling j must be nonzero")
    ops = spin_matrices(Spin.coerce(spin))
    bond = -float(j) * (
        np.kron(ops.s1, ops.s1) + np.kron(ops.s2, ops.s2) + np.kron(ops.s3, ops.s3)
    )
    return Interaction(local_dim=ops.dim, bond_term=bond, name="heisenberg")


def xy_field(h: float = 0.0) -> Interaction:
    """Spin-1/2 in-plane exchange -(S1 S1 + S2 S2) with field term -h S3."""
    ops = spin_matrices(0.5)
    bond = -(np.kron(ops.s1, ops.s1) + np.kron(ops.s2, ops.s2))
    site = None if h == 0 else -float(h) * ops.s3
    return Interaction(local_dim=2, site_term=site, bond_term=bond, name="xy_field")


def ising(j: float = 1.0, h: float = 0.0) -> Interaction:
    """Spin-1/2 diagonal exchange -j S3 S3 with longitudinal field -h S3."""
    ops = spin_matrices(0.5)
    bond = None if j == 0 else -float(j) * np.kron(ops.s3, ops.s3)
    site = None if h == 0 else -float(h) * ops.s3
    return Interaction(local_dim=2, site_term=site, bond_term=bond, name="ising")


def aklt() -> Interaction:
    """Spin-1 bond projector onto total bond spin 2.

    P = (1/2) S.S + (1/6) (S.S)^2 + (1/3); idempotent with eigenvalues
    {0 (x4), 1 (x5)} on a bond.
    """
    ops = spin_matrices(1)
    v = (
        np.kron(ops.s1, ops.s1) + np.kron(ops.s2, ops.s2) + np.kron(ops.s3, ops.s3)
    )
    bond = v / 2.0 + (v @ v) / 6.0 + np.eye(9, dtype=np.complex128) / 3.0
    return Interaction(local_dim=3, bond_term=bond, name="aklt")


def empty(local_dim: int = 2) -> Interaction:
    """The zero interaction (assembles to the zero Hamiltonian)."""
    return Interaction(local_dim=local_dim, name="empty")


# ---------------------------------------------------------------------------
# Deformed anisotropic chain
# ---------------------------------------------------------------------------


def resolve_q(q: float | None = None, delta: float | None = None) -> float:
    """Deformation parameter from either q in (0, 1] or anisotropy delta >= 1.

    delta = (q + 1/q)/2; the returned branch satisfies 0 < q <= 1.
    """
    if (q is None) == (delta is None):
        raise DomainError("specify exactly one of q or delta")
    if q is not None:
        q = float(q)
        if not 0.0 < q <= 1.0:
            raise DomainError(f"q must lie in (0, 1], got {q}")
        return q
    delta = float(delta)
    if delta < 1.0:
        raise DomainError(f"delta must be >= 1, got {delta}")
    return delta - math.sqrt(delta * delta - 1.0)


def xxz_suq2_chain(
    length: int, q: float, *, dense_cutoff: int = DENSE_CUTOFF
) -> Operator:
    """Spin-1/2 anisotropic chain with the boundary fields that make it
    commute with the q-deformed total-spin generators.

    Per bond (x, x+1), x = 1..L-1:
        -(1/delta)(S1 S1 + S2 S2) - (S3 S3 - 1/4)
        + (1/2) sqrt(1 - delta^-2) (S3_{x+1} - S3_x)
    with delta = (q + 1/q)/2.  At q = 1 this is the isotropic chain shifted
    by (L-1)/4.  Open boundary, kernel of dimension L+1.
    """
    if not isinstance(length, (int, np.integer)) or length < 2:
        raise DomainError(f"chain length must be an integer >= 2, got {length!r}")
    q = float(q)
    if not 0.0 < q <= 1.0:
        raise DomainError(f"q must lie in (0, 1], got {q}")
    delta = (q + 1.0 / q) / 2.0
    a = 0.5 * math.sqrt(1.0 - 1.0 / (delta * delta))
    ops = spin_matrices(0.5)
    eye2 = ops.identity
    bond = (
        -(1.0 / delta) * (np.kron(ops.s1, ops.s1) + np.kron(ops.s2, ops.s2))
        - (np.kron(ops.s3, ops.s3) - np.eye(4, dtype=np.complex128) / 4.0)
        + a * (np.kron(eye2, ops.s3) - np.kron(ops.s3, eye2))
    )
    volume = chain_volume(length, "open", 2)
    total = None
    for edge in volume.edges:
        part = sp.csr_array(_embed_coo(bond, list(edge), volume))
        total = part if total is None else total + part
    if volume.hilbert_dim <= dense_cutoff:
        return Operator(total.toarray(), hermitian=True)
    return Operator(total, hermitian=True)


# ---------------------------------------------------------------------------
# Assembly and interaction norms
# ---------------------------------------------------------------------------


def assemble_hamiltonian(
    interaction: Interaction,
    volume: Volume,
    *,
    dense_cutoff: int = DENSE_CUTOFF,
    max_hilbert_dim: int = MAX_HILBERT_DIM,
) -> Operator:
    """Sum the interaction's site term over sites and bond term over bonds.

    The result is Hermitian by construction (exactly: embeddings copy entries
    and sparse sums align them).  Dense below ``dense_cutoff``, CSR above.
    """
    if interaction.local_dim != volume.local_dim:
        raise DimensionMismatchError(
            f"interaction local dim {interaction.local_dim} != "
            f"volume local dim {volume.local_dim}"
        )
    if volume.hilbert_dim > max_hilbert_dim:
        raise ResourceCapError(
            f"Hilbert dimension {volume.hilbert_dim} exceeds cap {max_hilbert_dim}"
        )
    dim = volume.hilbert_dim
    total = sp.csr_array((dim, dim), dtype=np.complex128)
    if interaction.site_term is not None:
        for site in volume.sites:
            total = total + sp.csr_array(
                _embed_coo(interaction.site_term, [site], volume)
            )
    if interaction.bond_term is not None:
        for edge in volume.edges:
            total = total + sp.csr_array(
                _embed_coo(interaction.bond_term, list(edge), volume)
            )
    if dim <= dense_cutoff:
        return Operator(total.toarray(), hermitian=True)
    return Operator(total, hermitian=True)


def lambda_norm(interaction: Interaction, lam: float, spatial_dim: int = 1) -> float:
    """Exponentially weighted interaction norm sum_{X containing a fixed site}
    exp(lam * |X|) ||term(X)||.

    For a site + nearest-neighbour bundle on Z^d this is
    exp(lam)*||site|| + 2*d*exp(2*lam)*||bond||.  Defined for lam >= 0 only.
    """
    lam = float(lam)
    if lam < 0:
        raise DomainError(f"lambda must be >= 0, got {lam}")
    if not isinstance(spatial_dim, (int, np.integer)) or spatial_dim < 1:
        raise DomainError(f"spatial dimension must be a positive integer, got {spatial_dim!r}")
    from .spin_algebra import operator_norm

    value = 0.0
    if interaction.site_term is not None:
        value += math.exp(lam) * operator_norm(interaction.site_term)
    if interaction.bond_term is not None:
        value += 2.0 * spatial_dim * math.exp(2.0 * lam) * operator_norm(
            interaction.bond_term
        )
    return value


# ---------------------------------------------------------------------------
# Named-model dispatch (shared by the CLI and tests)
# ---------------------------------------------------------------------------

MODEL_NAMES = ("heisenberg", "xy_field", "ising", "aklt", "xxz_suq2")

_MODEL_PARAMS = {
    "heisenberg": {"J": 1.0, "spin": 0.5},
    "xy_field": {"h": 0.0},
    "ising": {"J": 1.0, "h": 0.0},
    "aklt": {},
    "xxz_suq2": None,  # q xor delta, validated separately
}


def model_interaction(name: str, params: dict | None = None) -> Interaction:
    """Interaction bundle for a named translation-invariant model."""
    params = dict(params or {})
    if name not in MODEL_NAMES:
        raise DomainError(f"unknown model {name!r}; expected one of {MODEL_NAMES}")
    if name == "xxz_suq2":
        raise DomainError(
            "xxz_suq2 is a per-chain construction; use build_model_hamiltonian"
        )
    allowed = _MODEL_PARAMS[name]
    unknown = set(params) - set(allowed)
    if unknown:
        raise DomainError(f"unknown parameters for {name}: {sorted(unknown)}")
    merged = {**allowed, **params}
    if name == "heisenberg":
        return heisenberg(j=merged["J"], spin=merged["spin"])
    if name == "xy_field":
        return xy_field(h=merged["h"])
    if name == "ising":
        return ising(j=merged["J"], h=merged["h"])
    return aklt()


def build_model_hamiltonian(
    name: str,
    params: dict | None,
    volume: Volume,
    *,
    dense_cutoff: int = DENSE_CUTOFF,
    max_hilbert_dim: int = MAX_HILBERT_DIM,
) -> Operator:
    """Hamiltonian of a named model on a volume (CLI entry point)."""
    params = dict(params or {})
    if name == "xxz_suq2":
        unknown = set(params) - {"q", "delta"}
        if unknown:
            raise DomainError(f"unknown parameters for xxz_suq2: {sorted(unknown)}")
        if volume.dimension != 1 or volume.boundary != "open" or volume.local_dim != 2:
            raise DomainError(
                "xxz_suq2 is defined on open spin-1/2 chains; got "
                f"dims={volume.dims}, boundary={volume.boundary}, n={volume.local_dim}"
            )
        if volume.hilbert_dim > max_hilbert_dim:
            raise ResourceCapError(
                f"Hilbert dimension {volume.hilbert_dim} exceeds cap {max_hilbert_dim}"
            )
        q = resolve_q(params.get("q"), params.get("delta"))
        return xxz_suq2_chain(volume.num_sites, q, dense_cutoff=dense_cutoff)
    interaction = model_interaction(name, params)
    return assemble_hamiltonian(
        interaction, volume, dense_cutoff=dense_cutoff, max_hilbert_dim=max_hilbert_dim
    )
