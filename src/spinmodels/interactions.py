"""Built-in interactions, Hamiltonian assembly and the model registry.

An Interaction is a translation-invariant bundle of at most one single-site
term and one nearest-neighbour bond term (both Hermitian matrices in the
product basis, first tensor factor = lower-ranked site; real for every
built-in model).  Assembly sums the site term over all sites and the bond
term over all bonds of a volume, on the whole product basis or on sorted basis
states alone: the CLI's SU(2) route builds its S3 sector m0 so, no full H, and
builds the full H only when that route falls back (no ``su2_spin`` certificate,
or a label off the ladder).  Every built-in model, the SU_q(2)-symmetric
deformed chain included, is such a bundle; ``MODELS`` holds one record per
named model (parameters, builder, symmetry generators, scan variables,
allowed volumes).
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import DimensionMismatchError, DomainError
from .lattice import Volume, _embed_csr, chain_volume
from .spin_algebra import (STRUCTURE_TOL, Spin, _dense, _hermitian, commutator, operator_norm,
                           spin_matrices)
from .symmetry import GeneratorSet, suq2_generators, total_spin


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
            term = _dense(term)
            if term.shape != (dim, dim):
                raise DimensionMismatchError(
                    f"{label} term must be {dim}x{dim}, got {term.shape}"
                )
            object.__setattr__(self, f"{label}_term", _hermitian(term, f"{label} term"))


# ---------------------------------------------------------------------------
# Built-in models
# ---------------------------------------------------------------------------


def heisenberg(j: float = 1.0, spin=0.5) -> Interaction:
    """Isotropic exchange -j * S.S on every bond (j > 0 ferromagnetic)."""
    if j == 0:
        raise DomainError("heisenberg coupling j must be nonzero")
    ops = spin_matrices(Spin.coerce(spin))
    bond = -float(j) * ops.exchange()
    return Interaction(local_dim=ops.dim, bond_term=bond, name="heisenberg")


def xy_field(h: float = 0.0) -> Interaction:
    """Spin-1/2 in-plane exchange -(S1 S1 + S2 S2) with field term -h S3."""
    ops = spin_matrices(0.5)
    bond = -(np.kron(ops.sp, ops.sm) + np.kron(ops.sm, ops.sp)) / 2.0
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
    v = ops.exchange()
    bond = v / 2.0 + (v @ v) / 6.0 + np.eye(9) / 3.0
    return Interaction(local_dim=3, bond_term=bond, name="aklt")


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


def xxz_suq2(q: float) -> Interaction:
    """Spin-1/2 anisotropic bond term whose open-chain sum commutes with the
    q-deformed total-spin generators (Pasquier & Saleur, Nucl. Phys. B 330,
    523 (1990)).

    On every bond (x, x+1):
        -(1/delta)(S1 S1 + S2 S2) - (S3 S3 - 1/4)
        + (1/2) sqrt(1 - delta^-2) (S3_{x+1} - S3_x)
    with delta = (q + 1/q)/2.  The field difference is the same matrix on
    every bond; over an open chain it telescopes to boundary fields.  At
    q = 1 this is the isotropic chain shifted by 1/4 per bond.  On an open
    chain of L sites the kernel has dimension L+1.
    """
    q = float(q)
    if not 0.0 < q <= 1.0:
        raise DomainError(f"q must lie in (0, 1], got {q}")
    delta = (q + 1.0 / q) / 2.0
    a = 0.5 * math.sqrt(1.0 - 1.0 / (delta * delta))
    ops = spin_matrices(0.5)
    eye2 = ops.identity
    bond = (
        -(0.5 / delta) * (np.kron(ops.sp, ops.sm) + np.kron(ops.sm, ops.sp))
        - (np.kron(ops.s3, ops.s3) - np.eye(4) / 4.0)
        + a * (np.kron(eye2, ops.s3) - np.kron(ops.s3, eye2))
    )
    return Interaction(local_dim=2, bond_term=bond, name="xxz_suq2")


def su2_spin(interaction: Interaction) -> float | None:
    """The local spin s if the site and bond terms each commute with their
    support's total S+ within STRUCTURE_TOL * max(1, ||term||) and with its
    total S3 exactly (no entry changes the digit sum), else None: the
    certificate that the assembled H commutes with the total S+, S- = (S+)^T
    and S3, and keeps each S3 sector, read by the CLI's krylov route."""
    ops = spin_matrices((interaction.local_dim - 1) / 2.0)
    pair = [np.kron(x, ops.identity) + np.kron(ops.identity, x) for x in (ops.sp, ops.s3)]
    for term, gens in ((interaction.site_term, (ops.sp, ops.s3)), (interaction.bond_term, pair)):
        if term is not None and any(operator_norm(commutator(term, g)) > tol for g, tol in
                                    zip(gens, (STRUCTURE_TOL * max(1.0, operator_norm(term)), 0))):
            return None
    return ops.spin.value


def xxz_suq2_chain(length: int, q: float) -> sp.csr_array:
    """The ``xxz_suq2(q)`` bond term summed over an open chain of ``length``."""
    if not isinstance(length, (int, np.integer)) or length < 2:
        raise DomainError(f"chain length must be an integer >= 2, got {length!r}")
    return assemble_hamiltonian(xxz_suq2(q), chain_volume(length, "open", 2))


# ---------------------------------------------------------------------------
# Assembly and interaction norms
# ---------------------------------------------------------------------------


def assemble_hamiltonian(interaction: Interaction, volume: Volume, states=None) -> sp.csr_array:
    """Sum the interaction's site term over sites and bond term over bonds,
    or, given sorted basis indices ``states``, its restriction H[states][:, states]
    built from the terms (see ``lattice._embed_csr``), with no full H.

    The result is CSR at every size, float64 for real terms, and Hermitian by
    construction (exactly: embeddings copy entries and sparse sums align them).
    Any volume is assembled: the Hilbert-space cap is ``build_volume``'s.
    """
    if interaction.local_dim != volume.local_dim:
        raise DimensionMismatchError(
            f"interaction local dim {interaction.local_dim} != "
            f"volume local dim {volume.local_dim}"
        )
    dim = volume.hilbert_dim if states is None else len(states)
    total = sp.csr_array((dim, dim))
    if interaction.site_term is not None:
        for site in volume.sites:
            total = total + _embed_csr(interaction.site_term, [site], volume, states)
    if interaction.bond_term is not None:
        for edge in volume.edges:
            total = total + _embed_csr(interaction.bond_term, list(edge), volume, states)
    return total


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
    value = 0.0
    if interaction.site_term is not None:
        value += math.exp(lam) * operator_norm(interaction.site_term)
    if interaction.bond_term is not None:
        value += 2.0 * spatial_dim * math.exp(2.0 * lam) * operator_norm(
            interaction.bond_term
        )
    return value


# ---------------------------------------------------------------------------
# Model registry (shared by the CLI and tests)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Model:
    """Registry record of a named model.

    Attributes:
        name: model tag used in run specs (also the built Interaction's name).
        defaults: parameter name -> default (None: no default); any other
            parameter name is refused.
        build: keyword parameters -> Interaction.
        generators: (volume, keyword parameters) -> GeneratorSet of charges
            that commute with the assembled H.
        scan_variables: parameters a scan may sweep.
        open_chain_only: the model is defined on open 1-d chains only.
    """

    name: str
    defaults: dict
    build: Callable[..., Interaction]
    generators: Callable[..., GeneratorSet]
    scan_variables: tuple = ()
    open_chain_only: bool = False

    def with_defaults(self, params: dict | None = None) -> dict:
        """``params`` over the defaults; DomainError on an unknown name."""
        params = dict(params or {})
        unknown = set(params) - set(self.defaults)
        if unknown:
            raise DomainError(f"unknown parameters for {self.name}: {sorted(unknown)}")
        return {**self.defaults, **params}

    def interaction(self, params: dict | None = None) -> Interaction:
        return self.build(**self.with_defaults(params))

    def symmetry(self, params: dict | None, volume: Volume) -> GeneratorSet:
        return self.generators(volume, **self.with_defaults(params))

    def check_volume(self, volume: Volume) -> None:
        """DomainError if the model is not defined on ``volume``."""
        if self.open_chain_only and (volume.dimension != 1 or volume.boundary != "open"):
            raise DomainError(
                f"{self.name} is defined on open chains; got "
                f"dims={volume.dims}, boundary={volume.boundary}"
            )


def _total_spin(volume, **_):
    return total_spin(volume)


def _s3_total(volume, **_):
    s3 = total_spin(volume).generators["S3"]
    return GeneratorSet("s3_total", {"S3": s3})


MODELS = {
    model.name: model
    for model in (
        Model("heisenberg", {"J": 1.0, "spin": 0.5},
              build=lambda J, spin: heisenberg(j=J, spin=spin),
              generators=_total_spin, scan_variables=("J",)),
        Model("xy_field", {"h": 0.0}, build=lambda h: xy_field(h=h),
              generators=_s3_total, scan_variables=("h",)),
        Model("ising", {"J": 1.0, "h": 0.0}, build=lambda J, h: ising(j=J, h=h),
              generators=_s3_total, scan_variables=("J", "h")),
        Model("aklt", {}, build=aklt, generators=_total_spin),
        Model("xxz_suq2", {"q": None, "delta": None},
              build=lambda q, delta: xxz_suq2(resolve_q(q, delta)),
              generators=lambda volume, q, delta: suq2_generators(
                  volume, resolve_q(q, delta)),
              scan_variables=("q", "delta"), open_chain_only=True),
    )
}

MODEL_NAMES = tuple(MODELS)


def _model(name: str) -> Model:
    if name not in MODELS:
        raise DomainError(f"unknown model {name!r}; expected one of {MODEL_NAMES}")
    return MODELS[name]


def build_model_hamiltonian(name: str, params: dict | None, volume: Volume) -> sp.csr_array:
    """Hamiltonian of a named model on a volume it is defined on."""
    model = _model(name)
    model.check_volume(volume)
    return assemble_hamiltonian(model.interaction(params), volume)
