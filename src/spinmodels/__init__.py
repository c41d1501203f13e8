"""Exact diagonalization and verification for finite quantum spin systems.

Modules:
    spin_algebra  — spin-S matrices, ndarray / CSR operators, norms, commutators,
                    the block-by-block Hermitian eigensolver
    lattice       — finite volumes, CSR embeddings, permutation unitaries
    interactions  — built-in models, Hamiltonian assembly, model registry
    krylov        — block Lanczos low-end eigensolver (sparse route)
    spectra       — shared eigendecomposition, low-end spectra, gaps
    states        — state containers, Gibbs states, equilibrium criteria, correlations
    dynamics      — Heisenberg-picture evolution and light-cone scans
    symmetry      — symmetry generators and invariance residuals
    probes        — seeded random local observables
    cli           — JSON run-spec command line driver
"""

__version__ = "0.1.0"

from .errors import (
    DegenerateInputError,
    DimensionMismatchError,
    DomainError,
    RangeLimitError,
    ResourceCapError,
    SolverError,
    SpecFileError,
    SpinModelError,
)
from .spin_algebra import (
    DENSE_CUTOFF,
    SOLVER_TOL,
    STRUCTURE_TOL,
    Spin,
    SpinOperators,
    adjoint,
    commutator,
    is_hermitian,
    operator_norm,
    pauli_matrices,
    spin_matrices,
)
from .lattice import (
    MAX_HILBERT_DIM,
    SitePermutation,
    Volume,
    basis_digits,
    basis_index,
    build_volume,
    chain_volume,
    embed,
    permutation_unitary,
)
from .interactions import (
    Interaction,
    aklt,
    assemble_hamiltonian,
    build_model_hamiltonian,
    heisenberg,
    ising,
    lambda_norm,
    resolve_q,
    su2_spin,
    xxz_suq2,
    xxz_suq2_chain,
    xy_field,
)
from .krylov import KrylovResult, lowest_eigenpairs
from .spectra import (
    DEGENERACY_TOL,
    RANGE_LIMIT,
    EigenSystem,
    LowLevels,
    full_spectrum,
    ground_space,
    low_levels,
    spectral_gap,
)
from .states import (
    BlockDensity,
    GibbsState,
    Mixture,
    density_matrix,
    eeb_deficit,
    eeb_terms,
    expectation,
    gibbs,
    kms_residual,
    kms_terms,
    maximally_mixed,
    mixture,
    pure,
    stability_value,
    structure_factor,
    two_point,
)
from .dynamics import (
    LRFit,
    LRScan,
    Propagator,
    lr_fit,
    lr_scan,
)
from .symmetry import (
    GeneratorSet,
    invariance_residual,
    suq2_generators,
    total_spin,
)
from .probes import random_local_operator, random_probe_pairs
