"""State containers, Gibbs states, and the equilibrium criteria.

The three equilibrium checks all evaluate finite-volume identities exactly
(up to rounding).  ``gibbs`` and ``kms_residual`` work block by block on
the eigendecomposition of a :class:`spinmodels.spectra.EigenSystem`: pass one
built once to share it (and its last Gibbs state), or pass H to build one per
call.  Probes and H stay CSR, so products such as X* [H, X] are sparse, and
an expectation in a density matrix, Tr(A rho) = sum A_jk rho_kj, is one
gather of rho at the transposed positions of A's stored entries: O(nnz).
A density matrix keeps its data's dtype, at least float64: for a real H the
Gibbs state and the ground-state mixture are float64, half a complex128 rho.
The KMS and entropy checks split into a beta-independent step per probe
(``kms_terms``, ``eeb_terms``) and a cheap step per beta on its result.  The
KMS flow side reads t_k = (V^H BA V)_kk from BA's diagonal blocks, which
equals sum_j A'_jk B'_kj by completeness, V V^H = I; its witness is
``EigenSystem.orthogonality_defect``.  A KMS beta is refused, like any
imaginary time, above |beta| * spread = ``spectra.RANGE_LIMIT``; entropy
weights below ``WEIGHT_FLOOR`` are degenerate.

* boundary condition relating a state to its imaginary-time flow:
  omega(A alpha_{i beta}(B)) = omega(B A), evaluated as a residual;
* entropy-production bound: beta * omega(X* [H, X]) >= omega(X*X) *
  log(omega(X*X) / omega(X X*)), evaluated as a deficit (>= 0 when the state
  is the Gibbs state at beta);
* ground-state stability: <psi| A* [H, A] |psi> >= 0 for any ground vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from .errors import DegenerateInputError, DimensionMismatchError, DomainError
from .spectra import EigenSystem
from .spin_algebra import (_dense, _hermitian, _operands, adjoint, as_matrix, commutator,
                           hermitian_eig)

#: Validation tolerance for a state's norm, trace and positivity.
STATE_TOL = 1e-12

#: Entropy-balance weights omega(X*X), omega(X X*) below this are degenerate.
WEIGHT_FLOOR = 1e-14


class StateVector:
    """A unit vector in the volume Hilbert space (norm 1 within ``STATE_TOL``)."""

    __slots__ = ("amplitudes",)

    def __init__(self, amplitudes, *, validate: bool = True):
        amplitudes = np.asarray(amplitudes, dtype=np.complex128).reshape(-1)
        if validate:
            nrm = float(np.linalg.norm(amplitudes))
            if abs(nrm - 1.0) > STATE_TOL:
                raise DomainError(f"state vector norm {nrm} is not 1 within {STATE_TOL}")
        self.amplitudes = amplitudes

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]

    @classmethod
    def normalized(cls, amplitudes) -> "StateVector":
        amplitudes = np.asarray(amplitudes, dtype=np.complex128).reshape(-1)
        nrm = float(np.linalg.norm(amplitudes))
        if nrm == 0.0:
            raise DomainError("cannot normalize the zero vector")
        return cls(amplitudes / nrm, validate=False)


class DensityMatrix:
    """A positive semidefinite, unit-trace Hermitian matrix, stored dense."""

    __slots__ = ("matrix",)

    def __init__(self, matrix, *, validate: bool = True):
        self.matrix = _dense(as_matrix(matrix))
        if validate:
            self.validate()

    def validate(self) -> None:
        """Raise DomainError unless Hermitian (to ``STRUCTURE_TOL``, as every
        input is), and unit-trace and PSD within ``STATE_TOL``."""
        m = _hermitian(self.matrix, "density matrix")
        tr = complex(np.trace(m))
        if abs(tr - 1.0) > max(STATE_TOL, 1e-12 * m.shape[0]):
            raise DomainError(f"density matrix trace {tr} is not 1")
        w = hermitian_eig((m + m.conj().T) / 2.0, vectors=False).eigenvalues
        wmin = float(np.min(w))
        if wmin < -STATE_TOL:
            raise DomainError(f"density matrix has negative eigenvalue {wmin:.3e}")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def pure(cls, psi) -> "DensityMatrix":
        """|psi><psi| / <psi|psi>, the ``mixture`` of one column."""
        return cls.mixture(np.reshape(psi.amplitudes if isinstance(psi, StateVector) else psi, -1))

    @classmethod
    def maximally_mixed(cls, dim: int) -> "DensityMatrix":
        if dim < 1:
            raise DomainError(f"dimension must be positive, got {dim}")
        return cls(np.eye(dim) / dim, validate=False)

    @classmethod
    def mixture(cls, vectors) -> "DensityMatrix":
        """Uniform mixture of the given (column) vectors — e.g. a ground-space
        average.  The columns must be orthonormal, as a ground basis is: rho is
        V V^H divided by its trace, with no orthonormalization."""
        v = _dense(vectors)
        if v.ndim == 1:
            v = v[:, None]
        if v.ndim != 2 or v.shape[1] == 0:
            raise DomainError("mixture needs a nonempty dim x k column stack")
        rho = v @ v.conj().T
        tr = float(np.trace(rho).real)
        if tr <= 0:
            raise DomainError("mixture has zero trace")
        rho /= tr
        return cls(rho, validate=False)


@dataclass
class GibbsState:
    """exp(-beta H)/Z together with log Z (Z itself may overflow; log Z never)."""

    rho: DensityMatrix
    log_z: float
    beta: float

    @property
    def z(self) -> float:
        return float(np.exp(self.log_z))


def _beta(beta) -> float:
    beta = float(beta)
    if not np.isfinite(beta) or beta < 0:
        raise DomainError(f"beta must be finite and >= 0, got {beta}")
    return beta


def gibbs(h, beta: float) -> GibbsState:
    """Gibbs state at inverse temperature beta >= 0 (dense route).

    ``h`` is a Hamiltonian or its EigenSystem, which keeps the last state
    built and drops it before building another.  rho is built block by block,
    weights relative to the smallest eigenvalue so no beta overflows, each
    block re-symmetrized and rho re-normalized in place to hold the invariants.
    """
    beta = _beta(beta)
    es = EigenSystem.of(h)
    if getattr(es.gibbs_memo, "beta", None) == beta:
        return es.gibbs_memo
    es.gibbs_memo = None
    w0 = es.eigenvalues[0]
    s = float(np.sum(np.exp(-beta * (es.eigenvalues - w0))))
    rho = np.zeros((es.dim, es.dim), np.result_type(*(v.dtype for _, _, v in es.blocks)))
    for b, (idx, w, v) in enumerate(es.blocks):
        p = np.exp(-beta * (w - w0)) / s
        if b:
            block = (v * p) @ v.conj().T
            rho[np.ix_(idx, idx)] = (block + block.conj().T) / 2.0
        else:  # the size-1 blocks: their vectors are the identity, p is real
            rho[idx, idx] = p
    rho /= float(np.trace(rho).real)
    log_z = float(np.log(s) - beta * w0)
    es.gibbs_memo = GibbsState(rho=DensityMatrix(rho, validate=False), log_z=log_z, beta=beta)
    return es.gibbs_memo


def expectation(state, a) -> complex:
    """omega(A) for a StateVector, DensityMatrix, or raw vector/matrix state."""
    m = as_matrix(a)
    if not isinstance(state, (StateVector, DensityMatrix)):
        arr = np.asarray(state)
        if arr.ndim not in (1, 2):
            raise DomainError(f"unsupported state with shape {arr.shape}")
        state = (StateVector if arr.ndim == 1 else DensityMatrix)(arr, validate=False)
    if state.dim != m.shape[0]:
        raise DimensionMismatchError(f"state dim {state.dim} vs operator dim {m.shape[0]}")
    if isinstance(state, StateVector):
        return complex(np.vdot(state.amplitudes, m @ state.amplitudes))
    # Tr(A rho) = sum_jk A_jk rho_kj; for CSR A one O(nnz) gather of rho at
    # the transposed positions of A's stored entries (duplicates add)
    if not sp.issparse(m):
        return complex(np.sum(m * state.matrix.T))
    rows = np.repeat(np.arange(m.shape[0]), np.diff(m.indptr))
    return complex(np.dot(m.data, state.matrix[m.indices, rows]))


def _hamiltonian(h, check: str):
    """H as an ndarray or CSR matrix, refused unless Hermitian.  An
    EigenSystem checked its H when it was built, so that H is not scanned
    again."""
    return h.h if isinstance(h, EigenSystem) else _hermitian(h, f"Hamiltonian of the {check}")


class KmsTerms(NamedTuple):
    """The beta-independent terms of :func:`kms_residual` for one pair (A, B):
    the transition vector t_k = (V^H BA V)_kk over the eigen-index k in block
    order, the eigenvalues in that order, and BA; see :func:`kms_terms`."""

    es: EigenSystem
    flow: np.ndarray
    energies: np.ndarray
    ba: np.ndarray | sp.csr_array

    def residual(self, beta: float) -> float:
        """The residual at ``beta``: a dot product for the flow side and an
        O(nnz) gather in the Gibbs density matrix for the comparison side."""
        beta = _beta(beta)
        self.es.require_range(beta)
        # flow side: the weight attaches to the index the flow transports B
        # to, which is what distinguishes it from omega(A B)
        p = np.exp(-beta * (self.energies - self.es.eigenvalues[0]))
        lhs = complex(self.flow @ p) / float(np.sum(p))
        # comparison side: omega(B A) in the Gibbs density matrix
        rhs = expectation(gibbs(self.es, beta).rho, self.ba)
        return float(abs(lhs - rhs))


def kms_terms(h, a, b) -> KmsTerms:
    """The KMS terms of (A, B): BA and t_k = (V^H BA V)_kk, gathered from BA's
    entries inside H's blocks (``EigenSystem.eigen_diagonal``).  t_k is
    sum_j A'_jk B'_kj (A' = V^H A V) by completeness, V V^H = I, which its
    witness ``EigenSystem.orthogonality_defect`` bounds: for unit-norm A and B
    the two forms of the residual differ by at most d (1 + d), d the defect."""
    es = EigenSystem.of(h)
    am, bm = _operands(a, b)
    ba = bm @ am
    energies = np.concatenate([w for _, w, _ in es.blocks])
    return KmsTerms(es, es.eigen_diagonal(ba), energies, ba)


def kms_residual(h, beta: float, a, b) -> float:
    """| omega(A alpha_{i beta}(B)) - omega(B A) | in the Gibbs state at beta.

    Zero (to rounding) exactly when omega is the Gibbs state.  ``h`` is a
    Hamiltonian or its EigenSystem; both sides share its decomposition.  The
    flow side, sum_k t_k e^{-beta w_k} / Z with t_k = (V^H BA V)_kk, folds the
    Boltzmann weight into the eigenbasis, where the growing and decaying
    exponentials cancel as scalars, so no exp(+beta * spread) is formed and
    it stays at rounding level up to beta = ``RANGE_LIMIT`` / spread, above
    which it is a RangeLimitError.  The comparison side is the independent
    density-matrix expectation.  t_k rests on completeness, V V^H = I, which
    the two sides do not test; ``EigenSystem.orthogonality_defect`` does.
    This is ``kms_terms(h, a, b).residual(beta)``: terms built once serve
    every beta.
    """
    return kms_terms(h, a, b).residual(beta)


class EebTerms(NamedTuple):
    """The beta-independent terms of :func:`eeb_deficit` for one X: the
    products X*X, X X* and X*[H, X]."""

    xdx: np.ndarray | sp.csr_array
    xxd: np.ndarray | sp.csr_array
    xdhx: np.ndarray | sp.csr_array

    def deficit(self, beta: float, state, *, allow_degenerate: bool = False) -> float:
        """The deficit at ``beta`` in ``state``, as :func:`eeb_deficit`
        defines it: three expectations, O(nnz) each in a density matrix."""
        beta = _beta(beta)
        if not isinstance(state, (StateVector, DensityMatrix)):
            state = np.asarray(state)
            state = DensityMatrix(state) if state.ndim == 2 else StateVector(state)
        w1 = float(expectation(state, self.xdx).real)
        w2 = float(expectation(state, self.xxd).real)
        if w2 < WEIGHT_FLOOR <= w1:
            raise DegenerateInputError(
                f"omega(X X*) = {w2:.3e} below floor {WEIGHT_FLOOR}; bound diverges")
        if w1 < WEIGHT_FLOOR and not allow_degenerate:
            raise DegenerateInputError(
                f"omega(X*X) = {w1:.3e} below floor {WEIGHT_FLOOR}; "
                "pass allow_degenerate=True for the 0*log(0) = 0 convention")
        rhs = 0.0 if w1 < WEIGHT_FLOOR else w1 * float(np.log(w1 / w2))
        return beta * float(expectation(state, self.xdhx).real) - rhs


def eeb_terms(h, x) -> EebTerms:
    """The entropy-balance terms of X; ``h`` is a Hamiltonian or its EigenSystem."""
    xm, hm = as_matrix(x), _hamiltonian(h, "entropy bound")
    xd = adjoint(xm)
    return EebTerms(xd @ xm, xm @ xd, xd @ commutator(hm, xm))


def eeb_deficit(h, beta: float, x, state, *, allow_degenerate: bool = False) -> float:
    """beta * omega(X*[H,X]) - omega(X*X) log(omega(X*X)/omega(X X*)).

    Nonnegative when ``state`` is the Gibbs state of ``h`` at ``beta``; a
    negative deficit witnesses a non-equilibrium state.  When omega(X*X)
    falls below ``WEIGHT_FLOOR`` the right side is taken as 0 only if
    ``allow_degenerate`` is set (the 0*log(0) convention); otherwise the
    input is rejected, as it is when omega(X X*) degenerates.  This is
    ``eeb_terms(h, x).deficit(beta, state)``: terms built once serve every beta.
    """
    return eeb_terms(h, x).deficit(beta, state, allow_degenerate=allow_degenerate)


def stability_value(h, state, a) -> float:
    """omega(A* [H, A]), real part — nonnegative for any ground state of H.
    ``h`` is a Hamiltonian or its EigenSystem."""
    am, hm = as_matrix(a), _hamiltonian(h, "stability check")
    return float(expectation(state, adjoint(am) @ commutator(hm, am)).real)
