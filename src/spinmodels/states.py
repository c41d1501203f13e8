"""State containers, Gibbs states, and the equilibrium criteria.

The three equilibrium checks all evaluate finite-volume identities exactly
(up to rounding).  ``gibbs`` and ``kms_residual`` work block by block on
the eigendecomposition of a :class:`spinmodels.spectra.EigenSystem`: pass one
built once to share it (and its last Gibbs state), or pass H to build one per
call.  Probes and H stay CSR, so products such as X* [H, X] are sparse, and
an expectation in a density matrix, Tr(A rho) = sum A_jk rho_kj, is one
gather of rho at the transposed positions of A's stored entries: O(nnz).
The KMS and entropy checks split into a beta-independent step per probe
(``kms_terms``, ``eeb_terms``) and a cheap step per beta on its result.

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
from .spectra import RANGE_LIMIT, EigenSystem
from .spin_algebra import adjoint, as_matrix, commutator, hermitian_eig, is_hermitian

#: Validation tolerance for state invariants (Hermiticity, trace, positivity).
STATE_TOL = 1e-12


class StateVector:
    """A unit vector in the volume Hilbert space."""

    __slots__ = ("amplitudes",)

    def __init__(self, amplitudes, *, validate: bool = True, tol: float = STATE_TOL):
        amplitudes = np.asarray(amplitudes, dtype=np.complex128).reshape(-1)
        if validate:
            nrm = float(np.linalg.norm(amplitudes))
            if abs(nrm - 1.0) > tol:
                raise DomainError(f"state vector norm {nrm} is not 1 within {tol}")
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
    """A positive semidefinite, unit-trace Hermitian matrix."""

    __slots__ = ("matrix",)

    def __init__(self, matrix, *, validate: bool = True, tol: float = STATE_TOL):
        if sp.issparse(matrix):
            matrix = matrix.toarray()
        matrix = np.asarray(matrix, dtype=np.complex128)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise DomainError(f"density matrix must be square, got {matrix.shape}")
        self.matrix = matrix
        if validate:
            self.validate(tol=tol)

    def validate(self, tol: float = STATE_TOL) -> None:
        """Raise DomainError unless Hermitian, unit-trace, and PSD within tol."""
        m = self.matrix
        herm = float(np.max(np.abs(m - m.conj().T)))
        if herm > tol:
            raise DomainError(f"density matrix is not Hermitian ({herm:.3e})")
        tr = complex(np.trace(m))
        if abs(tr - 1.0) > max(tol, 1e-12 * m.shape[0]):
            raise DomainError(f"density matrix trace {tr} is not 1")
        w = hermitian_eig((m + m.conj().T) / 2.0, vectors=False).eigenvalues
        wmin = float(np.min(w))
        if wmin < -tol:
            raise DomainError(f"density matrix has negative eigenvalue {wmin:.3e}")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def pure(cls, psi) -> "DensityMatrix":
        if isinstance(psi, StateVector):
            psi = psi.amplitudes
        psi = np.asarray(psi, dtype=np.complex128).reshape(-1)
        nrm = float(np.linalg.norm(psi))
        if nrm == 0.0:
            raise DomainError("cannot build a pure state from the zero vector")
        psi = psi / nrm
        return cls(np.outer(psi, psi.conj()), validate=False)

    @classmethod
    def maximally_mixed(cls, dim: int) -> "DensityMatrix":
        if dim < 1:
            raise DomainError(f"dimension must be positive, got {dim}")
        return cls(np.eye(dim, dtype=np.complex128) / dim, validate=False)

    @classmethod
    def mixture(cls, vectors) -> "DensityMatrix":
        """Uniform mixture of the given (column) vectors — e.g. a ground-space
        average.  Columns are orthonormalized implicitly by the trace scale."""
        v = np.asarray(vectors, dtype=np.complex128)
        if v.ndim == 1:
            v = v[:, None]
        if v.ndim != 2 or v.shape[1] == 0:
            raise DomainError("mixture needs a nonempty dim x k column stack")
        rho = v @ v.conj().T
        tr = float(np.trace(rho).real)
        if tr <= 0:
            raise DomainError("mixture has zero trace")
        return cls(rho / tr, validate=False)


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
    built.  rho is built one block at a time, with weights relative to the
    smallest eigenvalue so no beta overflows, then re-symmetrized and
    re-normalized so the state invariants hold to rounding at any beta.
    """
    beta = _beta(beta)
    es = EigenSystem.of(h)
    if getattr(es.gibbs_memo, "beta", None) == beta:
        return es.gibbs_memo
    w0 = es.eigenvalues[0]
    s = float(np.sum(np.exp(-beta * (es.eigenvalues - w0))))
    rho = np.zeros((es.dim, es.dim), dtype=np.complex128)
    for b, (idx, w, v) in enumerate(es.blocks):
        p = np.exp(-beta * (w - w0)) / s
        if b:
            rho[np.ix_(idx, idx)] = (v * p) @ v.conj().T
        else:  # the size-1 blocks: their vectors are the identity
            rho[idx, idx] = p
    rho = (rho + rho.conj().T) / 2.0
    rho = rho / float(np.trace(rho).real)
    log_z = float(np.log(s) - beta * w0)
    es.gibbs_memo = GibbsState(rho=DensityMatrix(rho, validate=False), log_z=log_z, beta=beta)
    return es.gibbs_memo


def expectation(state, a) -> complex:
    """omega(A) for a StateVector, DensityMatrix, or raw vector/matrix state."""
    m = as_matrix(a)
    if not isinstance(state, (StateVector, DensityMatrix)):
        arr = np.asarray(state, dtype=np.complex128)
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
    if isinstance(h, EigenSystem):
        return h.h
    m = as_matrix(h)
    if not is_hermitian(m):
        raise DomainError(f"{check} requires a Hermitian Hamiltonian")
    return m


class KmsTerms(NamedTuple):
    """The beta-independent terms of :func:`kms_residual` for one pair (A, B):
    the transition vector t_k = sum_j A'_jk B'_kj (A' = V^H A V) over the
    eigen-index k in block order, the eigenvalues in that order, and BA."""

    es: EigenSystem
    flow: np.ndarray
    energies: np.ndarray
    ba: np.ndarray | sp.csr_array

    def residual(self, beta: float, *, range_limit: float = RANGE_LIMIT) -> float:
        """The residual at ``beta``: a dot product for the flow side and an
        O(nnz) gather in the Gibbs density matrix for the comparison side."""
        beta = _beta(beta)
        self.es.require_range(beta, range_limit)
        # flow side: the weight attaches to the index the flow transports B
        # to, which is what distinguishes it from omega(A B)
        p = np.exp(-beta * (self.energies - self.es.eigenvalues[0]))
        lhs = complex(self.flow @ p) / float(np.sum(p))
        # comparison side: omega(B A) in the Gibbs density matrix
        rhs = expectation(gibbs(self.es, beta).rho, self.ba)
        return float(abs(lhs - rhs))


def kms_terms(h, a, b) -> KmsTerms:
    """The KMS terms of (A, B): one ``EigenSystem.pairs`` pass over A and one
    over B; block pair (b, c) of A meets (c, b) of B, summed over j into t_k."""
    es = EigenSystem.of(h)
    am, bm = as_matrix(a), as_matrix(b)
    for name, m in (("A", am), ("B", bm)):
        if m.shape[0] != es.dim:
            raise DimensionMismatchError(f"{name} dim {m.shape[0]} vs Hamiltonian dim {es.dim}")
    at = {(b, c): x for b, c, x in es.pairs(am)}
    flow = [np.zeros(w.size, np.complex128) for _, w, _ in es.blocks]
    for c, b, xb in es.pairs(bm):
        if (b, c) in at:
            flow[c] += np.asarray((at[b, c] * xb.T).sum(axis=0)).ravel()
    energies = np.concatenate([w for _, w, _ in es.blocks])
    return KmsTerms(es, np.concatenate(flow), energies, bm @ am)


def kms_residual(h, beta: float, a, b, *, range_limit: float = RANGE_LIMIT) -> float:
    """| omega(A alpha_{i beta}(B)) - omega(B A) | in the Gibbs state at beta.

    Zero (to rounding) exactly when omega is the Gibbs state; the residual is
    the worst absolute deviation for this observable pair.  ``h`` is a
    Hamiltonian or its EigenSystem; both sides share its decomposition.

    The flow side folds the Boltzmann weight into the conjugation factors in
    the energy eigenbasis, where the growing and decaying exponentials cancel
    as scalars, so nothing of size exp(+beta * spread) is ever materialized
    and the residual stays at rounding level for any admissible beta.  The
    comparison side goes through the independent density-matrix expectation.
    This is ``kms_terms(h, a, b).residual(beta)``: terms built once serve
    every beta.
    """
    return kms_terms(h, a, b).residual(beta, range_limit=range_limit)


class EebTerms(NamedTuple):
    """The beta-independent terms of :func:`eeb_deficit` for one X: the
    products X*X, X X* and X*[H, X]."""

    xdx: np.ndarray | sp.csr_array
    xxd: np.ndarray | sp.csr_array
    xdhx: np.ndarray | sp.csr_array

    def deficit(self, beta: float, state, *, weight_floor: float = 1e-14,
                allow_degenerate: bool = False) -> float:
        """The deficit at ``beta`` in ``state``, as :func:`eeb_deficit`
        defines it: three expectations, O(nnz) each in a density matrix."""
        beta = _beta(beta)
        if not isinstance(state, (StateVector, DensityMatrix)):
            state = np.asarray(state)
            state = DensityMatrix(state) if state.ndim == 2 else StateVector(state)
        w1 = float(expectation(state, self.xdx).real)
        w2 = float(expectation(state, self.xxd).real)
        if w2 < weight_floor <= w1:
            raise DegenerateInputError(
                f"omega(X X*) = {w2:.3e} below floor {weight_floor}; bound diverges")
        if w1 < weight_floor and not allow_degenerate:
            raise DegenerateInputError(
                f"omega(X*X) = {w1:.3e} below floor {weight_floor}; "
                "pass allow_degenerate=True for the 0*log(0) = 0 convention")
        rhs = 0.0 if w1 < weight_floor else w1 * float(np.log(w1 / w2))
        return beta * float(expectation(state, self.xdhx).real) - rhs


def eeb_terms(h, x) -> EebTerms:
    """The entropy-balance terms of X; ``h`` is a Hamiltonian or its EigenSystem."""
    xm, hm = as_matrix(x), _hamiltonian(h, "entropy bound")
    xd = adjoint(xm)
    return EebTerms(xd @ xm, xm @ xd, xd @ commutator(hm, xm))


def eeb_deficit(h, beta: float, x, state, *, weight_floor: float = 1e-14,
                allow_degenerate: bool = False) -> float:
    """beta * omega(X*[H,X]) - omega(X*X) log(omega(X*X)/omega(X X*)).

    Nonnegative when ``state`` is the Gibbs state of ``h`` at ``beta``; a
    negative deficit witnesses a non-equilibrium state.  When omega(X*X)
    falls below ``weight_floor`` the right side is taken as 0 only if
    ``allow_degenerate`` is set (the 0*log(0) convention); otherwise the
    input is rejected, as it is when omega(X X*) degenerates.  This is
    ``eeb_terms(h, x).deficit(beta, state)``: terms built once serve every beta.
    """
    return eeb_terms(h, x).deficit(beta, state, weight_floor=weight_floor,
                                   allow_degenerate=allow_degenerate)


def stability_value(h, state, a) -> float:
    """omega(A* [H, A]), real part — nonnegative for any ground state of H.
    ``h`` is a Hamiltonian or its EigenSystem."""
    am, hm = as_matrix(a), _hamiltonian(h, "stability check")
    return float(expectation(state, adjoint(am) @ commutator(hm, am)).real)
