"""State containers, Gibbs states, and the equilibrium criteria.

The three equilibrium checks all evaluate finite-volume identities exactly
(up to rounding).  ``gibbs`` and ``kms_residual`` work block by block on
the eigendecomposition of a :class:`spinmodels.spectra.EigenSystem`: pass one
built once to share it (and its last Gibbs state), or pass H to build one per
call.  Probes and H stay CSR, so products such as X* [H, X] are sparse, and
an expectation in a density matrix, Tr(A rho) = sum A_jk rho_kj, is one
gather of rho at the transposed positions of A's stored entries: O(nnz).

* boundary condition relating a state to its imaginary-time flow:
  omega(A alpha_{i beta}(B)) = omega(B A), evaluated as a residual;
* entropy-production bound: beta * omega(X* [H, X]) >= omega(X*X) *
  log(omega(X*X) / omega(X X*)), evaluated as a deficit (>= 0 when the state
  is the Gibbs state at beta);
* ground-state stability: <psi| A* [H, A] |psi> >= 0 for any ground vector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import DegenerateInputError, DimensionMismatchError, DomainError
from .spectra import RANGE_LIMIT, EigenSystem
from .spin_algebra import Operator, as_matrix, commutator, hermitian_eig

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
        if isinstance(matrix, Operator):
            matrix = matrix.toarray()
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


def gibbs(h, beta: float) -> GibbsState:
    """Gibbs state at inverse temperature beta >= 0 (dense route).

    ``h`` is a Hamiltonian or its EigenSystem, which keeps the last state
    built.  rho is built one block at a time, with weights relative to the
    smallest eigenvalue so no beta overflows, then re-symmetrized and
    re-normalized so the state invariants hold to rounding at any beta.
    """
    beta = float(beta)
    if not np.isfinite(beta) or beta < 0:
        raise DomainError(f"beta must be finite and >= 0, got {beta}")
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
    if isinstance(state, StateVector):
        psi = state.amplitudes
    elif isinstance(state, DensityMatrix):
        rho = state.matrix
        if rho.shape[0] != m.shape[0]:
            raise DimensionMismatchError(
                f"state dim {rho.shape[0]} vs operator dim {m.shape[0]}"
            )
        # Tr(A rho) = sum_jk A_jk rho_kj; for CSR A one O(nnz) gather of rho at
        # the transposed positions of A's stored entries (duplicates add)
        if not sp.issparse(m):
            return complex(np.sum(m * rho.T))
        rows = np.repeat(np.arange(m.shape[0]), np.diff(m.indptr))
        return complex(np.dot(m.data, rho[m.indices, rows]))
    else:
        arr = np.asarray(state, dtype=np.complex128)
        if arr.ndim == 1:
            psi = arr
        elif arr.ndim == 2:
            return expectation(DensityMatrix(arr, validate=False), a)
        else:
            raise DomainError(f"unsupported state with shape {arr.shape}")
    if psi.shape[0] != m.shape[0]:
        raise DimensionMismatchError(
            f"state dim {psi.shape[0]} vs operator dim {m.shape[0]}"
        )
    return complex(np.vdot(psi, m @ psi))


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
    """
    beta = float(beta)
    if not np.isfinite(beta) or beta < 0:
        raise DomainError(f"beta must be finite and >= 0, got {beta}")
    es = EigenSystem.of(h)
    a_op = a if isinstance(a, Operator) else Operator(as_matrix(a))
    b_op = b if isinstance(b, Operator) else Operator(as_matrix(b))
    for name, op in (("A", a_op), ("B", b_op)):
        if op.dim != es.dim:
            raise DimensionMismatchError(
                f"{name} dim {op.dim} vs Hamiltonian dim {es.dim}"
            )
    es.require_range(beta, range_limit)
    # flow side: omega(A alpha_{i beta}(B)) term-by-term in the eigenbasis;
    # the weight attaches to the index the flow transports it to, which is
    # what distinguishes it from omega(A B); block pair (b, c) of A meets (c, b) of B
    w0 = es.eigenvalues[0]
    at = {(b, c): x for b, c, x in es.pairs(a_op)}
    weights = [np.exp(-beta * (w - w0)) for _, w, _ in es.blocks]
    lhs = sum(complex(((at[b, c] * xb.T) @ weights[c]).sum())
              for c, b, xb in es.pairs(b_op) if (b, c) in at) / sum(map(np.sum, weights))
    # comparison side: omega(B A) in the Gibbs density matrix
    rhs = expectation(gibbs(es, beta).rho, b_op @ a_op)
    return float(abs(lhs - rhs))


def eeb_deficit(
    h,
    beta: float,
    x,
    state,
    *,
    weight_floor: float = 1e-14,
    allow_degenerate: bool = False,
) -> float:
    """beta * omega(X*[H,X]) - omega(X*X) log(omega(X*X)/omega(X X*)).

    Nonnegative when ``state`` is the Gibbs state of ``h`` at ``beta``; a
    negative deficit witnesses a non-equilibrium state.  When omega(X*X)
    falls below ``weight_floor`` the right side is taken as 0 only if
    ``allow_degenerate`` is set (the 0*log(0) convention); otherwise the
    input is rejected, as it is when omega(X X*) degenerates.
    """
    beta = float(beta)
    if not np.isfinite(beta) or beta < 0:
        raise DomainError(f"beta must be finite and >= 0, got {beta}")
    if not isinstance(state, (StateVector, DensityMatrix)):
        state = DensityMatrix(np.asarray(state)) if np.asarray(state).ndim == 2 else StateVector(state)
    x_op = x if isinstance(x, Operator) else Operator(as_matrix(x))
    h_op = h if isinstance(h, Operator) else Operator(as_matrix(h))
    if not h_op.is_hermitian():
        raise DomainError("entropy bound requires a Hermitian Hamiltonian")
    xd = x_op.adjoint()
    w1 = float(expectation(state, xd @ x_op).real)
    w2 = float(expectation(state, x_op @ xd).real)
    if w2 < weight_floor and w1 >= weight_floor:
        raise DegenerateInputError(
            f"omega(X X*) = {w2:.3e} below floor {weight_floor}; bound diverges"
        )
    if w1 < weight_floor:
        if not allow_degenerate:
            raise DegenerateInputError(
                f"omega(X*X) = {w1:.3e} below floor {weight_floor}; "
                "pass allow_degenerate=True for the 0*log(0) = 0 convention"
            )
        rhs = 0.0
    else:
        rhs = w1 * float(np.log(w1 / w2))
    lhs = beta * float(expectation(state, xd @ commutator(h_op, x_op)).real)
    return lhs - rhs


def stability_value(h, state, a) -> float:
    """omega(A* [H, A]), real part — nonnegative for any ground state of H."""
    a_op = a if isinstance(a, Operator) else Operator(as_matrix(a))
    h_op = h if isinstance(h, Operator) else Operator(as_matrix(h))
    if not h_op.is_hermitian():
        raise DomainError("stability check requires a Hermitian Hamiltonian")
    probe = a_op.adjoint() @ commutator(h_op, a_op)
    return float(expectation(state, probe).real)
