"""State containers, Gibbs states, the equilibrium criteria, and equal-time
correlations.

The three equilibrium checks all evaluate finite-volume identities exactly
(up to rounding).  ``gibbs`` and ``kms_residual`` work block by block on
the eigendecomposition of a :class:`spinmodels.spectra.EigenSystem`: pass one
built once to share it (and its last Gibbs state), or pass H to build one per
call.  Probes and H stay CSR, so products such as X* [H, X] are sparse.

Two containers hold every state, neither of them a dim x dim array.  A
Gibbs state (and ``maximally_mixed``) is a :class:`BlockDensity`:
rho_b = V_b diag(p_b) V_b^H per block of the EigenSystem's plan, the size-1
blocks as their weights, Sigma d_b^2 entries in all (20.6 MiB rather than
128 MiB for the xxz_suq2 chain at L=12).  An expectation in it,
Tr(A rho) = sum A_jk rho_kj, is one gather of rho at the transposed positions
of A's stored entries inside one block: O(nnz).  Every other state is a
:class:`Mixture` of vectors and weights, so omega(A) and the stability value
cost matvecs: a ``pure`` state, the ``mixture`` of a ground multiplet, or a
caller's rho through ``density_matrix``, which checks it and keeps its
eigenpairs.  Each state keeps its data's dtype, at least float64: for a
real H the Gibbs state and the ground-state mixture are float64.
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
* ground-state stability: <psi| A* [H, A] |psi> >= 0 for any ground vector,
  on matvecs in a Mixture.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from .errors import DegenerateInputError, DimensionMismatchError, DomainError
from .lattice import Volume, embed
from .spectra import EigenSystem
from .spin_algebra import (_BlockPlan, _dense, _hermitian, _operands, adjoint, as_matrix,
                           commutator, eigenvector_columns, hermitian_eig, spin_matrices)

#: Tolerance for a density matrix's trace and positivity, and the weight
#: below which ``density_matrix`` drops an eigenpair.
STATE_TOL = 1e-12

#: Entropy-balance weights omega(X*X), omega(X X*) below this are degenerate.
WEIGHT_FLOOR = 1e-14


@dataclass
class Mixture:
    """The state sum_i w_i |v_i><v_i|, kept as the dim x k column stack
    ``vectors`` (at least float64, real if real) and the ``weights``, so
    omega(A) = sum_i w_i <v_i, A v_i> costs k matvecs with A."""

    vectors: np.ndarray
    weights: np.ndarray

    @property
    def dim(self) -> int:
        return self.vectors.shape[0]

    def _sum(self, x, y) -> complex:
        """sum_i w_i <x_i, y_i> over the columns of x and y."""
        return complex(self.weights @ np.einsum("ij,ij->j", x.conj(), y))


class BlockDensity:
    """A density matrix that vanishes outside the invariant blocks of a
    :class:`~spinmodels.spin_algebra._BlockPlan`, kept per block in the flat
    array ``data``: block 0's size-1 blocks as their weights, then each
    rho_b row-major, Sigma d_b^2 entries in all, not dim^2.  Entry rho_kj of
    one block sits at ``data[_row[k] + _col[j]]``."""

    __slots__ = ("plan", "data", "_row", "_col")

    def __init__(self, plan, data: np.ndarray):
        sizes, n0 = np.diff(plan.starts), plan.starts[1]
        # in block order: each index's place in its block, and where its row starts
        col = np.arange(plan.labels.size) - np.repeat(plan.starts[:-1], sizes)
        first = np.cumsum(np.concatenate(([0, n0], sizes[1:] ** 2)))[:-1]  # each block's start
        row = np.repeat(first, sizes) + col * np.repeat(sizes, sizes)
        row[:n0], col[:n0] = np.arange(n0), 0  # block 0: a 1 x 1 block per index
        self.plan, self.data = plan, data
        self._row, self._col = np.empty_like(row), np.empty_like(col)
        self._row[plan.members], self._col[plan.members] = row, col

    @property
    def dim(self) -> int:
        return self.plan.labels.size

    @property
    def blocks(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """(basis indices, rho_b) per block of the plan, views of ``data``:
        block 0 its weights (1-D), each larger block a d_b x d_b matrix."""
        s, idx = self.plan.starts, self.plan.members
        out, at = [(idx[:s[1]], self.data[:s[1]])], s[1]
        for b in range(1, s.size - 1):
            d = s[b + 1] - s[b]
            out.append((idx[s[b]:s[b + 1]], self.data[at:at + d * d].reshape(d, d)))
            at += d * d
        return out


def pure(psi) -> Mixture:
    """|psi><psi| / <psi|psi>, the ``mixture`` of one column, in psi's dtype
    (at least float64, real if real)."""
    return mixture(np.reshape(psi, -1))


def mixture(vectors) -> Mixture:
    """Uniform mixture of the given (column) vectors — e.g. a ground-space
    average.  The columns must be orthonormal, as a ground basis is: the
    state is V V^H divided by its trace, kept as V and that weight, with
    no orthonormalization."""
    v = _dense(vectors)
    if v.ndim == 1:
        v = v[:, None]
    if v.ndim != 2 or v.shape[1] == 0:
        raise DomainError("mixture needs a nonempty dim x k column stack")
    tr = float(np.vdot(v, v).real)
    if tr <= 0:
        raise DomainError("mixture has zero trace")
    return Mixture(v, np.full(v.shape[1], 1.0 / tr))


def maximally_mixed(dim: int) -> BlockDensity:
    """I / dim, kept as the weights of dim size-1 blocks."""
    if dim < 1:
        raise DomainError(f"dimension must be positive, got {dim}")
    n = np.arange(dim)
    plan = _BlockPlan(n, n, np.array([0, dim]), False, np.zeros(1, np.intp))
    return BlockDensity(plan, np.full(dim, 1.0 / dim))


def density_matrix(matrix) -> Mixture:
    """A caller's rho as the Mixture of its eigenpairs of weight above
    ``STATE_TOL``.  DomainError unless rho is Hermitian (to
    ``STRUCTURE_TOL``, as every input is), and unit-trace and PSD within
    ``STATE_TOL``."""
    m = _dense(_hermitian(matrix, "density matrix"))
    tr = complex(np.trace(m))
    if abs(tr - 1.0) > max(STATE_TOL, 1e-12 * m.shape[0]):
        raise DomainError(f"density matrix trace {tr} is not 1")
    eig = hermitian_eig((m + m.conj().T) / 2.0)
    w = eig.eigenvalues
    if w[0] < -STATE_TOL:
        raise DomainError(f"density matrix has negative eigenvalue {w[0]:.3e}")
    keep = np.flatnonzero(w > STATE_TOL)
    return Mixture(eigenvector_columns(eig, keep), w[keep])


def _state(state):
    """A Mixture or BlockDensity as given, or a raw vector as ``pure(state)``."""
    if isinstance(state, (Mixture, BlockDensity)):
        return state
    arr = np.asarray(state)
    if arr.ndim != 1:
        raise DomainError(f"a raw state must be a vector, got shape {arr.shape}; "
                          "pass a dim x dim rho through density_matrix")
    return pure(arr)


@dataclass
class GibbsState:
    """exp(-beta H)/Z together with log Z (Z itself may overflow; log Z never)."""

    rho: BlockDensity
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
    """Gibbs state at inverse temperature beta >= 0, kept per block.

    ``h`` is a Hamiltonian or its EigenSystem, which keeps the last state
    built and drops it before building another.  rho is a
    :class:`BlockDensity` on the EigenSystem's plan: rho_b = V_b diag(p_b)
    V_b^H in the blocks' common dtype (float64 for a real H), and the size-1
    blocks their weights p, relative to the smallest eigenvalue so no beta
    overflows.  Each block is re-symmetrized, and rho re-normalized in place
    by its trace, summed in basis order.  A block that the spin flip maps
    onto an earlier one (see ``_BlockPlan.mirrored``) copies that rho_b with
    rows and columns reversed.
    """
    beta = _beta(beta)
    es = EigenSystem.of(h)
    if getattr(es.gibbs_memo, "beta", None) == beta:
        return es.gibbs_memo
    es.gibbs_memo = None
    w0 = es.eigenvalues[0]
    s = float(np.sum(np.exp(-beta * (es.eigenvalues - w0))))
    sizes = np.diff(es.plan.starts)
    data = np.empty(int(sizes[0] + np.sum(sizes[1:] ** 2)),
                    np.result_type(*(v.dtype for _, _, v in es.blocks)))
    rho, diagonal = BlockDensity(es.plan, data), np.empty(es.dim, data.dtype)
    parts = rho.blocks
    for b, ((idx, w, v), (_, r)) in enumerate(zip(es.blocks, parts)):
        p = np.exp(-beta * (w - w0)) / s
        if r.ndim == 1:  # the size-1 blocks: their vectors are the identity, p is real
            r[:] = diagonal[idx] = p
            continue
        if es.plan.mirror[b] < b:  # V_b is its mirror's V, rows reversed: so is rho_b
            r[:] = parts[es.plan.mirror[b]][1][::-1, ::-1]
        else:
            block = (v * p) @ v.conj().T
            r[:] = (block + block.conj().T) / 2.0
        diagonal[idx] = r.diagonal()
    data /= float(np.sum(diagonal).real)
    log_z = float(np.log(s) - beta * w0)
    es.gibbs_memo = GibbsState(rho=rho, log_z=log_z, beta=beta)
    return es.gibbs_memo


def expectation(state, a) -> complex:
    """omega(A) for a Mixture, a BlockDensity, or a raw vector (``pure``).

    In a Mixture, k matvecs with A.  In a BlockDensity, Tr(A rho) =
    sum_jk A_jk rho_kj, one O(nnz) gather of rho at the transposed positions
    of A's stored entries inside one block (duplicates add), the others
    reading 0."""
    m, state = as_matrix(a), _state(state)
    if state.dim != m.shape[0]:
        raise DimensionMismatchError(f"state dim {state.dim} vs operator dim {m.shape[0]}")
    if isinstance(state, Mixture):
        return state._sum(state.vectors, m @ state.vectors)
    m = m if sp.issparse(m) else sp.csr_array(m)  # a dense A: its nonzero entries
    rows = np.repeat(np.arange(m.shape[0]), np.diff(m.indptr))
    label = state.plan.labels
    inside = np.flatnonzero(label[rows] == label[m.indices])
    at = state._row[m.indices[inside]] + state._col[rows[inside]]
    return complex(np.dot(m.data[inside], state.data[at]))


_TWO_POINT_KINDS = ("sdots", "s3s3")


def two_point(state, x, y, volume: Volume, kind: str = "sdots") -> float:
    """<S_x . S_y> ("sdots") or <S3_x S3_y> ("s3s3") in ``state``.

    ``state`` is any state :func:`expectation` reads: a Mixture, a
    BlockDensity, or a plain vector (``pure``).
    x == y is allowed (on-site moment).  The value is the real part; for
    Hermitian observables the imaginary part is zero to rounding.
    """
    if kind not in _TWO_POINT_KINDS:
        raise DomainError(f"kind must be one of {_TWO_POINT_KINDS}, got {kind!r}")
    x = tuple(int(c) for c in np.atleast_1d(x).tolist())
    y = tuple(int(c) for c in np.atleast_1d(y).tolist())
    ops = spin_matrices((volume.local_dim - 1) / 2.0)
    if x == y:
        if kind == "sdots":
            local = ops.casimir()
        else:
            local = ops.s3 @ ops.s3
        op = embed(local, [x], volume)
    else:
        if kind == "sdots":
            local = ops.exchange()
        else:
            local = np.kron(ops.s3, ops.s3)
        op = embed(local, [x, y], volume)
    return float(expectation(state, op).real)


def structure_factor(state, volume: Volume, momentum) -> float:
    """S(k) = <M(k)^dagger M(k)> / |volume|^2 with M(k) = sum_x e^{-i k.x} S3_x.

    Real and nonnegative for any valid state; 1/4 at k = (pi,...) for the
    two-sublattice alternating spin-1/2 product state, S(S+1)/(3 |volume|)
    at every k for the maximally mixed state.
    """
    momentum = np.atleast_1d(np.asarray(momentum, dtype=float))
    if momentum.shape != (volume.dimension,):
        raise DomainError(
            f"momentum needs {volume.dimension} components, got {momentum.shape}"
        )
    ops = spin_matrices((volume.local_dim - 1) / 2.0)
    total = None
    for site in volume.sites:
        phase = np.exp(-1j * float(np.dot(momentum, site)))
        part = embed(phase * ops.s3, [site], volume)
        total = part if total is None else total + part
    num = expectation(state, adjoint(total) @ total).real
    return float(num) / volume.num_sites**2



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
        beta, state = _beta(beta), _state(state)
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
    ``h`` is a Hamiltonian or its EigenSystem; ``state`` a Mixture of ground
    vectors (``pure``, ``mixture``), anything else a DomainError.

    On matvecs: sum_i w_i (<A psi_i, H A psi_i> - <A psi_i, A H psi_i>),
    with H psi_i computed, not replaced by E0 psi_i; no adjoint, commutator
    or operator product is formed."""
    hm = _hamiltonian(h, "stability check")
    am, hm = _operands(a, hm)
    if not isinstance(state, Mixture):
        raise DomainError("the stability value takes a Mixture of ground vectors, "
                          f"got {type(state).__name__}")
    if state.dim != am.shape[0]:
        raise DimensionMismatchError(f"state dim {state.dim} vs operator dim {am.shape[0]}")
    v = state.vectors
    x = am @ v
    return state._sum(x, hm @ x - am @ (hm @ v)).real
