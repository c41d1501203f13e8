"""Spin-S matrices and the small matrix-algebra toolkit the rest builds on.

Conventions
-----------
For spin S the local space is C^(2S+1) with the basis ordered by decreasing
S3 eigenvalue, so S3 = diag(S, S-1, ..., -S).  The raising operator S+ has
the ladder coefficients c_m = sqrt(S(S+1) - m(m-1)) on its first
superdiagonal, ordered c_S, c_{S-1}, ..., c_{-S+1} from the top-left, and
S- = (S+)^dagger.  S1 = (S+ + S-)/2, S2 = (S+ - S-)/(2i).  For S = 1/2 the
doubled matrices 2*Si are the Pauli matrices.

Everything is complex double precision.  Structure checks (Hermiticity,
commutation relations) use STRUCTURE_TOL; iterative-solver residuals are
judged against SOLVER_TOL relative to the operator norm.

Every dense Hermitian eigensolve goes through :func:`hermitian_eig`, which
splits the matrix into the invariant blocks of its exact nonzero pattern and
solves each block in float64 when its imaginary part is exactly zero.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from .errors import DimensionMismatchError, DomainError, SolverError

#: Absolute tolerance for exact-structure checks (Hermiticity, algebra relations).
STRUCTURE_TOL = 1e-12

#: Relative tolerance for iterative eigensolver residuals.
SOLVER_TOL = 1e-10

#: Largest Hilbert-space dimension stored densely; above this, operators are CSR.
DENSE_CUTOFF = 4096


@dataclass(frozen=True)
class Spin:
    """A spin quantum number, stored as the integer 2S (S = 1/2, 1, 3/2, ...)."""

    two_s: int

    def __post_init__(self):
        if not isinstance(self.two_s, (int, np.integer)) or self.two_s < 1:
            raise DomainError(f"2S must be a positive integer, got {self.two_s!r}")

    @classmethod
    def coerce(cls, s) -> "Spin":
        """Accept a Spin instance or a half-integer value such as 0.5, 1, 1.5."""
        if isinstance(s, Spin):
            return s
        two_s = round(2.0 * float(s))
        if abs(2.0 * float(s) - two_s) > 1e-12:
            raise DomainError(f"spin must be a half-integer, got {s!r}")
        return cls(int(two_s))

    @property
    def value(self) -> float:
        """S as a float."""
        return self.two_s / 2.0

    @property
    def dim(self) -> int:
        """Local Hilbert-space dimension 2S+1."""
        return self.two_s + 1


def ladder_coefficient(s, m) -> float:
    """Matrix element of S+ between |m> and |m-1>: sqrt(S(S+1) - m(m-1)).

    Args:
        s: spin value (Spin or half-integer).
        m: S3 eigenvalue, must lie on the ladder -S <= m <= S with S - m integral.
    """
    spin = Spin.coerce(s)
    two_m = round(2.0 * float(m))
    if (
        abs(2.0 * float(m) - two_m) > 1e-12
        or (spin.two_s - two_m) % 2 != 0
        or not -spin.two_s <= two_m <= spin.two_s
    ):
        raise DomainError(f"m={m!r} is not a valid projection for spin {spin.value}")
    sv = spin.value
    mv = two_m / 2.0
    return math.sqrt(sv * (sv + 1.0) - mv * (mv - 1.0))


@dataclass(frozen=True)
class SpinOperators:
    """The spin matrices for one site: S1, S2, S3, raising/lowering, identity."""

    spin: Spin
    s1: np.ndarray
    s2: np.ndarray
    s3: np.ndarray
    sp: np.ndarray
    sm: np.ndarray
    identity: np.ndarray

    @property
    def dim(self) -> int:
        return self.spin.dim

    def vector(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(S1, S2, S3), handy for dot products."""
        return (self.s1, self.s2, self.s3)

    def casimir(self) -> np.ndarray:
        """S.S = S1^2 + S2^2 + S3^2 (equals S(S+1) times the identity)."""
        return self.s1 @ self.s1 + self.s2 @ self.s2 + self.s3 @ self.s3


def spin_matrices(s) -> SpinOperators:
    """Build the standard spin matrices for spin value ``s``.

    The basis is ordered by decreasing S3 eigenvalue (all-up first), so
    S3 = diag(S, ..., -S) and S+ carries c_S, ..., c_{-S+1} on the
    superdiagonal.
    """
    spin = Spin.coerce(s)
    n = spin.dim
    proj = spin.value - np.arange(n)  # S, S-1, ..., -S
    s3 = np.diag(proj).astype(np.complex128)
    sp_ = np.zeros((n, n), dtype=np.complex128)
    for i in range(n - 1):
        sp_[i, i + 1] = ladder_coefficient(spin, proj[i])
    sm = sp_.conj().T
    s1 = (sp_ + sm) / 2.0
    s2 = (sp_ - sm) / 2.0j
    return SpinOperators(
        spin=spin,
        s1=s1,
        s2=s2,
        s3=s3,
        sp=sp_,
        sm=sm,
        identity=np.eye(n, dtype=np.complex128),
    )


def pauli_matrices() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(sigma1, sigma2, sigma3) = twice the spin-1/2 matrices."""
    ops = spin_matrices(Spin(1))
    return (2.0 * ops.s1, 2.0 * ops.s2, 2.0 * ops.s3)


# ---------------------------------------------------------------------------
# Operator container
# ---------------------------------------------------------------------------


def _unwrap(a):
    """Raw matrix (ndarray or scipy sparse) behind ``a``."""
    if isinstance(a, Operator):
        return a.data
    return a


def as_matrix(a):
    """Coerce an Operator / ndarray / sparse matrix to ndarray or CSR."""
    m = _unwrap(a)
    if sp.issparse(m):
        return sp.csr_array(m)
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DomainError(f"expected a square matrix, got shape {m.shape}")
    return m


class Operator:
    """A complex square matrix on a finite Hilbert space, dense or sparse.

    Dense operators are plain complex128 ndarrays; sparse ones are CSR.
    Instances are treated as immutable once constructed.  A cached
    Hermiticity flag can be supplied by builders that know it.
    """

    __slots__ = ("_data", "_hermitian")

    def __init__(self, data, hermitian: bool | None = None):
        if isinstance(data, Operator):
            self._data = data._data
            self._hermitian = data._hermitian if hermitian is None else hermitian
            return
        if sp.issparse(data):
            data = sp.csr_array(data).astype(np.complex128)
        else:
            data = np.asarray(data, dtype=np.complex128)
            if data.ndim != 2:
                raise DomainError("operator data must be a 2-d matrix")
        if data.shape[0] != data.shape[1]:
            raise DomainError(f"operator must be square, got shape {data.shape}")
        self._data = data
        self._hermitian = hermitian

    # -- structure ---------------------------------------------------------

    @property
    def data(self):
        """The raw ndarray or CSR matrix (read-only by convention)."""
        return self._data

    @property
    def dim(self) -> int:
        return self._data.shape[0]

    @property
    def is_sparse(self) -> bool:
        return sp.issparse(self._data)

    def toarray(self) -> np.ndarray:
        """Dense ndarray view/copy of the operator."""
        if self.is_sparse:
            return self._data.toarray()
        return self._data

    def tocsr(self):
        """CSR form of the operator."""
        if self.is_sparse:
            return self._data
        return sp.csr_array(self._data)

    def adjoint(self) -> "Operator":
        return Operator(self._data.conj().T, hermitian=self._hermitian)

    def trace(self) -> complex:
        return complex(self._data.trace())

    def is_hermitian(self, tol: float = STRUCTURE_TOL) -> bool:
        """Whether ||A - A^dagger||_max <= tol (cached after first call)."""
        if self._hermitian is None:
            d = self._data - self._data.conj().T
            if sp.issparse(d):
                dev = 0.0 if d.nnz == 0 else float(np.max(np.abs(d.data)))
            else:
                dev = float(np.max(np.abs(d))) if d.size else 0.0
            self._hermitian = dev <= tol
        return self._hermitian

    def norm(self) -> float:
        """Operator (spectral) norm."""
        return operator_norm(self)

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        a, b = _binary_operands(self, other)
        return Operator(a + b)

    __radd__ = __add__

    def __sub__(self, other):
        a, b = _binary_operands(self, other)
        return Operator(a - b)

    def __rsub__(self, other):
        a, b = _binary_operands(self, other)
        return Operator(b - a)

    def __neg__(self):
        return Operator(-self._data, hermitian=self._hermitian)

    def __mul__(self, scalar):
        if not isinstance(scalar, numbers.Number):
            return NotImplemented
        return Operator(self._data * complex(scalar))

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        if not isinstance(scalar, numbers.Number):
            return NotImplemented
        return Operator(self._data / complex(scalar))

    def __matmul__(self, other):
        b = _unwrap(other)
        if isinstance(b, np.ndarray) and b.ndim == 1:
            if b.shape[0] != self.dim:
                raise DimensionMismatchError(
                    f"operator dim {self.dim} vs vector dim {b.shape[0]}"
                )
            return self._data @ b
        a, b = _binary_operands(self, other)
        return Operator(a @ b)

    def __rmatmul__(self, other):
        a, b = _binary_operands(self, other)
        return Operator(b @ a)

    def __repr__(self):
        kind = "sparse" if self.is_sparse else "dense"
        return f"Operator(dim={self.dim}, {kind})"


def _binary_operands(a, b):
    """Unwrap two operands to a compatible (both-sparse or both-dense) pair."""
    ma, mb = _unwrap(a), _unwrap(b)
    if not (sp.issparse(ma) or isinstance(ma, np.ndarray)):
        ma = np.asarray(ma, dtype=np.complex128)
    if not (sp.issparse(mb) or isinstance(mb, np.ndarray)):
        mb = np.asarray(mb, dtype=np.complex128)
    if mb.ndim != 2 or ma.shape != mb.shape:
        raise DimensionMismatchError(f"operand shapes differ: {ma.shape} vs {mb.shape}")
    a_sp, b_sp = sp.issparse(ma), sp.issparse(mb)
    if a_sp and not b_sp:
        ma = ma.toarray()
    elif b_sp and not a_sp:
        mb = mb.toarray()
    return ma, mb


def adjoint(a):
    """Conjugate transpose, preserving the container type of ``a``."""
    if isinstance(a, Operator):
        return a.adjoint()
    m = as_matrix(a)
    return m.conj().T


def is_hermitian(a, tol: float = STRUCTURE_TOL) -> bool:
    """Whether ||A - A^dagger||_max <= tol."""
    if isinstance(a, Operator):
        return a.is_hermitian(tol)
    m = as_matrix(a)
    d = m - m.conj().T
    if sp.issparse(d):
        return d.nnz == 0 or float(np.max(np.abs(d.data))) <= tol
    return d.size == 0 or float(np.max(np.abs(d))) <= tol


def commutator(a, b):
    """[A, B] = AB - BA.

    Returns an Operator if either input is one, otherwise the raw matrix type
    of the inputs.
    """
    ma, mb = _binary_operands(a, b)
    c = ma @ mb - mb @ ma
    return Operator(c) if isinstance(a, Operator) or isinstance(b, Operator) else c


def anticommutator(a, b):
    """{A, B} = AB + BA, same container conventions as commutator."""
    ma, mb = _binary_operands(a, b)
    c = ma @ mb + mb @ ma
    return Operator(c) if isinstance(a, Operator) or isinstance(b, Operator) else c


class HermitianEig(NamedTuple):
    """Eigenvalues (ascending), eigenvectors as columns (None when not asked
    for), and the sizes of the invariant blocks they were solved in."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray | None
    block_sizes: list[int]


def _pattern_blocks(m) -> np.ndarray:
    """Block label of each basis index: the connected components of the
    undirected graph of the exact nonzero pattern of ``m``."""
    pattern = m != 0
    if not sp.issparse(pattern):
        if pattern.all():  # no zero entry: one block, no graph search needed
            return np.zeros(m.shape[0], dtype=np.intp)
        pattern = sp.csr_array(pattern)
    return connected_components(pattern, directed=False)[1]


def hermitian_eig(m, vectors: bool = True) -> HermitianEig:
    """Eigendecomposition of a Hermitian ndarray or CSR matrix, block by block.

    The blocks are the connected components of the exact nonzero pattern
    (read as an undirected graph), so each is an invariant subspace spanned by
    basis vectors and no tolerance decides them: a coupling of any size, noise
    included, joins two blocks.  Each block of size > 1 is one LAPACK call, in
    float64 when its imaginary part is exactly zero; size-1 blocks are their
    diagonal entries, read in one step.  Eigenvalues are merged by a stable
    ascending sort.  Eigenvectors, when ``vectors``, are scattered into one
    dense dim x dim array whose columns follow that order; it is float64 iff
    every block was real, and its entries outside a column's block are exact
    zeros.  ``block_sizes`` lists the blocks in the order of their first basis
    index.  Like LAPACK, only the lower triangle of each block is read.
    """
    m = as_matrix(m)
    n = m.shape[0]
    labels = _pattern_blocks(m)
    sizes = np.bincount(labels)
    members = np.argsort(labels, kind="stable")
    starts = np.concatenate(([0], np.cumsum(sizes)))

    singles = np.flatnonzero(sizes[labels] == 1)
    values = [m.diagonal()[singles].real]
    solved = []  # (basis indices, eigenvectors) of each block of size > 1
    for b in np.flatnonzero(sizes > 1):
        idx = members[starts[b]:starts[b + 1]]
        block = m[idx][:, idx].toarray() if sp.issparse(m) else m[np.ix_(idx, idx)]
        if np.iscomplexobj(block) and not block.imag.any():
            block = block.real
        if vectors:
            w, v = np.linalg.eigh(block)
            solved.append((idx, v))
        else:
            w = np.linalg.eigvalsh(block)
        values.append(w)
    w = np.concatenate(values)
    order = np.argsort(w, kind="stable")
    if not vectors:
        return HermitianEig(w[order], None, sizes.tolist())

    column = np.empty(n, dtype=np.intp)
    column[order] = np.arange(n)
    real = all(v.dtype.kind == "f" for _, v in solved)
    out = np.zeros((n, n), dtype=np.float64 if real else np.complex128)
    out[singles, column[:singles.size]] = 1.0
    offset = singles.size
    for idx, v in solved:
        out[np.ix_(idx, column[offset:offset + idx.size])] = v
        offset += idx.size
    return HermitianEig(w[order], out, sizes.tolist())


_NORM_SEED = 0x5EED


def operator_norm(a) -> float:
    """Spectral norm ||A|| (largest singular value).

    Dense matrices use exact LAPACK routes: eigvalsh for (anti-)Hermitian
    input, full SVD otherwise.  Large sparse matrices use a deterministic
    Lanczos/ARPACK estimate of the dominant singular value.
    """
    m = _unwrap(a)
    if sp.issparse(m):
        if m.shape[0] <= DENSE_CUTOFF:
            m = m.toarray()
        else:
            return _sparse_norm(sp.csr_array(m))
    else:
        m = np.asarray(m, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DomainError(f"expected a square matrix, got shape {m.shape}")
    if m.size == 0:
        return 0.0
    herm_dev = float(np.max(np.abs(m - m.conj().T)))
    if herm_dev <= STRUCTURE_TOL:
        return float(np.max(np.abs(hermitian_eig(m, vectors=False).eigenvalues)))
    anti_dev = float(np.max(np.abs(m + m.conj().T)))
    if anti_dev <= STRUCTURE_TOL:
        # i*A is Hermitian when A is anti-Hermitian; same norm, cheaper than SVD.
        return float(np.max(np.abs(hermitian_eig(1j * m, vectors=False).eigenvalues)))
    return float(np.linalg.svd(m, compute_uv=False)[0])


def _sparse_norm(m) -> float:
    import scipy.sparse.linalg as spla

    n = m.shape[0]
    rng = np.random.default_rng(_NORM_SEED)
    v0 = rng.standard_normal(n)
    d = m - m.conj().T
    herm = d.nnz == 0 or float(np.max(np.abs(d.data))) <= STRUCTURE_TOL
    try:
        if herm:
            vals = spla.eigsh(m, k=1, which="LM", v0=v0, return_eigenvectors=False)
            return float(np.max(np.abs(vals)))
        vals = spla.svds(m, k=1, v0=v0, return_singular_vectors=False)
        return float(np.max(vals))
    except spla.ArpackNoConvergence as exc:  # pragma: no cover - rare
        raise SolverError(f"norm estimate did not converge: {exc}") from exc
