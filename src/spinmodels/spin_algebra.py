"""Spin-S matrices and the small matrix-algebra toolkit the rest builds on.

Conventions
-----------
For spin S the local space is C^(2S+1) with the basis ordered by decreasing
S3 eigenvalue, so S3 = diag(S, S-1, ..., -S).  The raising operator S+ has
the ladder coefficients c_m = sqrt(S(S+1) - m(m-1)) on its first
superdiagonal, ordered c_S, c_{S-1}, ..., c_{-S+1} from the top-left, and
S- = (S+)^dagger.  S1 = (S+ + S-)/2, S2 = (S+ - S-)/(2i).  For S = 1/2 the
doubled matrices 2*Si are the Pauli matrices.

Operators are plain matrices: ndarrays, or CSR arrays for everything built
from local terms.  The builders (spin matrices, embeddings, Hamiltonians,
generators, probes) produce complex128; every other routine keeps the dtype
it is given.  Structure checks (Hermiticity, commutation relations) use
STRUCTURE_TOL; iterative-solver residuals are judged against SOLVER_TOL
relative to the operator norm.

Every dense Hermitian eigensolve goes through :func:`hermitian_eig`, which
splits the matrix into the invariant blocks of its exact nonzero pattern and
solves each block in float64 when its imaginary part is exactly zero
(:func:`exact_real`, the one rule every solver uses to choose float64).
"""

from __future__ import annotations

import math
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

#: Largest Hilbert-space dimension diagonalized densely (the default of
#: ``--cap-dense``).  It also switches ``operator_norm`` of a sparse matrix and
#: ``evolve_state`` to their iterative routes above it; storage never depends
#: on it: operators built from local terms are CSR at every size.
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
# Matrices: ndarray or CSR
# ---------------------------------------------------------------------------


def as_matrix(a):
    """``a`` as an ndarray or, when sparse, a CSR array; DomainError unless
    it is a square matrix.  The dtype is kept."""
    m = sp.csr_array(a) if sp.issparse(a) else np.asarray(a)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DomainError(f"expected a square matrix, got shape {m.shape}")
    return m


def _operands(a, b):
    """``a`` and ``b`` as matrices of equal shape.  A mixed (ndarray, CSR)
    pair is kept as it is: scipy's products of such a pair are ndarrays
    computed at the cost of the sparse side."""
    ma, mb = as_matrix(a), as_matrix(b)
    if ma.shape != mb.shape:
        raise DimensionMismatchError(f"operand shapes differ: {ma.shape} vs {mb.shape}")
    return ma, mb


def adjoint(a):
    """Conjugate transpose, as an ndarray or CSR like ``a``."""
    return as_matrix(as_matrix(a).conj().T)


def is_hermitian(a, tol: float = STRUCTURE_TOL) -> bool:
    """Whether ||A - A^dagger||_max <= tol."""
    m = as_matrix(a)
    return m.shape[0] == 0 or float(abs(m - m.conj().T).max()) <= tol


def exact_real(m):
    """``m.real`` when the imaginary part of ndarray or sparse ``m`` is exactly
    zero, else ``m`` itself: the one rule by which a solver runs in float64."""
    if not np.iscomplexobj(m) or (m.data if sp.issparse(m) else m).imag.any():
        return m
    return m.real


def commutator(a, b):
    """[A, B] = AB - BA, as the ndarray or CSR matrix that the product gives."""
    ma, mb = _operands(a, b)
    return ma @ mb - mb @ ma


def anticommutator(a, b):
    """{A, B} = AB + BA, stored as :func:`commutator` stores [A, B]."""
    ma, mb = _operands(a, b)
    return ma @ mb + mb @ ma


class HermitianEig(NamedTuple):
    """Eigenvalues (ascending), the blocks (None when eigenvectors were not
    asked for) as (basis indices, eigenvalues, eigenvectors): all size-1
    blocks together with an identity, then each larger block; their sizes."""

    eigenvalues: np.ndarray
    blocks: list[tuple] | None
    block_sizes: list[int]


def _pattern_blocks(m) -> np.ndarray:
    """Block label of each basis index: the connected components of the
    undirected graph of the exact nonzero pattern of ``m``."""
    pattern = m != 0
    if not sp.issparse(pattern):
        # a row with no zero joins every index: one block, no graph search
        if m.shape[0] == 0 or pattern.all(axis=1).any():
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
    ascending sort.  The eigenvectors stay per block (see
    :class:`HermitianEig`); :func:`eigenvector_columns` scatters them.
    ``block_sizes`` lists the blocks in the order of their first basis index.
    Like LAPACK, only the lower triangle of each block is read.
    """
    m = as_matrix(m)
    labels = _pattern_blocks(m)
    sizes = np.bincount(labels)
    members = np.argsort(labels, kind="stable")
    starts = np.concatenate(([0], np.cumsum(sizes)))

    singles = np.flatnonzero(sizes[labels] == 1)
    eye = sp.eye_array(singles.size, format="csr") if singles.size else np.eye(0)
    blocks = [(singles, m.diagonal()[singles].real, eye)]
    # a CSR matrix is permuted into block order once; its blocks are then slices
    p = m[members][:, members] if sp.issparse(m) else None
    for b in np.flatnonzero(sizes > 1):
        s, e = starts[b], starts[b + 1]
        idx = members[s:e]
        block = exact_real(m[np.ix_(idx, idx)] if p is None else p[s:e, s:e].toarray())
        blocks.append((idx, *np.linalg.eigh(block)) if vectors
                      else (idx, np.linalg.eigvalsh(block), None))
    w = np.sort(np.concatenate([w for _, w, _ in blocks]), kind="stable")
    return HermitianEig(w, blocks if vectors else None, sizes.tolist())


def eigenvector_columns(eig, columns=slice(None)) -> np.ndarray:
    """The eigenvectors of ``eig`` (a HermitianEig or an EigenSystem) with
    ascending indices ``columns`` (default all) as dense columns, scattered
    from the blocks: entries outside a column's block are exact zeros."""
    position = np.argsort(np.concatenate([w for _, w, _ in eig.blocks]), kind="stable")[columns]
    dtype = np.result_type(*(v.dtype for _, _, v in eig.blocks))
    out = np.zeros((eig.eigenvalues.size, position.size), dtype)
    start = 0
    for idx, _, v in eig.blocks:
        sel = np.flatnonzero((position >= start) & (position < start + idx.size))
        if sel.size:
            part = v[:, position[sel] - start]
            out[np.ix_(idx, sel)] = part.toarray() if sp.issparse(part) else part
        start += idx.size
    return out


_NORM_SEED = 0x5EED


def operator_norm(a) -> float:
    """Spectral norm ||A|| (largest singular value).

    (Anti-)Hermitian input takes the largest |eigenvalue| from
    :func:`hermitian_eig`, which solves a CSR matrix block by block; other
    input takes a full SVD of the densified matrix.  Sparse matrices above
    DENSE_CUTOFF use a deterministic Lanczos/ARPACK estimate of the dominant
    singular value instead.
    """
    m = as_matrix(a)
    if sp.issparse(m) and m.shape[0] > DENSE_CUTOFF:
        return _sparse_norm(m)
    if m.shape[0] == 0:
        return 0.0
    # i*A is Hermitian when A is anti-Hermitian; same norm, cheaper than SVD
    h = m if is_hermitian(m) else 1j * m
    if h is m or is_hermitian(h):
        return float(np.max(np.abs(hermitian_eig(h, vectors=False).eigenvalues)))
    dense = m.toarray() if sp.issparse(m) else m
    return float(np.linalg.svd(dense, compute_uv=False)[0])


def _sparse_norm(m) -> float:
    import scipy.sparse.linalg as spla

    n = m.shape[0]
    rng = np.random.default_rng(_NORM_SEED)
    v0 = rng.standard_normal(n)
    try:
        if is_hermitian(m):
            vals = spla.eigsh(m, k=1, which="LM", v0=v0, return_eigenvectors=False)
            return float(np.max(np.abs(vals)))
        vals = spla.svds(m, k=1, v0=v0, return_singular_vectors=False)
        return float(np.max(vals))
    except spla.ArpackNoConvergence as exc:  # pragma: no cover - rare
        raise SolverError(f"norm estimate did not converge: {exc}") from exc
