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
from local terms.  Every routine keeps its input's dtype, the builders at
least float64: S1, S3, S+-, S.S and every built-in Hamiltonian are real, and
S2 and the random probes complex128.  Structure checks (Hermiticity,
commutation relations) use STRUCTURE_TOL, with no tolerance argument, and
every routine that needs a Hermitian input refuses others by one check that
names the input; iterative solver residuals are judged against SOLVER_TOL
relative to the operator norm.

Every dense eigensolve of an operator (Lanczos and diagonal light-cone scans
solve their small matrices directly) goes through :func:`hermitian_eig`,
which splits the matrix, read as CSR, into the invariant blocks of its
exact nonzero pattern, found by a numpy min-label search (Shiloach and
Vishkin, 1982), and solves each block in float64 when it is real or its
imaginary part is exactly zero (:func:`exact_real`).  In the decreasing-S3
basis, flipping every site's m -> -m is the index reversal i -> n-1-i for
every local dimension, so a matrix that equals its reversal exactly is
flip-symmetric with no lattice data: its +-m blocks are solved once per
pair, and a block that is its own mirror as two halves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from .errors import DimensionMismatchError, DomainError, SolverError

#: Absolute tolerance for exact-structure checks (Hermiticity, algebra relations).
STRUCTURE_TOL = 1e-12

#: Relative tolerance for iterative eigensolver residuals.
SOLVER_TOL = 1e-10

#: Largest Hilbert-space dimension diagonalized densely: the default of
#: ``--cap-dense`` and of every ``cap_dense`` argument, which also decides
#: where ``operator_norm`` switches to ARPACK; an EigenSystem carries its
#: own cap.  Storage never depends on it: operators built from local terms
#: are CSR at every size.
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
        """S.S = S3^2 + (S+ S- + S- S+)/2 (equals S(S+1) times the identity), real."""
        return self.s3 @ self.s3 + (self.sp @ self.sm + self.sm @ self.sp) / 2.0

    def exchange(self) -> np.ndarray:
        """The two-site S.S = S3 (x) S3 + (S+ (x) S- + S- (x) S+)/2, real."""
        flip_flop = np.kron(self.sp, self.sm) + np.kron(self.sm, self.sp)
        return np.kron(self.s3, self.s3) + flip_flop / 2.0


def spin_matrices(s) -> SpinOperators:
    """Build the standard spin matrices for spin value ``s``.

    The basis is ordered by decreasing S3 eigenvalue (all-up first), so
    S3 = diag(S, ..., -S) and S+ carries c_S, ..., c_{-S+1} on the
    superdiagonal.  S2 is complex128; the others are real, float64.
    """
    spin = Spin.coerce(s)
    proj = spin.value - np.arange(spin.dim)  # S, S-1, ..., -S
    up = np.diag(np.sqrt(spin.value * (spin.value + 1.0) - proj[:-1] * (proj[:-1] - 1.0)), 1)
    down = up.T.copy()
    return SpinOperators(spin=spin, s1=(up + down) / 2.0, s2=(up - down) / 2.0j, s3=np.diag(proj),
                         sp=up, sm=down, identity=np.eye(spin.dim))


def pauli_matrices() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(sigma1, sigma2, sigma3) = twice the spin-1/2 matrices."""
    ops = spin_matrices(Spin(1))
    return (2.0 * ops.s1, 2.0 * ops.s2, 2.0 * ops.s3)


# ---------------------------------------------------------------------------
# Matrices: ndarray or CSR
# ---------------------------------------------------------------------------


def as_matrix(a):
    """``a`` as an ndarray or, when sparse, a CSR array (a ``csr_array`` as
    it is); DomainError unless it is a square matrix.  The dtype is kept."""
    m = a if isinstance(a, sp.csr_array) else sp.csr_array(a) if sp.issparse(a) else np.asarray(a)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DomainError(f"expected a square matrix, got shape {m.shape}")
    return m


def _dense(a) -> np.ndarray:
    """``a`` as a dense ndarray of its dtype promoted to at least float64, real if real."""
    a = a.toarray() if sp.issparse(a) else np.asarray(a)
    return a.astype(np.result_type(a.dtype, np.float64), copy=False)


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


def is_hermitian(a) -> bool:
    """Whether ||A - A^dagger||_max <= STRUCTURE_TOL."""
    m = as_matrix(a)
    return m.shape[0] == 0 or float(abs(m - m.conj().T).max()) <= STRUCTURE_TOL


def _hermitian(a, what: str):
    """``as_matrix(a)``, or DomainError naming ``what`` and ||A - A^dagger||_max
    unless A is Hermitian: the one input check of every routine that needs it."""
    m = as_matrix(a)
    if not is_hermitian(m):
        raise DomainError(f"{what} is not Hermitian (||A - A^H||_max = "
                          f"{float(abs(m - m.conj().T).max()):.3e})")
    return m


def exact_real(m: np.ndarray) -> np.ndarray:
    """``m.real`` when the imaginary part of the ndarray ``m`` is exactly zero,
    else ``m`` itself: the rule by which :func:`hermitian_eig` solves a block
    of a complex matrix in float64."""
    return m.real if np.iscomplexobj(m) and not m.imag.any() else m


def commutator(a, b):
    """[A, B] = AB - BA, as the ndarray or CSR matrix that the products give."""
    ma, mb = _operands(a, b)
    return ma @ mb - mb @ ma


def _mirror_halves(block, vectors: bool):
    """Eigenvalues (ascending) and eigenvectors (None without ``vectors``) of
    a block B with R B R = B, R the reversal k -> d-1-k, from its halves on
    the vectors (e_k +- e_{d-1-k}) / sqrt(2), k < h = d // 2:
    B+- = B[:h, :h] +- B[:h, ::-1][:, :h].  For odd d the fixed middle index
    joins B+ with its row and column weighted by sqrt(2)."""
    d, h = block.shape[0], block.shape[0] // 2
    top, cross = block[:h, :h], block[:h, ::-1][:, :h]
    even, odd = top + cross, top - cross
    if d % 2:
        even = np.block([[even, math.sqrt(2.0) * block[:h, h:h + 1]],
                         [math.sqrt(2.0) * block[h:h + 1, :h], block[h:h + 1, h:h + 1]]])
    if not vectors:
        return np.sort(np.concatenate((np.linalg.eigvalsh(even), np.linalg.eigvalsh(odd)))), None
    (we, ue), (wo, uo) = np.linalg.eigh(even), np.linalg.eigh(odd)
    w = np.concatenate((we, wo))
    order = np.argsort(w, kind="stable")
    e, o = np.split(np.argsort(order), [we.size])  # the sorted columns of each half
    v, r = np.zeros((d, d), np.result_type(ue, uo)), math.sqrt(0.5)
    v[:h, e], v[h:d - h, e], v[d - h:, e] = r * ue[:h], ue[h:], r * ue[:h][::-1]
    v[:h, o], v[d - h:, o] = r * uo, -r * uo[::-1]
    return w[order], v


def _flip_parity(m) -> int:
    """+1 or -1 when J m J == +-m exactly (+1 for m = 0), J the index reversal
    i -> n-1-i, else 0; a CSR matrix counts only in canonical format."""
    sparse = sp.issparse(m)
    if sparse and not (m.has_canonical_format and np.array_equal(m.nnz - m.indptr[::-1], m.indptr)
                       and np.array_equal(m.shape[0] - 1 - m.indices[::-1], m.indices)):
        return 0
    m, flipped = (m.data, m.data[::-1]) if sparse else (m, m[::-1, ::-1])
    return 1 if np.array_equal(flipped, m) else -1 if np.array_equal(flipped, -m) else 0


class _BlockPlan(NamedTuple):
    """How the solvers split a matrix m, read once from its exact nonzero
    pattern by :func:`_block_plan`; J is the index reversal i -> n-1-i."""

    labels: np.ndarray  # each index's connected component, in order of first index
    members: np.ndarray  # the indices in block order: block b is members[starts[b]:starts[b + 1]]
    starts: np.ndarray  # block 0 holds every size-1 component, then each larger one, ascending
    flip: bool  # J m J == m exactly, a CSR matrix only in canonical format
    mirror: np.ndarray  # the block J maps block b onto; b itself without flip

    def mirrored(self, block):
        """The block J maps ``block`` (indices, eigenvalues, eigenvectors or
        None) onto: indices (n-1-idx)[::-1], its eigenvalues, reversed rows."""
        idx, w, v = block
        return (self.labels.size - 1 - idx)[::-1], w, None if v is None else v[::-1]

    def places(self, m):
        """The stored entries of the CSR matrix ``m`` read in block order:
        the blocks of their rows and columns, then the places of their rows
        and columns in block order (an index's place in ``members``)."""
        n = self.labels.size
        place = np.empty(n, np.intp)
        place[self.members] = np.arange(n)
        block = np.repeat(np.arange(self.starts.size - 1), np.diff(self.starts))
        row, col = place[np.repeat(np.arange(n), np.diff(m.indptr))], place[m.indices]
        return block[row], block[col], row, col


class HermitianEig(NamedTuple):
    """Eigenvalues (ascending), the blocks as (basis indices, eigenvalues,
    eigenvectors, None when not asked for): all size-1 blocks together with
    an identity, then each larger block; the plan they were solved from, its
    block b in blocks[b]."""

    eigenvalues: np.ndarray
    blocks: list[tuple]
    plan: _BlockPlan


def _components(indptr, indices) -> np.ndarray:
    """Each index's connected component in the CSR pattern (``indptr``,
    ``indices``) as an undirected graph, numbered in order of smallest index
    like scipy's ``connected_components``: min-label hooking with pointer
    jumping (Shiloach and Vishkin, J. Algorithms 3, 57 (1982)).  Each index
    points at itself or a smaller one of its component; each round jumps all
    pointers to their roots, drops the edges inside a tree and hooks the
    larger root of every other edge onto the smaller."""
    n, deg, rows = indptr.size - 1, np.diff(indptr), None
    label, full = np.arange(n), deg > 0
    label[full] = np.minimum(label[full], np.minimum.reduceat(indices, indptr[:-1][full]))
    np.minimum.at(label, indices, np.repeat(label, deg))
    while True:
        while not np.array_equal(jump := label[label], label):
            label = jump
        a, b = np.repeat(label, deg) if rows is None else label[rows], label[indices]
        keep = np.flatnonzero(a != b)
        if not keep.size:
            return (np.cumsum(label == np.arange(n)) - 1)[label]
        rows = np.searchsorted(indptr, keep, side="right") - 1 if rows is None else rows[keep]
        indices, a, b = indices[keep], a[keep], b[keep]
        np.minimum.at(label, np.maximum(a, b), np.minimum(a, b))


def _block_plan(m) -> _BlockPlan:
    """The :class:`_BlockPlan` of a CSR matrix in O(nnz), its pattern an
    undirected graph searched by :func:`_components`; a canonical row that
    stores all n columns joins every index into one block with no search.
    Stored zeros join no block; ``m`` is not rewritten."""
    n, flip = m.shape[0], _flip_parity(m) == 1
    keep = m.data != 0
    ptr = np.concatenate(([0], np.cumsum(keep)))[m.indptr]
    full = m.has_canonical_format and np.any(np.diff(ptr) == n)
    labels = np.zeros(n, dtype=np.intp) if full else _components(ptr, m.indices[keep])
    sizes = np.bincount(labels)
    block = np.where(sizes > 1, np.cumsum(sizes > 1), 0)[labels]  # each index's block
    members = np.argsort(block, kind="stable")
    starts = np.concatenate(([0], np.cumsum(np.bincount(block, minlength=1))))
    mirror = (np.concatenate(([0], block[n - 1 - members[starts[1:-1]]])) if flip
              else np.arange(starts.size - 1))
    return _BlockPlan(labels, members, starts, flip, mirror)


def hermitian_eig(m, vectors: bool = True) -> HermitianEig:
    """Eigendecomposition of a Hermitian ndarray or CSR matrix, block by block.

    An ndarray is converted to CSR once, on entry.  The blocks are those of
    :func:`_block_plan`, the connected components of the exact nonzero
    pattern, so each is an invariant subspace spanned by basis vectors and
    no tolerance decides them: a coupling of any size, noise included, joins
    two blocks.  Each block of size > 1 is one LAPACK ``eigh`` (``eigvalsh``
    without ``vectors``), in float64 when ``m`` is real or the block's imaginary part is exactly zero
    (:func:`exact_real`), else complex128, reading only the block's lower
    triangle; size-1 blocks are their diagonal entries, read in one step.
    Eigenvalues are merged by a stable ascending sort.  The eigenvectors stay
    per block (see :class:`HermitianEig`); :func:`eigenvector_columns`
    scatters them.

    ``plan.flip`` is whether J m J == m exactly, J the index reversal i -> n-1-i
    (spin flip in the decreasing-S3 basis), tested on the CSR matrix (a CSR
    input as given, so it counts only in canonical format).
    No tolerance decides it: a mirrored block copies its solved partner's
    eigenpairs, exact only when the symmetry is, and a block that is its own
    mirror is solved as its halves, even and odd under k -> d-1-k (its
    indices ascend), sorted by eigenvalue.
    """
    m = as_matrix(m) if sp.issparse(m) else sp.csr_array(as_matrix(m))
    plan = _block_plan(m)
    singles = plan.members[:plan.starts[1]]
    eye = sp.eye_array(singles.size, format="csr") if vectors and singles.size else np.eye(0)
    blocks = [(singles, m.diagonal()[singles].real, eye if vectors else None)]
    # the entries inside a block of size > 1, by block, each in CSR order
    br, bc, row, col = plan.places(m)
    inside = np.flatnonzero((br == bc) & (br > 0))
    inside = inside[np.argsort(row[inside], kind="stable")]
    row, col, data = row[inside], col[inside], m.data[inside]
    cut = np.searchsorted(row, plan.starts)
    for b in range(1, plan.starts.size - 1):
        s, e = plan.starts[b], plan.starts[b + 1]
        idx = plan.members[s:e]
        if plan.mirror[b] < b:  # J maps this block onto a solved one, reversed
            blocks.append(plan.mirrored(blocks[plan.mirror[b]]))
            continue
        block = np.zeros((e - s, e - s), m.dtype)  # one scatter; duplicate entries add
        np.add.at(block, (row[cut[b]:cut[b + 1]] - s, col[cut[b]:cut[b + 1]] - s),
                  data[cut[b]:cut[b + 1]])
        block = exact_real(block)
        if plan.flip and plan.mirror[b] == b:
            blocks.append((idx, *_mirror_halves(block, vectors)))
        else:
            blocks.append((idx, *np.linalg.eigh(block)) if vectors
                          else (idx, np.linalg.eigvalsh(block), None))
    w = np.sort(np.concatenate([w for _, w, _ in blocks]), kind="stable")
    return HermitianEig(w, blocks, plan)


def eigenvector_columns(eig, columns=slice(None), rows=None) -> np.ndarray:
    """The eigenvectors of ``eig`` (a HermitianEig, an EigenSystem, or a list
    of blocks, which may hold fewer pairs than indices, with ``rows`` given)
    of ascending indices ``columns`` (default all) as dense columns,
    scattered from the blocks: outside its block a column is zero."""
    blocks = eig if isinstance(eig, list) else eig.blocks
    position = np.argsort(np.concatenate([w for _, w, _ in blocks]), kind="stable")[columns]
    dtype = np.result_type(*(v.dtype for _, _, v in blocks))
    out = np.zeros((eig.eigenvalues.size if rows is None else rows, position.size), dtype)
    start = 0
    for idx, w, v in blocks:
        sel = np.flatnonzero((position >= start) & (position < start + w.size))
        if sel.size:
            part = v[:, position[sel] - start]
            out[np.ix_(idx, sel)] = part.toarray() if sp.issparse(part) else part
        start += w.size
    return out


_NORM_SEED = 0x5EED


def operator_norm(a, *, cap_dense: int = DENSE_CUTOFF) -> float:
    """Spectral norm ||A|| (largest singular value), with no structure test.

    A matrix with no nonzero entry has norm 0.0, with no solver call.  Up to
    ``cap_dense``, ||A|| = s sqrt(lambda_max(X^H X)) for X = A / s and
    s the largest stored |A_ij| (a CSR A is read, not canonicalized in
    place): since ||X|| >= 1 the Gram matrix neither underflows nor
    overflows, and its largest eigenvalue comes from :func:`hermitian_eig`,
    which solves a CSR Gram block by block, each block in float64 when it is
    real.  A sparse matrix above ``cap_dense`` takes one seeded ARPACK
    ``svds`` run in its own dtype, float64 or complex128; an ARPACK failure
    is a SolverError.
    """
    m = as_matrix(a)
    if m.shape[0] == 0 or not (m.data if sp.issparse(m) else m).any():
        return 0.0
    if sp.issparse(m) and m.shape[0] > cap_dense:
        import scipy.sparse.linalg as spla  # ARPACK, loaded only where it runs
        v0 = np.random.default_rng(_NORM_SEED).standard_normal(m.shape[0])
        try:
            return float(spla.svds(m, k=1, v0=v0, return_singular_vectors=False)[0])
        except spla.ArpackError as exc:
            raise SolverError(f"norm estimate failed: {exc}") from exc
    s = float(np.abs(m.data if sp.issparse(m) else m).max())
    x = m / s
    gram = x.conj().T @ x
    if sp.issparse(gram):
        gram.sum_duplicates()  # canonical, so a flip-symmetric Gram reads flip
    return s * math.sqrt(hermitian_eig(gram, vectors=False).eigenvalues[-1])
