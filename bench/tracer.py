"""Spans around the public functions of ``spinmodels``, recorded from outside.

The tracer patches every public module-level function of the package in every
package namespace that holds it (``cli.ground_space`` and
``spectra.ground_space`` get the same wrapper), the members of the classes in
``CLASS_MEMBERS``, and the LAPACK / ARPACK entry points the package calls
through ``numpy.linalg`` and ``scipy.sparse.linalg``.  A span is named
``<layer>.<function>``; the layer is the defining module (``lapack`` and
``arpack`` for the solver entry points).

Spans are kept in memory.  Bookkeeping done after a call returns (hashing
inputs, sizing results) is timed and charged to no span, so self times hold
only the program's own work; the traced-minus-untraced wall time shows it.
Byte and flop figures are computed from shapes and dtypes, not counted by
hardware.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import math
import sys
import time

# numpy.linalg / scipy.sparse.linalg entry points wrapped as solver layers.
LAPACK_FUNCTIONS = ("eigh", "eigvalsh", "svd")
ARPACK_FUNCTIONS = ("eigsh",)

# Class members wrapped besides module-level functions; ``__init__`` is named
# after the class (``dynamics.Propagator``).
CLASS_MEMBERS = {
    "dynamics": {"Propagator": ("__init__", "evolve", "evolve_imaginary", "evolve_vector")},
}

# Golub & Van Loan, "Matrix Computations", symmetric QR with eigenvectors:
# 9 n^3 real flops; a complex multiply-add costs 4 real ones.
EIGH_FLOPS_REAL = 9
EIGH_FLOPS_COMPLEX = 36


class Span:
    """One call: name, start/end (perf_counter seconds), parent span index
    (-1 at top level), untraced bookkeeping time inside it, and the size and
    dtype of its first argument when that is a matrix."""

    __slots__ = ("name", "start", "end", "parent", "excl", "dim", "dtype")

    def __init__(self, name, start=0.0, end=0.0, parent=-1, excl=0.0, dim=None, dtype=None):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.excl = excl
        self.dim = dim
        self.dtype = dtype

    def to_list(self) -> list:
        return [self.name, self.start, self.end, self.parent, self.excl, self.dim, self.dtype]


def self_times(spans) -> list[float]:
    """Each span's duration minus its children's durations and its untraced
    bookkeeping time."""
    out = [s.end - s.start - s.excl for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.end - s.start
    return out


def summarize(spans, counters: dict, traced_wall: float) -> dict:
    """Per-function calls, self and inclusive seconds, plus coverage.

    Inclusive time counts only outermost calls of a name, so a function that
    reaches itself again is not counted twice.  Coverage is the top-level
    span time over the traced wall time.
    """
    selfs = self_times(spans)
    functions: dict[str, dict] = {}
    for i, s in enumerate(spans):
        f = functions.setdefault(s.name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        f["calls"] += 1
        f["self_s"] += selfs[i]
        p = s.parent
        while p >= 0 and spans[p].name != s.name:
            p = spans[p].parent
        if p < 0:
            f["total_s"] += s.end - s.start
    top = sum(s.end - s.start for s in spans if s.parent < 0)
    return {
        "functions": functions,
        "counters": dict(counters),
        "coverage": top / traced_wall if traced_wall > 0 else 0.0,
    }


def _matrix(x):
    """The ndarray or sparse matrix ``x`` is or holds (a spinmodels Operator
    keeps it in ``.data``), or None."""
    if hasattr(x, "shape") and hasattr(x, "dtype"):
        return x
    data = getattr(x, "data", None)
    return data if hasattr(data, "shape") and hasattr(data, "dtype") else None


def nbytes(x) -> int:
    """Bytes held by a dense matrix, or by a sparse one in CSR form."""
    m = _matrix(x)
    if m is None:
        return 0
    if hasattr(m, "nnz"):
        csr = m.tocsr()
        return int(csr.data.nbytes + csr.indices.nbytes + csr.indptr.nbytes)
    return int(m.nbytes)


def stored_entries(x) -> int:
    """Stored entries: nnz of a sparse matrix, size of a dense one."""
    m = _matrix(x)
    if m is None:
        return 0
    return int(m.nnz) if hasattr(m, "nnz") else int(m.size)


def digest(x) -> bytes:
    """Content hash of a dense or sparse matrix, with its shape and dtype."""
    m = _matrix(x)
    h = hashlib.blake2b(digest_size=16)
    h.update(repr((type(m).__name__, m.shape, str(m.dtype))).encode())
    if hasattr(m, "nnz"):
        csr = m.tocsr()
        for a in (csr.data, csr.indices, csr.indptr):
            h.update(a.tobytes())
    else:
        h.update(m.tobytes())
    return h.digest()


class Tracer:
    """Installs the wrappers and holds the spans and counters of one process."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []
        self._seen: dict[str, set] = {}

    def count(self, key: str, amount=1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def repeated(self, name: str, key) -> bool:
        """True if ``key`` was seen before for ``name``; records it."""
        seen = self._seen.setdefault(name, set())
        if key in seen:
            return True
        seen.add(key)
        return False

    def wrap(self, fn, name: str, post=None):
        clock = time.perf_counter
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = Span(name, parent=parent)
            stack.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            t0 = clock()
            if args:
                m = _matrix(args[0])
                if m is not None and len(m.shape) >= 2:
                    span.dim, span.dtype = int(m.shape[-1]), str(m.dtype)
            if post is not None:
                post(self, span, args, kwargs, result)
            if parent >= 0:
                spans[parent].excl += clock() - t0
            return result

        return traced

    def install(self, package: str = "spinmodels") -> None:
        """Wrap the package's public functions and the solver entry points."""
        import numpy.linalg
        import scipy.sparse.linalg

        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == package or n.startswith(package + "."))]
        wrappers = {}
        for mod in modules:
            layer = mod.__name__.rsplit(".", 1)[-1]
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    name = f"{layer}.{attr}"
                    wrappers[obj] = self.wrap(obj, name, POST_HOOKS.get(name))
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(mod, attr, wrappers[obj])
            layer = mod.__name__.rsplit(".", 1)[-1]
            for cls_name, members in CLASS_MEMBERS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                for member in members:
                    name = f"{layer}.{cls_name}" + ("" if member == "__init__" else f".{member}")
                    setattr(cls, member, self.wrap(vars(cls)[member], name))
        for owner, layer, names in ((numpy.linalg, "lapack", LAPACK_FUNCTIONS),
                                    (scipy.sparse.linalg, "arpack", ARPACK_FUNCTIONS)):
            for attr in names:
                name = f"{layer}.{attr}"
                setattr(owner, attr, self.wrap(getattr(owner, attr), name, POST_HOOKS.get(name)))


# ---------------------------------------------------------------------------
# Per-function bookkeeping, run after the call with the span already closed.
# ---------------------------------------------------------------------------


def _post_eigh(tracer, span, args, kwargs, result):
    a = args[0]
    n = a.shape[-1]
    batch = math.prod(a.shape[:-2])
    cplx = a.dtype.kind == "c"
    tracer.count("lapack.eigh.complex", int(cplx))
    tracer.count("lapack.eigh.flops_computed",
                 batch * n ** 3 * (EIGH_FLOPS_COMPLEX if cplx else EIGH_FLOPS_REAL))
    tracer.count("lapack.eigh.repeats", int(tracer.repeated("lapack.eigh", digest(a))))


def _post_lowest_eigenpairs(tracer, span, args, kwargs, result):
    h = args[0]
    dim = _matrix(h).shape[0]
    block = min(max(1, int(kwargs.get("block_size", 4))), dim)
    tracer.count("krylov.lowest_eigenpairs.steps", result.iterations)
    tracer.count("krylov.matvecs_computed", result.iterations * block)
    key = (digest(h), repr(args[1:]), repr(sorted(kwargs.items())))
    tracer.count("krylov.lowest_eigenpairs.repeats",
                 int(tracer.repeated("krylov.lowest_eigenpairs", key)))


def _post_hamiltonian(tracer, span, args, kwargs, result):
    # Only the outermost assembly call counts, so a Hamiltonian built by
    # build_model_hamiltonian through assemble_hamiltonian is sized once.
    if span.parent >= 0 and tracer.spans[span.parent].name.startswith("interactions."):
        return
    tracer.count("interactions.h_nnz", stored_entries(result))
    tracer.count("interactions.h_bytes", nbytes(result))


def _post_embed(tracer, span, args, kwargs, result):
    tracer.count("lattice.embed.bytes", nbytes(result))


def _post_probes(tracer, span, args, kwargs, result):
    tracer.count("probes.bytes", sum(nbytes(op) for pair in result for op in pair))


POST_HOOKS = {
    "lapack.eigh": _post_eigh,
    "krylov.lowest_eigenpairs": _post_lowest_eigenpairs,
    "interactions.build_model_hamiltonian": _post_hamiltonian,
    "interactions.assemble_hamiltonian": _post_hamiltonian,
    "interactions.xxz_suq2_chain": _post_hamiltonian,
    "lattice.embed": _post_embed,
    "probes.random_probe_pairs": _post_probes,
}
