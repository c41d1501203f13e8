"""Command-line runner: JSON run specs in, canonical JSON/CSV results out.

Usage:
    spinmodels run SPEC.json [--out DIR] [--workers N]
                             [--cap-dense 4096] [--cap-sparse 65536]

A run spec is a strict JSON document: a task name, a model section, a volume
section, and one section of task parameters named after the task.  As
``interactions.MODELS`` holds the models, ``TASKS`` holds one ``Task`` record
per task (section keys with defaults and validators, runner, CSV header) and
``CHECKS`` one ``Check`` record per check of the ``verify`` task (reported
value, threshold, pass direction, probe seed, witness).  Results go to
``result.json``, plus the task's CSV table when ``output.csv`` names a file,
written in a canonical form — sorted keys, floats as 17 significant digits
(``.17g``, which round-trips but is not always shortest), numpy values as the
Python values they hold, CSV cells that are strings as they are — so identical
specs produce byte-identical outputs.  The dense route of ``spectrum`` lists
every eigenvalue (dim of them); ``num_eigenvalues`` counts on the krylov route
only.  Wall-clock time and progress go to stderr only.
Exit codes (0 on success, else the error type's ``exit_code``): 2 spec
error, 3 resource cap, 4 solver/numerics failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from . import __version__
from .errors import DimensionMismatchError, DomainError, SolverError, SpecFileError, SpinModelError
from .dynamics import lr_fit, lr_scan
from .interactions import MODEL_NAMES, MODELS, assemble_hamiltonian, su2_spin
from .lattice import MAX_HILBERT_DIM, build_volume
from .probes import random_probe_pairs
from .spectra import DEGENERACY_TOL, EigenSystem, ground_space, low_levels
from .spin_algebra import (
    DENSE_CUTOFF,
    SOLVER_TOL,
    STRUCTURE_TOL,
    commutator,
    operator_norm,
    spin_matrices,
)
from .states import _beta, eeb_terms, gibbs, kms_terms, mixture, stability_value
from .symmetry import invariance_residual

SCHEMA_VERSION = 1


@dataclass
class RunSpec:
    """A validated run request (the normalized form echoed into results)."""

    task: str
    model_name: str
    model_params: dict
    dims: list
    boundary: str
    params: dict
    seed: int | None = None
    output: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "task": self.task,
            "model": {"name": self.model_name, "params": dict(self.model_params)},
            "volume": {"dims": list(self.dims), "boundary": self.boundary},
            self.task: dict(self.params),
            "seed": self.seed,
            "output": dict(self.output),
        }


def _expect(cond: bool, msg: str):
    if not cond:
        raise SpecFileError(msg)


def _check_keys(section: dict, allowed, where: str):
    unknown = set(section) - set(allowed)
    _expect(not unknown, f"unknown keys in {where}: {sorted(unknown)}")


# Validators: (value, where) -> normalized value, SpecFileError if invalid.


def _number(minimum=None):
    def check(v, where):  # json.loads reads NaN, +-Infinity and ints beyond any float
        finite = (isinstance(v, (int, float)) and not isinstance(v, bool)
                  and abs(v) <= sys.float_info.max)
        _expect(finite and (minimum is None or v >= minimum),
                f"{where} must be a finite number" + ("" if minimum is None else f" >= {minimum}"))
        return float(v)
    return check


def _integer(minimum):
    def check(v, where):
        _expect(isinstance(v, int) and not isinstance(v, bool) and v >= minimum,
                f"{where} must be an integer >= {minimum}")
        return v
    return check


def _list_of(entry):
    def check(values, where):
        _expect(isinstance(values, list) and values, f"{where} must be a nonempty list")
        return [entry(v, f"{where} entries") for v in values]
    return check


def _one_of(*options):
    def check(v, where):
        _expect(v in options, f"{where} must be one of {list(options)}, got {v!r}")
        return v
    return check


def _optional(check):
    return lambda v, where: None if v is None else check(v, where)


def _grid(grid, where) -> list[float]:
    """An evenly spaced {"start", "stop", "num"} grid, expanded to its values."""
    _expect(isinstance(grid, dict), f"{where} must be an object")
    _expect(set(grid) == {"start", "stop", "num"}, f"{where} needs exactly start, stop, num")
    start, stop = (_number()(grid[k], f"{where}.{k}") for k in ("start", "stop"))
    num = _integer(2)(grid["num"], f"{where}.num")
    return [float(v) for v in np.linspace(start, stop, num)]


def parse_spec_dict(doc: dict) -> RunSpec:
    """Validate a parsed JSON document into a RunSpec (strict: no unknown keys)."""
    _expect(isinstance(doc, dict), "run spec must be a JSON object")
    task = doc.get("task")
    _expect(isinstance(task, str) and task in TASKS,
            f"task must be one of {list(TASKS)}, got {task!r}")
    _check_keys(doc, {"schema_version", "task", "model", "volume", task, "seed", "output"},
                "run spec")
    sv = doc.get("schema_version", SCHEMA_VERSION)  # an int: 1.0 and true equal 1 too
    _expect(type(sv) is int and sv == SCHEMA_VERSION, f"unsupported schema_version {sv!r}")

    model = doc.get("model")
    _expect(isinstance(model, dict), "model section must be an object")
    _check_keys(model, {"name", "params"}, "model")
    name = model.get("name")
    _expect(isinstance(name, str) and name in MODEL_NAMES,
            f"model.name must be one of {list(MODEL_NAMES)}, got {name!r}")
    params = model.get("params", {})
    _expect(isinstance(params, dict), "model.params must be an object")
    for key, value in params.items():  # checked, not rewritten: the echo keeps the spec's text
        nullable = MODELS[name].defaults.get(key, 0) is None  # xxz_suq2's q and delta
        (_optional(_number()) if nullable else _number())(value, f"model.params.{key}")

    volume = doc.get("volume")
    _expect(isinstance(volume, dict), "volume section must be an object")
    _check_keys(volume, {"dims", "boundary"}, "volume")
    dims = _list_of(_integer(1))(volume.get("dims"), "volume.dims")
    boundary = _one_of("open", "periodic")(volume.get("boundary", "open"), "volume.boundary")

    seed = _optional(_integer(0))(doc.get("seed"), "seed")  # numpy refuses negative seeds

    output = doc.get("output", {})
    _expect(isinstance(output, dict), "output section must be an object")
    _check_keys(output, {"json", "csv"}, "output")
    for key, file in output.items():  # plain names: each file lands in --out, apart
        _expect(isinstance(file, str) and file not in ("", ".", "..")
                and not {"/", "\\", "\0"} & set(file),
                f"output.{key} must be a plain file name, got {file!r}")
    _expect(output.get("csv") != output.get("json", "result.json"),
            "output.csv and output.json must name different files")

    section = doc.get(task, {})
    _expect(isinstance(section, dict), f"{task} section must be an object")
    norm = TASKS[task].normalize(section, name, seed)

    # Model parameter domains are spec errors at parse time, checked at
    # every point the task will build.
    try:
        for trial in TASKS[task].points(params, norm):
            MODELS[name].interaction(trial)
    except (DomainError, DimensionMismatchError) as exc:
        raise SpecFileError(f"invalid model parameters: {exc}") from exc

    return RunSpec(task=task, model_name=name, model_params=dict(params), dims=dims,
                   boundary=boundary, params=norm, seed=seed, output=dict(output))


def parse_spec_file(path) -> RunSpec:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise SpecFileError(f"cannot read spec file {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecFileError(f"spec file is not valid JSON: {exc}") from exc
    return parse_spec_dict(doc)


# ---------------------------------------------------------------------------
# Canonical serialization
# ---------------------------------------------------------------------------


def _format_float(x: float) -> str:
    if not math.isfinite(x):
        raise SolverError(f"non-finite value {x!r} in result payload")
    return format(x, ".17g")


def _encode(obj) -> str:
    """The canonical JSON text of one value, numpy values read as the Python
    values they hold."""
    if type(obj) in (float, int):  # exact types first: bools and numpy values are not
        return _format_float(obj) if type(obj) is float else str(obj)
    if isinstance(obj, (np.ndarray, np.generic)):
        obj = obj.tolist()
    if isinstance(obj, float):
        return _format_float(obj)
    if obj is None or isinstance(obj, (bool, int, str)):
        return json.dumps(obj)
    if isinstance(obj, dict):
        obj = {str(k): v for k, v in obj.items()}
        return "{" + ",".join(f"{json.dumps(k)}:{_encode(obj[k])}" for k in sorted(obj)) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(map(_encode, obj)) + "]"
    raise SolverError(f"unserializable value of type {type(obj).__name__}")


def canonical_json(obj) -> str:
    """Deterministic JSON: sorted keys, '.17g' floats, no NaN/infinity."""
    return _encode(obj)


def write_csv(path: Path, header: list[str], rows) -> None:
    """A CSV table: strings as they are, every other cell as its canonical JSON."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(v if isinstance(v, str) else _encode(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Task execution
# ---------------------------------------------------------------------------


def _progress(task: str, point: int, total: int) -> None:
    print(f"task={task} point={point}/{total}", file=sys.stderr, flush=True)


class _Run:
    """What a task runner reads: the spec, the caps, the model record, its
    interaction and the volume.  H and its EigenSystem are built on first use.

    A scan's interaction is built at its first point; no scan variable changes
    the local dimension.
    """

    def __init__(self, spec: RunSpec, *, workers: int, cap_dense: int, cap_sparse: int):
        self.spec, self.params = spec, spec.params
        self.workers, self.cap_dense, self.cap_sparse = workers, cap_dense, cap_sparse
        self.model = MODELS[spec.model_name]
        self.points = TASKS[spec.task].points(spec.model_params, spec.params)
        self.interaction = self.model.interaction(self.points[0])
        self.volume = build_volume(spec.dims, spec.boundary, self.interaction.local_dim,
                                   max_hilbert_dim=cap_sparse)
        self.model.check_volume(self.volume)

    @cached_property
    def h(self):
        return assemble_hamiltonian(self.interaction, self.volume)

    @cached_property
    def es(self) -> EigenSystem:
        return EigenSystem(self.h, cap_dense=self.cap_dense)


def _low_levels(run: _Run, h, interaction, num: int = 1, method: str | None = None):
    """``low_levels`` of h; the krylov route, and it alone, is given the SU(2)
    certificate of the interaction h was assembled from."""
    krylov = method == "krylov" or method is None and h.shape[0] > run.cap_dense
    return low_levels(h, num, method=method, cap_dense=run.cap_dense,
                      spin=su2_spin(interaction) if krylov else None)


def _task_spectrum(run: _Run) -> tuple[dict, list]:
    method = run.params["method"]
    _progress("spectrum", 1, 1)
    low = _low_levels(run, run.h, run.interaction, run.params["num_eigenvalues"],
                      None if method == "auto" else method)
    payload = {"method": low.method, "eigenvalues": low.eigenvalues, "ground_energy": low.energy,
               "degeneracy": low.degeneracy, "gap": low.gap, **low.diagnostics}
    return payload, list(enumerate(low.eigenvalues.tolist()))


def _task_thermal(run: _Run) -> tuple[dict, list]:
    """log Z = log sum p - beta w0 and E = sum w p / sum p from the eigenvalues
    w alone, p = exp(-beta (w - w0)) as ``gibbs`` takes them."""
    betas, points = run.params["betas"], []
    w = low_levels(run.h, method="dense", cap_dense=run.cap_dense).eigenvalues
    for i, beta in enumerate(betas):
        beta = _beta(beta)
        p = np.exp(-beta * (w - w[0]))
        s = float(np.sum(p))
        points.append({"beta": beta, "log_z": float(np.log(s) - beta * w[0]),
                       "energy": float(w @ p) / s})
        _progress("thermal", i + 1, len(betas))
    return {"points": points}, [(p["beta"], p["log_z"], p["energy"]) for p in points]


def _task_dynamics(run: _Run) -> tuple[dict, list]:
    ops = spin_matrices((run.volume.local_dim - 1) / 2.0)
    local = {"s1": ops.s1, "s2": ops.s2, "s3": ops.s3}[run.params["observable"]]
    scan = lr_scan(run.interaction, run.volume, local, local, run.params["times"],
                   run.params["distances"], cap_dense=run.cap_dense)
    _progress("dynamics", 1, 2)
    fit = lr_fit(scan)
    _progress("dynamics", 2, 2)
    payload = {"times": scan.times, "distances": scan.distances, "norms": scan.norms,
               "bound": scan.bound,
               "fit": {key: getattr(fit, key)
                       for key in ("velocity", "decay_rate", "max_violation", "points_used")}}
    rows = [(t, x, scan.norms[i, j])
            for i, t in enumerate(scan.times) for j, x in enumerate(scan.distances)]
    return payload, rows


# Verify checks: (run, prepared probes or None, beta or None) -> the reported
# entries, among them the check's value.


def _check_algebra(run: _Run, pairs, beta) -> dict:
    ops = spin_matrices((run.volume.local_dim - 1) / 2.0)
    r1 = operator_norm(commutator(ops.sp, ops.sm) - 2.0 * ops.s3)
    r2 = operator_norm(commutator(ops.s3, ops.sp) - ops.sp)
    r3 = operator_norm(commutator(ops.s3, ops.sm) + ops.sm)
    return {"residual": max(r1, r2, r3)}


def _check_symmetry(run: _Run, pairs, beta) -> dict:
    gens = run.model.symmetry(run.spec.model_params, run.volume)
    return {"generators": gens.name,
            "residual": invariance_residual(run.h, gens, cap_dense=run.cap_dense)}


def _check_kms(run: _Run, terms, beta) -> dict:
    return {"max_residual": max(t.residual(beta) for t in terms)}


def _check_eeb(run: _Run, terms, beta) -> dict:
    state = gibbs(run.es, beta).rho
    return {"min_deficit": min(t.deficit(beta, state) for t in terms)}


def _check_stability(run: _Run, pairs, beta) -> dict:
    state = mixture(ground_space(run.es).basis)
    return {"min_value": min(stability_value(run.es, state, a) for a, _ in pairs)}


@dataclass(frozen=True)
class Check:
    """Registry record of a verify check.

    Attributes:
        run: the check's runner (see above).
        value: key of the reported value, the CSV row's value.
        threshold: the pass threshold.
        upper: True if the value passes at or below the threshold, False if
            at or above it.
        seed: probe-seed offset from the spec seed; None for a deterministic
            check, which draws no probes.
        per_beta: the check runs at every verify beta and reports the worst.
        reads_b: the check reads the B of each probe pair (A, B); without
            it B is drawn but not embedded, and the pair is (A, None).
        prepare: (run, probe pairs) -> what ``run`` reads in their place,
            computed once: a per-beta check's beta-independent probe terms.
        witness: (key, run -> value) of a value reported beside ``value``
            that must pass the same threshold, or None.
    """

    run: Callable[..., dict]
    value: str
    threshold: float
    upper: bool
    seed: int | None = None
    per_beta: bool = False
    reads_b: bool = False
    prepare: Callable[[_Run, list], list] = lambda run, pairs: pairs
    witness: tuple[str, Callable[[_Run], float]] | None = None

    def probes(self, run: _Run):
        """The check's prepared probe pairs, drawn from the spec seed plus its
        offset; None for a deterministic check."""
        if self.seed is None:
            return None
        return self.prepare(run, random_probe_pairs(run.volume, run.spec.seed + self.seed,
                                                    run.params["num_probes"],
                                                    embed_b=self.reads_b))

    def worst(self, values) -> float:
        return float(max(values) if self.upper else min(values))

    def passes(self, value) -> bool:
        return bool(value <= self.threshold if self.upper else value >= self.threshold)


CHECKS = {
    "algebra": Check(_check_algebra, "residual", STRUCTURE_TOL, upper=True),
    "symmetry": Check(_check_symmetry, "residual", 1e-10, upper=True),
    "kms": Check(_check_kms, "max_residual", 1e-10, upper=True, seed=0, per_beta=True,
                 reads_b=True,
                 prepare=lambda run, pairs: [kms_terms(run.es, a, b) for a, b in pairs],
                 witness=("orthogonality_defect", lambda run: run.es.orthogonality_defect)),
    "eeb": Check(_check_eeb, "min_deficit", -1e-10, upper=False, seed=1, per_beta=True,
                 prepare=lambda run, pairs: [eeb_terms(run.es, a) for a, _ in pairs]),
    "stability": Check(_check_stability, "min_value", -1e-12, upper=False, seed=2),
}


def _task_verify(run: _Run) -> tuple[dict, list]:
    names = run.params["checks"]
    per_beta = {name: (CHECKS[name].probes(run), []) for name in names
                if CHECKS[name].per_beta}
    # beta outermost: the per-beta checks read one Gibbs state at each beta,
    # and their probe terms, prepared above, at every beta
    for beta in run.params["betas"]:
        for name, (pairs, points) in per_beta.items():
            points.append({"beta": beta, **CHECKS[name].run(run, pairs, beta)})
    results = {}
    for i, name in enumerate(names):
        check = CHECKS[name]
        if check.per_beta:
            points = per_beta[name][1]
            r = {"points": points, check.value: check.worst(p[check.value] for p in points)}
        else:
            r = check.run(run, check.probes(run), None)
        extra = {check.witness[0]: check.witness[1](run)} if check.witness else {}
        ok = all(map(check.passes, [r[check.value], *extra.values()]))
        results[name] = {**r, **extra, "threshold": check.threshold, "ok": ok}
        _progress("verify", i + 1, len(names))
    payload = {"checks": results, "all_ok": all(r["ok"] for r in results.values())}
    return payload, [(name, r[CHECKS[name].value], r["ok"]) for name, r in results.items()]


def _scan_point(run: _Run, value: float, params: dict) -> dict:
    interaction = run.model.interaction(params)
    low = _low_levels(run, assemble_hamiltonian(interaction, run.volume), interaction)
    return {"value": float(value), "ground_energy": low.energy, "degeneracy": low.degeneracy,
            "gap": low.gap, **({"route": low.route} if low.route else {})}


def _task_scan(run: _Run) -> tuple[dict, list]:
    values = run.params["values"]
    rows = []
    with ThreadPoolExecutor(max_workers=run.workers) as pool:
        for row in pool.map(lambda v, p: _scan_point(run, v, p), values, run.points):
            rows.append(row)  # map yields in spec order
            _progress("scan", len(rows), len(values))
    payload = {"variable": run.params["variable"], "points": rows}
    return payload, [(r["value"], r["ground_energy"], r["gap"], r["degeneracy"]) for r in rows]


def _verify_finish(section: dict, model: str, seed) -> dict:
    repeated = sorted({name for name in section["checks"] if section["checks"].count(name) > 1})
    _expect(not repeated, f"verify.checks names {repeated} more than once")
    drawn = [name for name in section["checks"] if CHECKS[name].seed is not None]
    _expect(seed is not None or not drawn,
            f"verify checks {drawn} draw random probes and require a seed")
    return section


def _scan_finish(section: dict, model: str, seed) -> dict:
    allowed = MODELS[model].scan_variables
    _expect(section["variable"] in allowed, f"scan.variable for {model} must be one of "
            f"{list(allowed)}, got {section['variable']!r}")
    values, grid = section["values"], section["grid"]
    _expect((values is None) != (grid is None), "scan needs exactly one of 'values' or 'grid'")
    return {"variable": section["variable"], "values": grid if values is None else values}


def _scan_points(params: dict, section: dict) -> list[dict]:
    var = section["variable"]
    _expect(var not in params, f"model.params must not fix the scanned variable {var!r}")
    return [dict(params, **{var: v}) for v in section["values"]]


@dataclass(frozen=True)
class Task:
    """Registry record of a task.

    Attributes:
        name: task tag in run specs, also the name of its parameter section.
        keys: section key -> (default, validator).  A key left out takes
            its default, which the validator also checks: a required key
            has default None, which its validator refuses.
        run: _Run -> (payload, CSV rows).
        header: the CSV header.
        finish: (normalized section, model name, seed) -> the final section;
            the rules that span keys.
        points: (model.params, section) -> model.params of every Hamiltonian
            the task builds.
    """

    name: str
    keys: dict
    run: Callable[[_Run], tuple]
    header: tuple
    finish: Callable[[dict, str, object], dict] = lambda section, model, seed: section
    points: Callable[[dict, dict], list] = lambda params, section: [params]

    def normalize(self, section: dict, model: str, seed) -> dict:
        _check_keys(section, self.keys, self.name)
        norm = {key: check(section.get(key, default), f"{self.name}.{key}")
                for key, (default, check) in self.keys.items()}
        return self.finish(norm, model, seed)


TASKS = {
    task.name: task
    for task in (
        Task("spectrum", {"method": ("auto", _one_of("auto", "dense", "krylov")),
                          "num_eigenvalues": (6, _integer(1))},
             _task_spectrum, ("index", "eigenvalue")),
        Task("thermal", {"betas": (None, _list_of(_number(0)))},
             _task_thermal, ("beta", "log_z", "energy")),
        Task("dynamics", {"times": (None, _list_of(_number())),
                          "distances": (None, _list_of(_integer(0))),
                          "observable": ("s3", _one_of("s1", "s2", "s3"))},
             _task_dynamics, ("time", "distance", "commutator_norm")),
        Task("verify", {"checks": (list(CHECKS), _list_of(_one_of(*CHECKS))),
                        "betas": ([0.5, 1.0], _list_of(_number(0))),
                        "num_probes": (20, _integer(1))},
             _task_verify, ("check", "value", "ok"), finish=_verify_finish),
        Task("scan", {"variable": (None, lambda v, where: v),
                      "values": (None, _optional(_list_of(_number()))),
                      "grid": (None, _optional(_grid))},
             _task_scan, ("value", "ground_energy", "gap", "degeneracy"),
             finish=_scan_finish, points=_scan_points),
    )
}


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def run_spec(spec: RunSpec, out_dir: Path, *, workers: int = 1,
             cap_dense: int = DENSE_CUTOFF, cap_sparse: int = MAX_HILBERT_DIM) -> Path:
    """Execute one run spec; returns the path of the JSON result."""
    started = time.monotonic()
    task = TASKS[spec.task]
    payload, rows = task.run(_Run(spec, workers=workers, cap_dense=cap_dense,
                                  cap_sparse=cap_sparse))

    record = {
        "schema_version": SCHEMA_VERSION,
        "task": spec.task,
        "spec": spec.to_dict(),
        "payload": payload,
        "provenance": {
            "version": __version__,
            "seed": spec.seed,
            "tolerances": {
                "structure": STRUCTURE_TOL,
                "solver": SOLVER_TOL,
                "degeneracy": DEGENERACY_TOL,
            },
            "caps": {"dense": cap_dense, "sparse": cap_sparse},
        },
    }
    text = canonical_json(record)

    out_dir.mkdir(parents=True, exist_ok=True)
    json_path = out_dir / spec.output.get("json", "result.json")
    json_path.write_text(text + "\n")
    if "csv" in spec.output:
        write_csv(out_dir / spec.output["csv"], list(task.header), rows)
    elapsed = time.monotonic() - started
    print(f"task={spec.task} wall_time={elapsed:.3f}s", file=sys.stderr, flush=True)
    return json_path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="spinmodels",
        description="Exact diagonalization and verification for finite spin systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="execute a JSON run spec")
    runp.add_argument("spec", help="path to the run-spec JSON file")
    runp.add_argument("--out", default=".", help="output directory")
    runp.add_argument("--workers", type=int, default=1,
                      help="worker threads for scan points")
    runp.add_argument("--cap-dense", type=int, default=DENSE_CUTOFF,
                      help="largest dimension diagonalized densely, for every task")
    runp.add_argument("--cap-sparse", type=int, default=MAX_HILBERT_DIM,
                      help="largest dimension handled at all")
    args = parser.parse_args(argv)

    try:
        spec = parse_spec_file(args.spec)
        for flag, value in (("--workers", args.workers), ("--cap-dense", args.cap_dense),
                            ("--cap-sparse", args.cap_sparse)):
            if value < 1:
                raise SpecFileError(f"{flag} must be >= 1, got {value}")
        json_path = run_spec(spec, Path(args.out), workers=args.workers,
                             cap_dense=args.cap_dense, cap_sparse=args.cap_sparse)
    except SpinModelError as exc:
        print(canonical_json({"error": {"kind": type(exc).__name__, "message": str(exc),
                                        "exit_code": exc.exit_code}}))
        return exc.exit_code
    print(json.dumps({"ok": True, "task": spec.task, "result": str(json_path)}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
