"""Command-line runner: JSON run specs in, canonical JSON/CSV results out.

Usage:
    spinmodels run SPEC.json [--out DIR] [--workers N]
                             [--cap-dense 4096] [--cap-sparse 65536]

A run spec is a strict JSON document: a task name, a model section, a volume
section, and one section of task parameters named after the task.  Results go
to ``result.json`` (plus a CSV table for tabular tasks), written in a
canonical form — sorted keys, shortest round-tripping float representation —
so identical specs produce byte-identical outputs.  Wall-clock time and
progress go to stderr only.  Exit codes: 0 success, 2 spec error,
3 resource cap, 4 solver/numerics failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
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
from .dynamics import lr_fit, lr_scan
from .interactions import MODEL_NAMES, MODELS, Interaction, Model, assemble_hamiltonian
from .lattice import MAX_HILBERT_DIM, Volume, build_volume
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
from .states import (
    DensityMatrix,
    eeb_deficit,
    expectation,
    gibbs,
    kms_residual,
    stability_value,
)
from .symmetry import invariance_residual

SCHEMA_VERSION = 1

TASKS = ("spectrum", "thermal", "dynamics", "verify", "scan")

_VERIFY_CHECKS = ("algebra", "symmetry", "kms", "eeb", "stability")
_RANDOMIZED_CHECKS = ("kms", "eeb", "stability")


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

    @classmethod
    def from_dict(cls, doc: dict) -> "RunSpec":
        return parse_spec_dict(doc)


def _expect(cond: bool, msg: str):
    if not cond:
        raise SpecFileError(msg)


def _check_keys(section: dict, allowed, where: str):
    unknown = set(section) - set(allowed)
    _expect(not unknown, f"unknown keys in {where}: {sorted(unknown)}")


def _number_list(values, where: str) -> list[float]:
    _expect(isinstance(values, list) and values, f"{where} must be a nonempty list")
    out = []
    for v in values:
        _expect(isinstance(v, (int, float)) and not isinstance(v, bool),
                f"{where} entries must be numbers")
        out.append(float(v))
    return out


def parse_spec_dict(doc: dict) -> RunSpec:
    """Validate a parsed JSON document into a RunSpec (strict: no unknown keys)."""
    _expect(isinstance(doc, dict), "run spec must be a JSON object")
    task = doc.get("task")
    _expect(isinstance(task, str) and task in TASKS,
            f"task must be one of {list(TASKS)}, got {task!r}")
    _check_keys(doc, {"schema_version", "task", "model", "volume", task, "seed", "output"},
                "run spec")
    sv = doc.get("schema_version", SCHEMA_VERSION)
    _expect(sv == SCHEMA_VERSION, f"unsupported schema_version {sv!r}")

    model = doc.get("model")
    _expect(isinstance(model, dict), "model section must be an object")
    _check_keys(model, {"name", "params"}, "model")
    name = model.get("name")
    _expect(isinstance(name, str) and name in MODEL_NAMES,
            f"model.name must be one of {list(MODEL_NAMES)}, got {name!r}")
    params = model.get("params", {})
    _expect(isinstance(params, dict), "model.params must be an object")

    volume = doc.get("volume")
    _expect(isinstance(volume, dict), "volume section must be an object")
    _check_keys(volume, {"dims", "boundary"}, "volume")
    dims = volume.get("dims")
    _expect(
        isinstance(dims, list) and dims
        and all(isinstance(t, int) and not isinstance(t, bool) and t >= 1 for t in dims),
        "volume.dims must be a nonempty list of positive integers",
    )
    boundary = volume.get("boundary", "open")
    _expect(boundary in ("open", "periodic"),
            f"volume.boundary must be 'open' or 'periodic', got {boundary!r}")

    seed = doc.get("seed")
    _expect(seed is None or (isinstance(seed, int) and not isinstance(seed, bool)),
            "seed must be an integer or null")

    output = doc.get("output", {})
    _expect(isinstance(output, dict), "output section must be an object")
    _check_keys(output, {"json", "csv"}, "output")
    for key in output:
        _expect(isinstance(output[key], str) and output[key],
                f"output.{key} must be a nonempty filename")

    section = doc.get(task, {})
    _expect(isinstance(section, dict), f"{task} section must be an object")
    norm = _validate_task_section(task, section, name, seed)

    # Model parameter domains are spec errors at parse time.  A scan leaves
    # its swept variable out of model.params, so validate with each scan
    # value substituted in.
    trial_sets = [dict(params)]
    if task == "scan":
        var = norm["variable"]
        _expect(var not in params,
                f"model.params must not fix the scanned variable {var!r}")
        trial_sets = [dict(params, **{var: v}) for v in norm["values"]]
    try:
        for trial in trial_sets:
            MODELS[name].interaction(trial)
    except (DomainError, DimensionMismatchError) as exc:
        raise SpecFileError(f"invalid model parameters: {exc}") from exc

    return RunSpec(
        task=task,
        model_name=name,
        model_params=dict(params),
        dims=list(dims),
        boundary=boundary,
        params=norm,
        seed=seed,
        output=dict(output),
    )


def _validate_task_section(task: str, section: dict, model: str, seed) -> dict:
    if task == "spectrum":
        _check_keys(section, {"method", "num_eigenvalues"}, "spectrum")
        method = section.get("method", "auto")
        _expect(method in ("auto", "dense", "krylov"),
                f"spectrum.method must be auto|dense|krylov, got {method!r}")
        k = section.get("num_eigenvalues", 6)
        _expect(isinstance(k, int) and not isinstance(k, bool) and k >= 1,
                "spectrum.num_eigenvalues must be a positive integer")
        return {"method": method, "num_eigenvalues": k}
    if task == "thermal":
        _check_keys(section, {"betas"}, "thermal")
        betas = _number_list(section.get("betas"), "thermal.betas")
        _expect(all(b >= 0 for b in betas), "thermal.betas must be >= 0")
        return {"betas": betas}
    if task == "dynamics":
        _check_keys(section, {"times", "distances", "observable"}, "dynamics")
        times = _number_list(section.get("times"), "dynamics.times")
        distances = section.get("distances")
        _expect(
            isinstance(distances, list) and distances
            and all(isinstance(x, int) and not isinstance(x, bool) and x >= 0
                    for x in distances),
            "dynamics.distances must be a nonempty list of nonnegative integers",
        )
        obs = section.get("observable", "s3")
        _expect(obs in ("s1", "s2", "s3"),
                f"dynamics.observable must be s1|s2|s3, got {obs!r}")
        return {"times": times, "distances": list(distances), "observable": obs}
    if task == "verify":
        _check_keys(section, {"checks", "betas", "num_probes"}, "verify")
        checks = section.get("checks", list(_VERIFY_CHECKS))
        _expect(isinstance(checks, list) and checks
                and all(c in _VERIFY_CHECKS for c in checks),
                f"verify.checks must be a nonempty subset of {list(_VERIFY_CHECKS)}")
        betas = _number_list(section.get("betas", [0.5, 1.0]), "verify.betas")
        _expect(all(b >= 0 for b in betas), "verify.betas must be >= 0")
        num_probes = section.get("num_probes", 20)
        _expect(isinstance(num_probes, int) and not isinstance(num_probes, bool)
                and num_probes >= 1,
                "verify.num_probes must be a positive integer")
        if any(c in _RANDOMIZED_CHECKS for c in checks):
            _expect(seed is not None,
                    "verify with randomized checks (kms/eeb/stability) requires a seed")
        return {"checks": list(checks), "betas": betas, "num_probes": num_probes}
    # scan
    _check_keys(section, {"variable", "values", "grid"}, "scan")
    variable = section.get("variable")
    allowed = MODELS[model].scan_variables
    _expect(variable in allowed,
            f"scan.variable for {model} must be one of {list(allowed)}, got {variable!r}")
    values = section.get("values")
    grid = section.get("grid")
    _expect((values is None) != (grid is None),
            "scan needs exactly one of 'values' or 'grid'")
    if values is not None:
        vals = _number_list(values, "scan.values")
    else:
        _expect(isinstance(grid, dict), "scan.grid must be an object")
        _check_keys(grid, {"start", "stop", "num"}, "scan.grid")
        _expect(all(k in grid for k in ("start", "stop", "num")),
                "scan.grid needs start, stop, num")
        num = grid["num"]
        _expect(isinstance(num, int) and not isinstance(num, bool) and num >= 2,
                "scan.grid.num must be an integer >= 2")
        vals = [float(v) for v in np.linspace(float(grid["start"]),
                                              float(grid["stop"]), num)]
    return {"variable": variable, "values": vals}


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


def _pyify(obj):
    """Coerce numpy scalars/arrays into plain Python containers."""
    if isinstance(obj, np.ndarray):
        return [_pyify(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, dict):
        return {str(k): _pyify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_pyify(v) for v in obj]
    return obj


def _format_float(x: float) -> str:
    if not math.isfinite(x):
        raise SolverError(f"non-finite value {x!r} in result payload")
    return format(x, ".17g")


def canonical_json(obj) -> str:
    """Deterministic JSON: sorted keys, '.17g' floats, no NaN/infinity."""
    obj = _pyify(obj)
    parts: list[str] = []

    def emit(o):
        if o is None:
            parts.append("null")
        elif isinstance(o, bool):
            parts.append("true" if o else "false")
        elif isinstance(o, int):
            parts.append(str(o))
        elif isinstance(o, float):
            parts.append(_format_float(o))
        elif isinstance(o, str):
            parts.append(json.dumps(o, ensure_ascii=True))
        elif isinstance(o, dict):
            parts.append("{")
            for i, k in enumerate(sorted(o)):
                if i:
                    parts.append(",")
                parts.append(json.dumps(str(k), ensure_ascii=True))
                parts.append(":")
                emit(o[k])
            parts.append("}")
        elif isinstance(o, (list, tuple)):
            parts.append("[")
            for i, v in enumerate(o):
                if i:
                    parts.append(",")
                emit(v)
            parts.append("]")
        else:
            raise SolverError(f"unserializable value of type {type(o).__name__}")

    emit(obj)
    return "".join(parts)


def _csv_cell(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return _format_float(float(v))
    return str(v)


def write_csv(path: Path, header: list[str], rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_csv_cell(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Task execution
# ---------------------------------------------------------------------------


def _progress(task: str, point: int, total: int) -> None:
    print(f"task={task} point={point}/{total}", file=sys.stderr, flush=True)


def _point_params(spec: RunSpec, value: float) -> dict:
    """model.params of one scan point."""
    return dict(spec.model_params, **{spec.params["variable"]: value})


def _build_model(spec: RunSpec, cap_sparse: int) -> tuple[Model, Interaction, Volume]:
    """The model record, its interaction and the volume, which every task uses.

    A scan's interaction is built at its first point; no scan variable
    changes the local dimension.
    """
    model = MODELS[spec.model_name]
    params = spec.model_params
    if spec.task == "scan":
        params = _point_params(spec, spec.params["values"][0])
    interaction = model.interaction(params)
    volume = build_volume(spec.dims, spec.boundary, interaction.local_dim,
                          max_hilbert_dim=cap_sparse)
    model.check_volume(volume)
    return model, interaction, volume


def _task_spectrum(spec: RunSpec, h, cap_dense: int) -> tuple[dict, list]:
    method = spec.params["method"]
    _progress("spectrum", 1, 1)
    low = low_levels(h, spec.params["num_eigenvalues"],
                     method=None if method == "auto" else method, cap_dense=cap_dense)
    eigenvalues = [float(v) for v in low.eigenvalues]
    payload = {
        "method": low.method,
        "eigenvalues": eigenvalues,
        "ground_energy": low.energy,
        "degeneracy": low.degeneracy,
        "gap": low.gap,
        **low.diagnostics,
    }
    rows = [(i, v) for i, v in enumerate(eigenvalues)]
    return payload, [("index", "eigenvalue")] + rows


def _task_thermal(spec: RunSpec, h, cap_dense: int) -> tuple[dict, list]:
    betas = spec.params["betas"]
    es = EigenSystem(h, cap_dense=cap_dense)
    points = []
    for i, beta in enumerate(betas):
        state = gibbs(es, beta)
        energy = float(expectation(state.rho, h).real)
        points.append({"beta": beta, "log_z": state.log_z, "energy": energy})
        _progress("thermal", i + 1, len(betas))
    payload = {"points": points}
    rows = [(p["beta"], p["log_z"], p["energy"]) for p in points]
    return payload, [("beta", "log_z", "energy")] + rows


def _task_dynamics(spec: RunSpec, interaction: Interaction, volume: Volume,
                   cap_dense: int) -> tuple[dict, list]:
    ops = spin_matrices((volume.local_dim - 1) / 2.0)
    local = {"s1": ops.s1, "s2": ops.s2, "s3": ops.s3}[spec.params["observable"]]
    scan = lr_scan(
        interaction,
        volume,
        local,
        local,
        spec.params["times"],
        spec.params["distances"],
        cap_dense=cap_dense,
    )
    _progress("dynamics", 1, 2)
    fit = lr_fit(scan)
    _progress("dynamics", 2, 2)
    payload = {
        "times": [float(t) for t in scan.times],
        "distances": [int(x) for x in scan.distances],
        "norms": [[float(v) for v in row] for row in scan.norms],
        "bound": scan.bound,
        "fit": {
            "velocity": fit.velocity,
            "decay_rate": fit.decay_rate,
            "max_violation": fit.max_violation,
            "points_used": fit.points_used,
        },
    }
    rows = []
    for i, t in enumerate(scan.times):
        for j, x in enumerate(scan.distances):
            rows.append((float(t), int(x), float(scan.norms[i, j])))
    return payload, [("time", "distance", "commutator_norm")] + rows


def _verify_algebra(volume: Volume) -> dict:
    ops = spin_matrices((volume.local_dim - 1) / 2.0)
    r1 = operator_norm(commutator(ops.sp, ops.sm) - 2.0 * ops.s3)
    r2 = operator_norm(commutator(ops.s3, ops.sp) - ops.sp)
    r3 = operator_norm(commutator(ops.s3, ops.sm) + ops.sm)
    worst = max(r1, r2, r3)
    return {"residual": worst, "threshold": STRUCTURE_TOL, "ok": worst <= STRUCTURE_TOL}


def _verify_symmetry(spec: RunSpec, model: Model, volume: Volume, h) -> dict:
    gens = model.symmetry(spec.model_params, volume)
    res = invariance_residual(h, gens)
    return {
        "generators": gens.name,
        "residual": res,
        "threshold": 1e-10,
        "ok": res <= 1e-10,
    }


def _verify_kms(spec: RunSpec, volume: Volume, es: EigenSystem) -> dict:
    betas = spec.params["betas"]
    pairs = random_probe_pairs(volume, spec.seed, spec.params["num_probes"])
    worst = 0.0
    per_beta = []
    for beta in betas:
        r = max(kms_residual(es, beta, a, b) for a, b in pairs)
        per_beta.append({"beta": beta, "max_residual": r})
        worst = max(worst, r)
    return {"points": per_beta, "max_residual": worst,
            "threshold": 1e-10, "ok": worst <= 1e-10}


def _verify_eeb(spec: RunSpec, volume: Volume, h, es: EigenSystem) -> dict:
    betas = spec.params["betas"]
    pairs = random_probe_pairs(volume, 0 if spec.seed is None else spec.seed + 1,
                               spec.params["num_probes"])
    probes = [a for a, _ in pairs]
    worst = np.inf
    per_beta = []
    for beta in betas:
        state = gibbs(es, beta).rho
        m = min(eeb_deficit(h, beta, x, state) for x in probes)
        per_beta.append({"beta": beta, "min_deficit": m})
        worst = min(worst, m)
    return {"points": per_beta, "min_deficit": float(worst),
            "threshold": -1e-10, "ok": worst >= -1e-10}


def _verify_stability(spec: RunSpec, volume: Volume, h, es: EigenSystem) -> dict:
    gs = ground_space(es)
    state = DensityMatrix.mixture(gs.basis)
    pairs = random_probe_pairs(volume, 0 if spec.seed is None else spec.seed + 2,
                               spec.params["num_probes"])
    worst = min(stability_value(h, state, a) for a, _ in pairs)
    return {"min_value": worst, "threshold": -1e-12, "ok": worst >= -1e-12}


def _task_verify(spec: RunSpec, model: Model, volume: Volume, h,
                 cap_dense: int) -> tuple[dict, list]:
    checks = spec.params["checks"]
    # the randomized checks all read the spectrum of h; they share one EigenSystem
    es = None
    if set(checks) & set(_RANDOMIZED_CHECKS):
        es = EigenSystem(h, cap_dense=cap_dense)
    results = {}
    for i, check in enumerate(checks):
        if check == "algebra":
            results[check] = _verify_algebra(volume)
        elif check == "symmetry":
            results[check] = _verify_symmetry(spec, model, volume, h)
        elif check == "kms":
            results[check] = _verify_kms(spec, volume, es)
        elif check == "eeb":
            results[check] = _verify_eeb(spec, volume, h, es)
        else:
            results[check] = _verify_stability(spec, volume, h, es)
        _progress("verify", i + 1, len(checks))
    payload = {"checks": results, "all_ok": all(r["ok"] for r in results.values())}
    rows = [(name, r.get("residual", r.get("min_deficit", r.get("min_value", 0.0))),
             r["ok"]) for name, r in results.items()]
    return payload, [("check", "value", "ok")] + rows


def _scan_point(spec: RunSpec, model: Model, volume: Volume, value: float,
                cap_dense: int, cap_sparse: int) -> dict:
    h = assemble_hamiltonian(model.interaction(_point_params(spec, value)), volume,
                             max_hilbert_dim=cap_sparse)
    low = low_levels(h, cap_dense=cap_dense)
    return {
        "value": float(value),
        "ground_energy": low.energy,
        "degeneracy": low.degeneracy,
        "gap": low.gap,
    }


def _task_scan(spec: RunSpec, model: Model, volume: Volume, cap_dense: int,
               cap_sparse: int, workers: int) -> tuple[dict, list]:
    values = spec.params["values"]
    rows = []
    with ThreadPoolExecutor(max_workers=workers) as pool:
        points = pool.map(
            lambda v: _scan_point(spec, model, volume, v, cap_dense, cap_sparse), values)
        for row in points:  # map yields in spec order
            rows.append(row)
            _progress("scan", len(rows), len(values))
    payload = {"variable": spec.params["variable"], "points": rows}
    table = [(r["value"], r["ground_energy"], r["gap"], r["degeneracy"]) for r in rows]
    return payload, [("value", "ground_energy", "gap", "degeneracy")] + table


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

_EXIT_CODES = (
    (SpecFileError, 2),
    (DimensionMismatchError, 2),
    (DomainError, 2),
    (ResourceCapError, 3),
    (RangeLimitError, 4),
    (DegenerateInputError, 4),
    (SolverError, 4),
)


def _exit_code(exc: Exception) -> int:
    for klass, code in _EXIT_CODES:
        if isinstance(exc, klass):
            return code
    return 4


def run_spec(spec: RunSpec, out_dir: Path, *, workers: int = 1,
             cap_dense: int = DENSE_CUTOFF, cap_sparse: int = MAX_HILBERT_DIM) -> Path:
    """Execute one run spec; returns the path of the JSON result."""
    started = time.monotonic()
    model, interaction, volume = _build_model(spec, cap_sparse)
    csv_table = None
    if spec.task == "dynamics":
        payload, csv_table = _task_dynamics(spec, interaction, volume, cap_dense)
    elif spec.task == "scan":
        payload, csv_table = _task_scan(spec, model, volume, cap_dense, cap_sparse, workers)
    else:
        h = assemble_hamiltonian(interaction, volume, max_hilbert_dim=cap_sparse)
        if spec.task == "spectrum":
            payload, csv_table = _task_spectrum(spec, h, cap_dense)
        elif spec.task == "thermal":
            payload, csv_table = _task_thermal(spec, h, cap_dense)
        else:
            payload, csv_table = _task_verify(spec, model, volume, h, cap_dense)

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
    if csv_table is not None and "csv" in spec.output:
        header, *rows = csv_table
        write_csv(out_dir / spec.output["csv"], list(header), rows)
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
        if args.workers < 1:
            raise SpecFileError(f"--workers must be >= 1, got {args.workers}")
        json_path = run_spec(
            spec,
            Path(args.out),
            workers=args.workers,
            cap_dense=args.cap_dense,
            cap_sparse=args.cap_sparse,
        )
    except SpinModelError as exc:
        code = _exit_code(exc)
        err = {"error": {"kind": type(exc).__name__, "message": str(exc),
                         "exit_code": code}}
        print(canonical_json(err))
        return code
    print(json.dumps({"ok": True, "task": spec.task, "result": str(json_path)}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
