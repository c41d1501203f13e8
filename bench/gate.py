"""Correctness gate: a result file against the reference payload of its workload.

The references in ``reference/`` were produced by the unoptimized code.  The
tolerances admit rounding-level change (another LAPACK driver, real instead
of complex arithmetic, another summation order) and reject physics change.
``check`` returns the list of problems found; an empty list passes.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# Eigenvalues, ground energy and gap: absolute tolerance relative to
# max(1, largest |eigenvalue| of the reference).  Rounding moves them by
# ~1e-14 and converged block Lanczos by at most its residual, 1e-10 * scale.
EIGEN_RTOL = 1e-9

# Ground energy of the spin-1/2 Heisenberg ring of 10 sites, |J| = 1, known
# to 9 decimals.
KNOWN_GROUND_ENERGY = {"spectrum_dense": (-4.515446354, 1e-8)}

# Light-cone commutator norms: rounding error is ~1e-15 absolute, and the
# smallest reference norm is ~7e-9.
NORM_ATOL = 1e-12
NORM_RTOL = 1e-8
# Cone fit (least squares on log norms) and the Lieb-Robinson bound.
FIT_ATOL = 1e-9
FIT_RTOL = 1e-6

# verify check -> (value key, True when the value must stay <= threshold).
VERIFY_VALUES = {
    "algebra": ("residual", True),
    "symmetry": ("residual", True),
    "kms": ("max_residual", True),
    "eeb": ("min_deficit", False),
    "stability": ("min_value", False),
}


def load_reference(workload: str) -> dict:
    return json.loads((REFERENCE_DIR / f"{workload}.json").read_text())


def check(workload: str, record: dict, reference: dict, seed) -> list[str]:
    """Problems of one result ``record`` (the parsed result.json)."""
    expected_spec = dict(reference["spec"])
    if expected_spec.get("seed") is not None:
        expected_spec["seed"] = seed
    problems = []
    if record.get("spec") != expected_spec:
        problems.append(f"result echoes spec {record.get('spec')!r}, expected {expected_spec!r}")
        return problems
    task = expected_spec["task"]
    payload, ref = record["payload"], reference["payload"]
    if task == "spectrum":
        problems += _check_spectrum(payload, ref)
        if workload in KNOWN_GROUND_ENERGY:
            e0, tol = KNOWN_GROUND_ENERGY[workload]
            if not abs(payload["ground_energy"] - e0) <= tol:
                problems.append(f"ground energy {payload['ground_energy']!r} is not {e0} +- {tol}")
    elif task == "verify":
        problems += _check_verify(payload, ref)
    elif task == "dynamics":
        problems += _check_dynamics(payload, ref)
    else:
        problems.append(f"no gate for task {task!r}")
    return problems


def _close(a, b, atol: float, rtol: float = 0.0) -> bool:
    return math.isfinite(a) and abs(a - b) <= atol + rtol * abs(b)


def _check_spectrum(p: dict, ref: dict) -> list[str]:
    problems = []
    for key in ("method", "degeneracy"):
        if p[key] != ref[key]:
            problems.append(f"{key} {p[key]!r} != reference {ref[key]!r}")
    tol = EIGEN_RTOL * max(1.0, max(abs(v) for v in ref["eigenvalues"]))
    if len(p["eigenvalues"]) != len(ref["eigenvalues"]):
        problems.append(f"{len(p['eigenvalues'])} eigenvalues, reference has {len(ref['eigenvalues'])}")
    else:
        bad = [i for i, (a, b) in enumerate(zip(p["eigenvalues"], ref["eigenvalues"]))
               if not _close(a, b, tol)]
        if bad:
            i = bad[0]
            problems.append(f"{len(bad)} eigenvalues off by more than {tol:.1e}, first "
                            f"#{i}: {p['eigenvalues'][i]!r} vs {ref['eigenvalues'][i]!r}")
    for key in ("ground_energy", "gap"):
        if not _close(p[key], ref[key], tol):
            problems.append(f"{key} {p[key]!r} vs reference {ref[key]!r} (tol {tol:.1e})")
    return problems


def _check_verify(p: dict, ref: dict) -> list[str]:
    problems = []
    if sorted(p["checks"]) != sorted(ref["checks"]):
        return [f"checks {sorted(p['checks'])} != reference {sorted(ref['checks'])}"]
    for name, r in ref["checks"].items():
        got = p["checks"][name]
        key, upper = VERIFY_VALUES[name]
        thr = r["threshold"]
        if got["threshold"] != thr:
            problems.append(f"{name}: threshold {got['threshold']!r} != reference {thr!r}")
        values = [got[key]] + [pt[key] for pt in got.get("points", [])]
        passes = all((v <= thr) if upper else (v >= thr) for v in values)
        if not passes or got["ok"] is not True:
            problems.append(f"{name}: {key}={got[key]!r} ok={got['ok']!r} fails threshold {thr!r}")
        if [pt["beta"] for pt in got.get("points", [])] != [pt["beta"] for pt in r.get("points", [])]:
            problems.append(f"{name}: betas differ from reference")
        if name == "symmetry" and got["generators"] != r["generators"]:
            problems.append(f"symmetry generators {got['generators']!r} != {r['generators']!r}")
    if p["all_ok"] is not True:
        problems.append("all_ok is not true")
    return problems


def _check_dynamics(p: dict, ref: dict) -> list[str]:
    problems = []
    for key in ("times", "distances"):
        if p[key] != ref[key]:
            problems.append(f"{key} {p[key]!r} != reference {ref[key]!r}")
    if not _close(p["bound"], ref["bound"], FIT_ATOL, FIT_RTOL):
        problems.append(f"bound {p['bound']!r} vs reference {ref['bound']!r}")
    got = [v for row in p["norms"] for v in row]
    want = [v for row in ref["norms"] for v in row]
    bad = [i for i, (a, b) in enumerate(zip(got, want)) if not _close(a, b, NORM_ATOL, NORM_RTOL)]
    if len(got) != len(want) or bad:
        problems.append(f"{len(bad)} commutator norms differ from the reference")
    fit, rfit = p["fit"], ref["fit"]
    if fit["points_used"] != rfit["points_used"]:
        problems.append(f"fit used {fit['points_used']} points, reference {rfit['points_used']}")
    for key in ("velocity", "decay_rate", "max_violation"):
        if not _close(fit[key], rfit[key], FIT_ATOL, FIT_RTOL):
            problems.append(f"fit {key} {fit[key]!r} vs reference {rfit[key]!r}")
    return problems
