"""Tests of the benchmark itself: span arithmetic, the correctness gate, and
repeatable traced counts."""

import copy
import json
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import gate  # noqa: E402
import run  # noqa: E402
from tracer import Span, self_times, summarize  # noqa: E402
from workloads import WORKLOADS, spec_for  # noqa: E402


def test_self_times_subtract_children_and_bookkeeping():
    spans = [
        Span("cli.run_spec", 0.0, 10.0, -1),
        Span("spectra.ground_space", 1.0, 4.0, 0),
        Span("lapack.eigh", 2.0, 3.0, 1),
        Span("states.gibbs", 5.0, 9.0, 0, excl=0.5),
        Span("states.gibbs", 6.0, 7.0, 3),
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 2.5, 1.0])

    summary = summarize(spans, {}, traced_wall=20.0)
    gibbs = summary["functions"]["states.gibbs"]
    assert gibbs["calls"] == 2
    assert gibbs["self_s"] == pytest.approx(3.5)
    assert gibbs["total_s"] == pytest.approx(4.0)  # the nested call is inside the outer one
    assert summary["coverage"] == pytest.approx(0.5)


def _reference_record(workload, seed=0):
    ref = gate.load_reference(workload)
    record = copy.deepcopy(ref)
    if record["spec"]["seed"] is not None:
        record["spec"]["seed"] = seed
    return ref, record


@pytest.mark.parametrize("workload", WORKLOADS)
def test_reference_passes_its_own_gate(workload):
    ref, record = _reference_record(workload, seed=5)
    assert gate.check(workload, record, ref, 5) == []


@pytest.mark.parametrize("workload", ["spectrum_dense", "spectrum_krylov"])
def test_gate_rejects_eigenvalue_shifted_by_1e6(workload):
    ref, record = _reference_record(workload)
    record["payload"]["eigenvalues"][1] += 1e-6
    assert gate.check(workload, record, ref, 0)
    record["payload"]["eigenvalues"][1] -= 1e-6 - 1e-13  # rounding-level change passes
    assert gate.check(workload, record, ref, 0) == []


def test_gate_rejects_failed_verify_check_and_moved_light_cone():
    ref, record = _reference_record("verify_suq2")
    record["payload"]["checks"]["kms"]["points"][0]["max_residual"] = 1e-9
    assert gate.check("verify_suq2", record, ref, 0)

    ref, record = _reference_record("lightcone")
    record["payload"]["norms"][2][3] *= 1 + 1e-6
    assert gate.check("lightcone", record, ref, 0)


def test_benchmark_json_lists_the_reported_metrics():
    doc = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == run.per_layer_names()


def test_two_traced_runs_give_identical_counts(tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec_for("verify_suq2", 3)))
    env, _ = run.child_env()
    reference = gate.load_reference("verify_suq2")
    counts = []
    for name in ("a", "b"):
        task = run.run_child("traced", spec_path, tmp_path / name, env, time.monotonic() + 120)
        run.gate_task(task, "verify_suq2", reference, 3)
        assert task["problems"] == []
        values = run.layer_values(task["trace"])
        units = dict(run.per_layer_names())
        counts.append({n: v for n, v in values.items() if not run.is_timing(n, units[n])})
    assert counts[0] == counts[1]
    assert counts[0]["lapack.eigh.calls"] > 0
