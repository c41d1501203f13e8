"""Benchmark of the spinmodels CLI: pinned workloads, each task in a fresh process.

    python3 bench/run.py --workload NAME|all [--seed N] [--seconds S] [--trace 0|1]

Runs tasks of one workload one after another, each in a new interpreter
(child.py), until ``--seconds`` are used, checks every result against the
reference payloads (gate.py), and prints a table of the metrics, a
provenance line, and as the last line one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` tasks alternate between
untraced and traced (tracer.py) and the metrics are the per-layer ones.
Everything else a run produces goes under ``bench/out/``.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import gate
from workloads import SEEDED, WORKLOADS, spec_for

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

# Import-and-parse-only processes per run, so setup_s has a median over more
# samples than the few full tasks of the slow workloads.
SETUP_PROBES = 6
# A whole run, children included, ends within this many seconds.
HARD_LIMIT_S = 170.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = (
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
)

def _fn(name: str, key: str):
    return lambda t: t["functions"].get(name, {}).get(key, 0)


def _counter(key: str):
    return lambda t: t["counters"].get(key, 0)


def _share(counter: str, fn: str):
    """Counter per call of ``fn``; 0 when ``fn`` was not called."""
    def share(t):
        calls = t["functions"].get(fn, {}).get("calls", 0)
        return t["counters"].get(counter, 0) / calls if calls else 0.0
    return share


def _calls_and_self(layer: str, *functions: str) -> list:
    return [m for f in functions for m in (
        (f"{layer}.{f}.calls", "count", _fn(f"{layer}.{f}", "calls")),
        (f"{layer}.{f}.self_s", "s", _fn(f"{layer}.{f}", "self_s")))]


# Per-layer metrics: (name, unit, value from one traced task's summary).
# trace.overhead_s compares traced with untraced tasks, so it has no getter.
PER_LAYER = [
    ("lapack.eigh.calls", "count", _fn("lapack.eigh", "calls")),
    ("lapack.eigh.s", "s", _fn("lapack.eigh", "total_s")),
    ("lapack.eigh.complex_share", "ratio", _share("lapack.eigh.complex", "lapack.eigh")),
    ("lapack.eigh.repeat_ratio", "ratio", _share("lapack.eigh.repeats", "lapack.eigh")),
    ("lapack.eigh.flops_computed", "flop-computed", _counter("lapack.eigh.flops_computed")),
    ("lapack.eigvalsh.calls", "count", _fn("lapack.eigvalsh", "calls")),
    ("lapack.eigvalsh.s", "s", _fn("lapack.eigvalsh", "total_s")),
    ("lapack.svd.calls", "count", _fn("lapack.svd", "calls")),
    ("arpack.eigsh.calls", "count", _fn("arpack.eigsh", "calls")),
    ("arpack.eigsh.s", "s", _fn("arpack.eigsh", "total_s")),
    *_calls_and_self("krylov", "lowest_eigenpairs"),
    ("krylov.lowest_eigenpairs.steps", "count", _counter("krylov.lowest_eigenpairs.steps")),
    ("krylov.lowest_eigenpairs.repeat_ratio", "ratio",
     _share("krylov.lowest_eigenpairs.repeats", "krylov.lowest_eigenpairs")),
    ("krylov.matvecs_computed", "count", _counter("krylov.matvecs_computed")),
    *_calls_and_self("spectra", "full_spectrum", "ground_space", "spectral_gap"),
    *_calls_and_self("interactions", "build_model_hamiltonian", "assemble_hamiltonian"),
    ("interactions.h_nnz", "count", _counter("interactions.h_nnz")),
    ("interactions.h_bytes", "bytes-computed", _counter("interactions.h_bytes")),
    *_calls_and_self("lattice", "embed"),
    ("lattice.embed.bytes", "bytes-computed", _counter("lattice.embed.bytes")),
    *_calls_and_self("probes", "random_probe_pairs"),
    ("probes.bytes", "bytes-computed", _counter("probes.bytes")),
    *_calls_and_self("states", "gibbs", "kms_residual", "eeb_deficit", "stability_value",
                     "expectation"),
    *_calls_and_self("spin_algebra", "commutator", "operator_norm"),
    *_calls_and_self("dynamics", "Propagator", "Propagator.evolve", "lr_scan", "lr_fit"),
    *_calls_and_self("symmetry", "invariance_residual", "suq2_generators", "total_spin"),
    ("cli.run_spec.s", "s", _fn("cli.run_spec", "total_s")),
    ("cli.canonical_json.self_s", "s", _fn("cli.canonical_json", "self_s")),
    ("cli.parse_spec_file.s", "s", _fn("cli.parse_spec_file", "total_s")),
    ("trace.coverage", "ratio", lambda t: t["coverage"]),
    ("trace.overhead_s", "s", None),
]


def per_layer_names() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    return [(name, unit) for name, unit, _ in PER_LAYER]


def layer_values(trace: dict) -> dict[str, float]:
    """Per-layer metric values of one traced task, except trace.overhead_s."""
    return {name: get(trace) for name, _, get in PER_LAYER if get is not None}


def is_timing(name: str, unit: str) -> bool:
    """Timings vary from task to task; every other per-layer metric is
    derived from counts and repeats exactly."""
    return unit == "s" or name == "trace.coverage"


# ---------------------------------------------------------------------------
# Tasks
# ---------------------------------------------------------------------------


def child_env() -> tuple[dict, int]:
    """Environment for children: BLAS threads pinned to the usable cores."""
    threads = len(os.sched_getaffinity(0))
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = str(threads)
    return env, threads


def run_child(mode: str, spec_path: Path, task_dir: Path, env: dict, deadline: float) -> dict:
    """Start child.py, reap it with wait4 for its rusage, and read its timing."""
    task_dir.mkdir(parents=True)
    timing_path = task_dir / "timing.json"
    cmd = [sys.executable, str(BENCH / "child.py"), mode, str(SRC), str(spec_path),
           str(task_dir), str(timing_path)]
    with open(task_dir / "stdout.txt", "wb") as out, open(task_dir / "stderr.txt", "wb") as err:
        started = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=ROOT)
        timer = threading.Timer(max(1.0, deadline - started), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    task = {
        "mode": mode,
        "dir": str(task_dir),
        "exit_code": proc.returncode,
        "elapsed_s": time.monotonic() - started,
        "peak_rss_mib": usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
        "problems": [],
    }
    if proc.returncode != 0:
        lines = (task_dir / "stderr.txt").read_text(errors="replace").strip().splitlines()
        why = "killed at the run's time limit" if time.monotonic() >= deadline else (
            lines[-1] if lines else "")
        task["problems"].append(f"exit code {proc.returncode}: {why}")
        return task
    record = json.loads(timing_path.read_text())
    task["setup_s"] = record["parsed_at"] - started
    task["module"] = record["module"]
    task["provenance"] = record["provenance"]
    if not Path(record["module"]).resolve().is_relative_to(SRC.resolve()):
        task["problems"].append(f"imported spinmodels from {record['module']}, not {SRC}")
    for key in ("wall_s", "cpu_s", "trace"):
        if key in record:
            task[key] = record[key]
    return task


def gate_task(task: dict, workload: str, reference: dict, seed: int) -> None:
    """Append the correctness gate's findings on the task's result file."""
    if task["problems"] or task["mode"] == "setup":
        return
    try:
        result = json.loads((Path(task["dir"]) / "result.json").read_text())
        task["problems"] += gate.check(workload, result, reference, seed)
    except (OSError, KeyError, TypeError, ValueError) as exc:
        task["problems"].append(f"malformed result: {exc!r}")


# ---------------------------------------------------------------------------
# One run of one workload
# ---------------------------------------------------------------------------


def tail_percentile(samples: list[float]):
    """(p, value) for the highest of p50/p75/p90/p99 that has at least ten
    samples beyond it (nearest rank), or None."""
    xs = sorted(samples)
    for p in (99, 90, 75, 50):
        k = math.ceil(p / 100 * len(xs))
        if k >= 1 and len(xs) - k >= 10:
            return p, xs[k - 1]
    return None


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run tasks of one workload for ``seconds``, summarize them, and write
    the summary to the run's report.json."""
    started = time.monotonic()
    hard_deadline = started + HARD_LIMIT_S
    run_dir = OUT / f"{workload}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    spec_path = run_dir / "spec.json"
    spec_path.write_text(json.dumps(spec_for(workload, seed), indent=2))
    reference = gate.load_reference(workload)
    env, threads = child_env()

    tasks = []

    def run(mode):
        task = run_child(mode, spec_path, run_dir / f"task{len(tasks):03d}-{mode}", env,
                         hard_deadline)
        gate_task(task, workload, reference, seed)
        tasks.append(task)
        return task

    # The probes also warm the machine up: the first task after an idle
    # spell runs measurably slower.
    for _ in range(SETUP_PROBES):
        run("setup")
    modes = ("plain", "traced") if trace else ("plain",)
    while time.monotonic() < hard_deadline:
        mode = modes[sum(t["mode"] in modes for t in tasks) % len(modes)]
        spent = [t["elapsed_s"] for t in tasks if t["mode"] == mode]
        have_all = all(any(t["mode"] == m for t in tasks) for m in modes)
        # Start another task only if it is expected to end nearer to the
        # deadline than stopping now would: a run overshoots by at most half
        # a task.
        if have_all and time.monotonic() + statistics.median(spent) / 2 > started + seconds:
            break
        run(mode)

    traced = [t for t in tasks if t["mode"] == "traced" and not t["problems"]]
    if traced:
        first = layer_values(traced[0]["trace"])
        units = dict(per_layer_names())
        for t in traced[1:]:
            values = layer_values(t["trace"])
            differ = [n for n in first if not is_timing(n, units[n]) and values[n] != first[n]]
            if differ:
                t["problems"].append(f"count metrics differ from the first traced task: {differ}")
    summary = summarize(workload, seed, seconds, trace, tasks, threads, time.monotonic() - started)
    (run_dir / "report.json").write_text(json.dumps(summary, indent=1, sort_keys=True))
    return summary


def summarize(workload, seed, seconds, trace, tasks, threads, elapsed) -> dict:
    failed = [t for t in tasks if t["problems"]]
    ok = [t for t in tasks if not t["problems"]]
    plain = [t for t in ok if t["mode"] == "plain"]
    samples = {
        "wall_s": [t["wall_s"] for t in plain],
        "cpu_s": [t["cpu_s"] for t in plain],
        "setup_s": [t["setup_s"] for t in ok if t["mode"] in ("setup", "plain")],
        "peak_rss_mib": [t["peak_rss_mib"] for t in plain],
    }
    metrics = {}
    if trace:
        traced = [layer_values(t["trace"]) for t in ok if t["mode"] == "traced"]
        traced_wall = [t["wall_s"] for t in ok if t["mode"] == "traced"]
        for name, unit in per_layer_names():
            if name == "trace.overhead_s":
                value = (statistics.median(traced_wall) - statistics.median(samples["wall_s"])
                         if traced_wall and samples["wall_s"] else 0.0)
            elif not traced:
                value = 0.0
            elif is_timing(name, unit):
                value = statistics.median(v[name] for v in traced)
            else:
                value = traced[0][name]
            metrics[name] = {"value": value, "unit": unit}
    else:
        for name, unit in END_TO_END:
            xs = samples[name]
            metrics[name] = {"value": statistics.median(xs) if xs else 0.0, "unit": unit}
    provenance = next((t["provenance"] for t in tasks if "provenance" in t), {})
    return {
        "workload": workload,
        "seed": seed,
        "seed_changes_input": workload in SEEDED,
        "seconds": seconds,
        "trace": trace,
        "elapsed_s": elapsed,
        "attempted": len(tasks),
        "failed": len(failed),
        "samples": samples,
        "metrics": metrics,
        "provenance": dict(
            provenance,
            python_executable=sys.executable,
            nproc=os.cpu_count(),
            usable_cores=len(os.sched_getaffinity(0)),
            blas_threads=threads,
            blas_thread_vars=list(THREAD_VARS),
            processes="one child process at a time",
            git_commit=git_commit(),
            src_sha256=src_digest(),
        ),
        "tasks": tasks,
    }


# ---------------------------------------------------------------------------
# Provenance
# ---------------------------------------------------------------------------


def git_commit():
    """HEAD commit read from .git without running git; None outside a clone."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def src_digest() -> str:
    """SHA-256 over the package sources, identifying the code measured."""
    h = hashlib.sha256()
    for path in sorted((SRC / "spinmodels").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Report
# ---------------------------------------------------------------------------


def print_summary(s: dict) -> None:
    print(f"workload={s['workload']} seed={s['seed']} seed_changes_input={s['seed_changes_input']} "
          f"trace={int(s['trace'])} tasks={s['attempted']} failed={s['failed']} "
          f"elapsed={s['elapsed_s']:.1f}s")
    for t in s["tasks"]:
        for problem in t["problems"]:
            print(f"  FAILED {t['dir']}: {problem}")
    if s["trace"]:
        for name, m in s["metrics"].items():
            print(f"  {name:44s} {m['value']:.6g} {m['unit']}")
    else:
        for name, m in s["metrics"].items():
            xs = s["samples"][name]
            tail = tail_percentile(xs)
            tail_text = (f"p{tail[0]}={tail[1]:.4f}" if tail
                         else "no percentile has 10 samples beyond it")
            print(f"  {name:14s} median={m['value']:.4f} {m['unit']:4s} n={len(xs)} {tail_text}")
        ratio = s["failed"] / s["attempted"]
        print(f"  {'fail_ratio':14s} {ratio:.4f} ratio ({s['failed']} of {s['attempted']} failed)")
    print("provenance " + json.dumps(s["provenance"], sort_keys=True))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "spinmodels" / "cli.py").is_file():
        print(f"error: no spinmodels sources under {SRC}", file=sys.stderr)
        return 2

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    summaries = []
    for workload in workloads:
        s = measure(workload, args.seed, args.seconds, bool(args.trace))
        print_summary(s)
        summaries.append(s)
    if len(summaries) == 1:
        metrics = summaries[0]["metrics"]
    else:
        metrics = {f"{s['workload']}.{n}": m for s in summaries for n, m in s["metrics"].items()}
    failed = sum(s["failed"] for s in summaries)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(s["attempted"] for s in summaries),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
