"""One benchmark task in a fresh interpreter (started by run.py).

Usage: python3 child.py MODE SRC SPEC OUT TIMING
    MODE    setup (import and parse only), plain, or traced
    SRC     directory holding the spinmodels package to measure
    SPEC    run-spec JSON file
    OUT     result directory passed to cli.run_spec
    TIMING  JSON file this process writes its measurements to

Setup ends when ``cli.parse_spec_file`` returns; run.py subtracts the time it
started this process.  Wall and CPU time cover ``cli.run_spec`` only, which
ends once the result files are written.
"""

import json
import os
import sys
import time
from pathlib import Path


def main(argv) -> int:
    mode, src, spec_path, out_dir, timing_path = argv
    sys.path.insert(0, src)
    import spinmodels
    from spinmodels import cli

    tracer = None
    if mode == "traced":
        from tracer import Tracer, summarize

        tracer = Tracer()
        tracer.install()
    t_harness = time.perf_counter()
    spec = cli.parse_spec_file(spec_path)
    record = {"parsed_at": time.monotonic(), "module": spinmodels.__file__}
    if mode != "setup":
        w0, c0 = time.perf_counter(), time.process_time()
        cli.run_spec(spec, Path(out_dir))
        w1, c1 = time.perf_counter(), time.process_time()
        record.update(wall_s=w1 - w0, cpu_s=c1 - c0)
        if tracer is not None:
            record["trace"] = summarize(tracer.spans, tracer.counters, w1 - t_harness)
            with open(f"{out_dir}/spans.json", "w") as fh:
                json.dump([s.to_list() for s in tracer.spans], fh)
    record["provenance"] = _provenance()
    with open(timing_path, "w") as fh:
        json.dump(record, fh)
    return 0


def _provenance() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    tasks = "/proc/self/task"  # one entry per OS thread: main plus BLAS workers
    return {
        "process_threads": len(os.listdir(tasks)) if os.path.isdir(tasks) else None,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
    }


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
