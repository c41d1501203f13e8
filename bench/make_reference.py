"""Write the reference payloads the correctness gate compares against.

    python3 bench/make_reference.py

Runs each workload once (seed 0) with the sources under src/ and stores the
echoed spec and the payload in bench/reference/<workload>.json.  Run it only
on code whose physics is trusted: the gate then holds every later change to
these results.
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

from workloads import WORKLOADS, spec_for

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"


def main() -> int:
    for workload in WORKLOADS:
        with tempfile.TemporaryDirectory(dir=BENCH) as tmp:
            spec_path = Path(tmp) / "spec.json"
            spec_path.write_text(json.dumps(spec_for(workload, 0)))
            subprocess.run([sys.executable, str(BENCH / "child.py"), "plain", str(SRC),
                            str(spec_path), tmp, str(Path(tmp) / "timing.json")], check=True)
            record = json.loads((Path(tmp) / "result.json").read_text())
        reference = {"spec": record["spec"], "payload": record["payload"]}
        (BENCH / "reference" / f"{workload}.json").write_text(
            json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
