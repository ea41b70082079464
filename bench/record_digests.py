"""Record the report digests of the default seed into digests.json.

    python3 bench/record_digests.py

Run from the repository root, only when a change to lieconf's output is
intended; the benchmark fails any default-seed run whose digests differ.
"""

import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import gates  # noqa: E402
import harness  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402

if __name__ == "__main__":
    recorded = {}
    for name, build in harness.WORKLOADS.items():
        with harness.work_dir() as tmp:
            ops = build(workloads.DEFAULT_SEED, tmp)
            for op in ops:
                harness.run_op(op, reference.Probe())
                if op.failures:
                    sys.exit(f"{name}: {op.name} failed")
            harness.gate(ops, {})
            if any(op.problems for op in ops):
                sys.exit(f"{name}: outputs fail the correctness gates")
            recorded[name] = {op.name: gates.digest(json.loads(op.first_output)) for op in ops}
    harness.DIGESTS.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n")
