"""Entry point of the lieconf benchmark; see harness.py.

    python3 bench/run.py --workload analyze-sparse --seed 0 --seconds 20 --trace 0

Run from the repository root. Exits with code 2, printing no result, when
the lieconf sources are not beside the benchmark.
"""

import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

if __name__ == "__main__":
    if not (SRC / "lieconf" / "__init__.py").is_file():
        print(f"error: lieconf sources not found under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import harness

    sys.exit(harness.main())
