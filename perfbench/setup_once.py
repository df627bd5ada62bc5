"""One timed set-up: import entwine, generate and write a workload's documents.

    python3 perfbench/setup_once.py WORKLOAD SEED OUT_DIR

Prints the elapsed seconds, measured from before the import.  ``run.py``
starts several of these processes and reports the median as ``setup_s``.
"""

import time

START = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent


def main() -> int:
    workload, seed, out_dir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]
    import workloads

    out_dir.mkdir(parents=True, exist_ok=True)
    for check in workloads.checks_for(workload, seed, 0):
        (out_dir / check.file_name).write_text(check.text, encoding="utf-8")
    print(time.perf_counter() - START)
    return 0


if __name__ == "__main__":
    sys.exit(main())
