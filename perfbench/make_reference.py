"""Write the default-seed reference CSVs the correctness gate compares against.

    python3 perfbench/make_reference.py

Runs every workload command at the default seed with ``--threads 1`` from
the ``src/`` tree of this checkout and stores its CSV as
``perfbench/reference/<workload>/<command>.csv``.  Run it only when an
output change is intended, and record the largest deviation it introduces.
"""

from __future__ import annotations

import subprocess
import sys

from run import BENCH_DIR, CLI, child_env
from workloads import DEFAULT_SEED, WORKLOADS, commands


def main():
    for workload in WORKLOADS:
        out_dir = BENCH_DIR / "reference" / workload
        out_dir.mkdir(parents=True, exist_ok=True)
        for c in commands(workload, DEFAULT_SEED):
            path = out_dir / f"{c.name}.csv"
            argv = [sys.executable, "-c", CLI, *c.args, "--threads", "1", "--out", str(path)]
            subprocess.run(argv, env=child_env(), check=True)
            print(f"wrote {path}")


if __name__ == "__main__":
    main()
