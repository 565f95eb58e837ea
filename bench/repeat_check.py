"""Check whether the benchmark's work counts repeat exactly for one seed.

Run from the repository root:

    python3 bench/repeat_check.py --workload tune_chain_p100 --seed 1

It runs the traced benchmark twice with the same seed and compares the
count metrics below.  Each run lasts one second of loop time, so it does
exactly one cycle: an untraced and a traced operation on the first draw.
Both runs therefore count the same work.  With multithreaded BLAS the
reduction order inside ``eigh`` need not be fixed, so iteration counts may
differ between runs; a gain may be claimed on a count only if it repeats
exactly.
Exits 0 when every count repeats, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

COUNTS = ("solver.iters", "solver.solves", "selection.cells")
ROOT = Path(__file__).resolve().parent.parent
RUNS = 2
SECONDS = "1"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)

    seen = []
    for _ in range(RUNS):
        command = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", args.workload,
                   "--seed", str(args.seed), "--seconds", SECONDS, "--trace", "1"]
        proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, check=True)
        metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
        seen.append({name: metrics[name]["value"] for name in COUNTS})
    repeats = all(run == seen[0] for run in seen)
    for name in COUNTS:
        print(f"{name}: {[run[name] for run in seen]}")
    print(f"repeat exactly: {repeats}")
    return 0 if repeats else 1


if __name__ == "__main__":
    sys.exit(main())
