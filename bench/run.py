"""Benchmark command: one workload, one process, one caller in a closed loop.

Run from the repository root:

    python3 bench/run.py --workload cli_star_p400 --seed 1 --seconds 36 --trace 0

The package is imported from ``src/`` next to this directory; nothing is
installed or built.  ``setup_s`` is the median import time of the package
in three fresh interpreters plus the median of five set-ups.  The timed
loop then repeats the workload's operation in whole cycles over its input
draws, until the next cycle would end after ``--seconds``, and checks every
operation's output outside its timed interval.  Afterwards the workload's
post-loop output check runs.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs draw 0
untraced and then traced, repeatedly, and reports the per-layer metrics of
the traced operations (see ``tracing.py``); ``trace.overhead_s`` is the mean
wall-time difference between a traced operation and the untraced one before
it.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before it
name every metric with its unit and sample count, plus the environment.  A
run record with the environment, every wall time and, when traced, every
span is written to ``.bench_runs/``.  The exit code is 0 only when every
operation succeeded and every output check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS_DIR = ROOT / ".bench_runs"
SETUP_REPEATS = 5
IMPORT_REPEATS = 3
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
                "import multiggm; print(time.perf_counter() - t)")
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny sizes, for the smoke test")
    return parser.parse_args(argv)


def import_package() -> None:
    """Import ``multiggm`` from this checkout's ``src/``."""
    package = ROOT / "src" / "multiggm"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"bench: {package} not found; run from a checkout of the repository")
    sys.path.insert(0, str(package.parent))
    import multiggm

    if Path(multiggm.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"bench: imported multiggm from {multiggm.__file__}, not {package}")


def import_walls() -> list[float]:
    """Import times of ``multiggm`` in fresh interpreters, one per repeat."""
    walls = []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(ROOT / "src")],
                              cwd=ROOT, capture_output=True, text=True, check=True, timeout=60)
        walls.append(float(proc.stdout))
    return walls


def blas_runtime() -> list[dict]:
    """Core and thread count of each OpenBLAS bundled with numpy and scipy.

    Read only: calls the libraries' getters and sets nothing.  The libraries
    are already loaded by the imports, so ``CDLL`` returns the same handles.
    """
    import ctypes

    import numpy
    import scipy

    found = []
    for package in (numpy, scipy):
        libdir = Path(package.__file__).resolve().parent.parent / f"{package.__name__}.libs"
        for path in sorted(libdir.glob("*openblas*.so*")):
            lib = ctypes.CDLL(str(path))
            for prefix, suffix in (("scipy_openblas_", "64_"), ("scipy_openblas_", ""),
                                   ("openblas_", "")):
                threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}get_config{suffix}", None)
                if threads is None or config is None:
                    continue
                threads.argtypes, threads.restype = [], ctypes.c_int
                config.argtypes, config.restype = [], ctypes.c_char_p
                found.append({
                    "package": package.__name__, "library": path.name,
                    "config": config().decode(), "threads": threads(),
                })
                break
    return found


def environment(args, workload, recorder) -> dict:
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": f"{blas['name']} {blas['version']}",
        "blas_runtime": blas_runtime(),
        "thread_variables": {k: os.environ.get(k) for k in THREAD_VARIABLES},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "workload": workload.name,
        "seed": args.seed,
        "tiny": args.tiny,
        "sizes": workload.sizes(),
        "admm_solves": recorder.solves,
        "admm_iterations": recorder.iters,
    }


def timed_loop(workload, seconds: float, trace: bool, recorder) -> dict:
    """Closed loop: the next operation starts when the previous one returns.

    The loop runs whole cycles and stops only between them, so the number of
    operations on each draw stays in the same proportion whatever the
    machine's speed.  An untraced cycle is one operation on each draw.  A
    traced cycle is an untraced then a traced operation on draw 0, so that
    their difference is the tracing overhead alone and every traced
    operation counts the same work.  After a cycle the loop goes on only if
    another cycle of median length ends within ``seconds``.
    """
    cycle = [(0, False), (0, True)] if trace else [(d, False) for d in range(workload.draws)]
    loop = {"walls": [], "untraced": [], "paired": [], "parts": [], "attempted": 0,
            "failed": 0, "problems": []}
    start = time.perf_counter()
    cycle_walls = []
    run = 0
    while True:
        cycle_start = time.perf_counter()
        for draw, traced in cycle:
            try:
                with recorder.operation(run, traced):
                    t0 = time.perf_counter()
                    out = workload.op(draw)
                    wall = time.perf_counter() - t0
            except Exception:
                traceback.print_exc()
                loop["attempted"] += 1
                loop["failed"] += 1
                loop["problems"].append(f"operation {run} raised")
                return loop
            if traced:
                loop["paired"].append(loop["walls"][-1])
            else:
                loop["untraced"].append(wall)
                loop["parts"].append(out.get("parts", {}))
            loop["walls"].append(wall)
            loop["attempted"] += out["attempted"]
            loop["failed"] += out["failed"]
            loop["problems"] += out["problems"]
            run += 1
        end = time.perf_counter()
        cycle_walls.append(end - cycle_start)
        if end - start + statistics.median(cycle_walls) > seconds:
            return loop


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(workload, args) -> tuple[dict, dict]:
    """Set up, run the timed loop and the checks; returns (result, run record)."""
    from tracing import Recorder, package_targets

    imports = import_walls()
    setup_walls = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        workload.setup()
        setup_walls.append(time.perf_counter() - t0)

    recorder = Recorder(package_targets())
    loop = timed_loop(workload, args.seconds, bool(args.trace), recorder)
    problems = loop["problems"]
    failed = loop["failed"]
    if loop["walls"]:
        try:
            check_problems = workload.check()
        except Exception:
            traceback.print_exc()
            check_problems = ["output check raised"]
        problems += check_problems
        failed = min(failed + bool(check_problems), loop["attempted"])

    walls = loop["untraced"]
    named = {"failed_frac": (failed / loop["attempted"], "ratio", loop["attempted"])}
    if args.trace:
        metrics = recorder.layer_metrics(loop["paired"])
    else:
        metrics = {
            "op_s": (statistics.median(walls) if walls else 0.0, "s"),
            "setup_s": (statistics.median(imports) + statistics.median(setup_walls), "s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }
        if walls:
            named.update(workload.summary(walls, loop["parts"]))
    result = {
        "correct": not problems and failed == 0,
        "attempted": loop["attempted"],
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {
        "environment": environment(args, workload, recorder),
        "import_walls": imports,
        "setup_walls": setup_walls,
        "op_walls": loop["walls"],
        "untraced_walls": walls,
        "named_metrics": named,
        "problems": problems,
        "result": result,
        "spans": [s.to_jsonable() for s in recorder.spans],
    }
    return result, record


def report(result: dict, record: dict, args) -> None:
    env = record["environment"]
    print(f"bench workload={env['workload']} seed={args.seed} trace={args.trace} "
          f"ops={len(record['op_walls'])} seconds={args.seconds:g}")
    print("env " + json.dumps({k: v for k, v in env.items() if k != "sizes"}))
    print("sizes " + json.dumps(env["sizes"]))
    ops = len(record["untraced_walls"])
    if args.trace:
        ops = len(record["op_walls"]) - ops
    for name, m in result["metrics"].items():
        print(f"metric {name} {m['value']!r} {m['unit']} n={ops}")
    for name, (value, unit, n) in record["named_metrics"].items():
        print(f"metric {name} {value!r} {unit} n={n}")
    for problem in record["problems"]:
        print(f"problem {problem}")
    print(json.dumps(result))


def main(argv=None) -> int:
    args = parse_args(argv)
    import_package()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workdir = RUNS_DIR / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, args.tiny, str(workdir))
        result, record = measure(workload, args)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-tiny' if args.tiny else ''}"
    (RUNS_DIR / f"{name}.json").write_text(json.dumps(record, indent=1) + "\n")
    report(result, record, args)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
