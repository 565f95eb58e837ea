"""Smoke test of the benchmark at tiny sizes.

Run from the repository root (it is outside the ``tests/`` suite):

    python -m pytest -q bench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMED = {
    "mc_normality_p50": {"reps_per_s": "1/s"},
    "tune_chain_p100": {"tune_s": "s"},
    "cli_star_p400": {"estimate_s": "s", "test_s": "s"},
}


def run_bench(workload: str, trace: int, cwd: Path = ROOT):
    command = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7",
               "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_prints_every_metric_and_passes_checks(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1

    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    printed = {line.split()[1]: line.split()[3] for line in lines if line.startswith("metric ")}
    named = {"failed_frac": "ratio", **({} if trace else NAMED[workload])}
    assert printed == {**expected, **named}
    if trace:
        m = {k: v["value"] for k, v in result["metrics"].items()}
        layers = sum(v for k, v in m.items() if k.endswith("_s") and k.split(".")[0] != "trace")
        assert layers + m["trace.unaccounted_s"] == pytest.approx(m["trace.op_s"], rel=1e-9)
        assert m["solver.solves"] >= 1 and m["solver.nonconverged"] == 0


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("cli_star_p400", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_failed_output_check_makes_the_command_fail(monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import run
    import workloads

    class Broken(workloads.TuneChain):
        name = "broken"

        def check(self):
            return ["deliberately failed check"]

    monkeypatch.setitem(workloads.WORKLOADS, "broken", Broken)
    code = run.main(["--workload", "broken", "--seed", "1", "--seconds", "0.1", "--tiny"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False and result["failed"] >= 1
