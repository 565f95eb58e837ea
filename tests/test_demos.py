import os
import subprocess
import sys
from pathlib import Path

import pytest

import multiggm

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    # From a scratch directory: demos 04 and 05 write their CSVs into the cwd.
    package_root = os.path.dirname(os.path.dirname(multiggm.__file__))
    result = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, capture_output=True, text=True,
        timeout=300, env=dict(os.environ, PYTHONPATH=package_root),
    )
    assert result.returncode == 0, result.stderr
