"""Each script in ``scripts/`` runs to completion on tiny arguments."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

TINY_ARGS = {
    "demo_pipeline.py": ["--n", "300", "--restarts", "2", "--replicates", "19"],
    "null_calibration.py": ["--datasets", "2", "--n", "60", "--replicates", "3",
                            "--restarts", "1"],
    "line_count.py": [],
    "recovery_experiment.py": ["--n", "300", "--multipliers", "3.0", "--cohorts", "2",
                               "--restarts", "2"],
}


def test_every_script_has_tiny_arguments():
    assert sorted(p.name for p in (ROOT / "scripts").glob("*.py")) == sorted(TINY_ARGS)


@pytest.mark.parametrize("script", sorted(TINY_ARGS))
def test_script_runs(script, tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    argv = [sys.executable, str(ROOT / "scripts" / script), *TINY_ARGS[script]]
    if script == "demo_pipeline.py":
        argv += ["--out", str(tmp_path / "demo")]
    done = subprocess.run(argv, cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
