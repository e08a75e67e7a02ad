"""Each script in ``scripts/`` runs to completion on tiny arguments."""

from __future__ import annotations

import csv
import importlib.util
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



def load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_line_count_total_is_the_sum_of_its_modules(capsys):
    load_script("line_count").run()
    header, *modules, total = csv.reader(capsys.readouterr().out.splitlines())
    assert header == ["module", "raw_lines", "code_lines"]
    package = ROOT / "src" / "subscan"
    assert [m[0] for m in modules] == sorted(p.name for p in package.glob("*.py"))
    assert total[0] == "total"
    for column in (1, 2):
        assert int(total[column]) == sum(int(m[column]) for m in modules)


KNOWN_SOURCE = '''"""Module docstring,
over two lines."""

# a comment-only line
import os  # a trailing comment: code


class C:
    """Class docstring."""

    y = 1


def f(a,
      b):
    """Function docstring."""
    x = [
        a,  # inside brackets

        b,
    ]
    s = """a string, not a docstring,
    over two lines"""
    return x, s, os
'''


def test_line_count_counts_code_lines_only():
    # import, class C, y = 1, def f(a, b):, x = [, a, b, ], s = ... over two lines, return
    assert load_script("line_count").code_lines(KNOWN_SOURCE) == 12
