"""Each script in ``scripts/`` runs to completion on tiny arguments, and
refuses bad input the way ``subscan`` does."""

from __future__ import annotations

import csv
import os
import subprocess
import sys
from pathlib import Path

import pytest

import line_count
from subscan.cli import main

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


def run_script(script: str, argv: list[str], cwd: Path) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run([sys.executable, str(ROOT / "scripts" / script), *argv], cwd=cwd,
                          env=env, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("script", sorted(TINY_ARGS))
def test_script_runs(script, tmp_path):
    done = run_script(script, TINY_ARGS[script], tmp_path)  # the demo writes under tmp_path
    assert done.returncode == 0, done.stderr


def refusal(script: str, argv: list[str], cwd: Path) -> str:
    """The one ``error:`` line that ``script`` prints on stderr as it exits 2 on ``argv``."""
    done = run_script(script, argv, cwd)
    assert (done.returncode, done.stdout) == (2, ""), done.stderr
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1, done.stderr
    return done.stderr


@pytest.mark.parametrize("planted", ["f0", "f0=x1"])
def test_recovery_experiment_refuses_a_planted_spec_outside_the_schema(planted, tmp_path):
    # the CLI's planted parser: "f0" lacks its values and x1 is no category of f0
    refusal("recovery_experiment.py", ["--planted", planted], tmp_path)


@pytest.mark.parametrize("knob, value", [
    ("datasets", "0"), ("n", "1"), ("rate", "0"), ("rate", "1"), ("seed", "-1"),
])
def test_null_calibration_refuses_a_knob_it_cannot_run_with(knob, value, tmp_path):
    # each would otherwise end in a division by zero, an endless redraw or a traceback
    err = refusal("null_calibration.py", [f"--{knob}", value], tmp_path)
    assert err.startswith("error: want --datasets >= 1")


@pytest.mark.parametrize("script", ["recovery_experiment.py", "null_calibration.py"])
@pytest.mark.parametrize("cards", ["3,a", "3,0"])
def test_scripts_refuse_bad_cardinalities_as_synth_does(script, cards, tmp_path, capsys):
    assert main(["synth", "--n", "10", "--cardinalities", cards, "--base-rate", "0.1",
                 "--odds-multiplier", "2", "--out", str(tmp_path)]) == 2
    assert refusal(script, ["--cardinalities", cards], tmp_path) == capsys.readouterr().err


def test_line_count_total_is_the_sum_of_its_modules(capsys):
    line_count.run()
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
    assert line_count.code_lines(KNOWN_SOURCE) == 12
