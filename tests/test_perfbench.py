"""The benchmark's traced run makes the library calls the CLI makes.

``perfbench/traced.py`` repeats the calls of ``cmd_pipeline`` and ``cmd_rank``
with one span per layer, so a change to a signature those calls use breaks
``perfbench/run.py --trace 1``. These tests run both traced commands on a
small cohort and check that they write the reports the CLI writes.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from subscan import cli

ROOT = Path(__file__).resolve().parent.parent

SYNTH = ["synth", "--n", "2000", "--cardinalities", "3,4,5", "--base-rate", "0.05",
         "--odds-multiplier", "3", "--planted", "f0=v0;f1=v0|v1", "--seed", "2",
         "--out", "cohort"]
COMMON = ["--input", "cohort/cohort.csv", "--outcome", "y", "--seed", "2"]
PIPELINE = ["pipeline", *COMMON, "--restarts", "2", "--replicates", "19",
            "--alpha", "0.05"]
RANK = ["rank", *COMMON, "--scan-report", "scan/report.json"]


@pytest.fixture
def traced(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    monkeypatch.chdir(tmp_path)
    import traced

    assert cli.main(SYNTH) == 0
    return traced


def _reports(out: Path, names: tuple[str, ...]) -> dict[str, object]:
    """Each output by name; JSON reports parsed, without ``meta`` or the --out echo."""
    outputs: dict[str, object] = {}
    for name in names:
        if name.endswith(".json"):
            payload = json.loads((out / name).read_text())
            payload.pop("meta")
            payload["config"].pop("out")
            outputs[name] = payload
        else:
            outputs[name] = (out / name).read_bytes()
    return outputs


@pytest.mark.parametrize("argv, run, names", [
    (PIPELINE, "_pipeline", ("report.json", "relevance.csv", "substitutions.csv")),
    (RANK, "_rank", ("rank_report.json", "relevance.csv")),
])
def test_traced_command_writes_the_cli_reports(traced, tmp_path, argv, run, names):
    assert cli.main([*PIPELINE, "--out", "scan"]) == 0  # the report that RANK reads
    assert cli.main([*argv, "--out", "cli"]) == 0
    cfg = cli._merged_config(cli.build_parser().parse_args([*argv, "--out", "traced"]))
    tracer = traced.Tracer()
    getattr(traced, run)(tracer, cfg, {})
    assert {s["name"] for s in tracer.spans} >= {"tabular.load", "report.write"}
    assert _reports(tmp_path / "traced", names) == _reports(tmp_path / "cli", names)
