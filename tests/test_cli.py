from __future__ import annotations

import csv
import json
import os
import subprocess
import sys
from dataclasses import fields
from importlib import resources
from pathlib import Path
from typing import get_args, get_type_hints
from unittest import mock

import jsonschema
import pytest

from subscan.cli import PipelineConfig, main as run
from subscan.report import write_json
from subscan.tabular import load_csv


def refused(argv: list[str], capsys) -> str:
    """The one ``error:`` line that ``subscan argv`` prints on stderr as it exits 2."""
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    return err


@pytest.fixture(scope="module")
def report_schema() -> dict:
    text = resources.files("subscan").joinpath("schemas/report.schema.json").read_text()
    return json.loads(text)


@pytest.fixture(scope="module")
def cohort_csv(tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("synth")
    code = run([
        "synth", "--n", "2000", "--cardinalities", "2,3,1,1,1",
        "--base-rate", "0.05", "--odds-multiplier", "3", "--seed", "1",
        "--planted", "f0=v0;f1=v0", "--out", str(out),
    ])
    assert code == 0
    return out / "cohort.csv"


def validate(path: Path, schema: dict) -> dict:
    payload = json.loads(path.read_text())
    jsonschema.validate(payload, schema)
    return payload


class TestSynth:
    def test_outputs_and_determinism(self, tmp_path, report_schema):
        args = ["synth", "--n", "500", "--cardinalities", "2,3", "--base-rate", "0.1",
                "--odds-multiplier", "2.5", "--seed", "3"]
        assert run(args + ["--out", str(tmp_path / "a")]) == 0
        assert run(args + ["--out", str(tmp_path / "b")]) == 0
        a = (tmp_path / "a" / "cohort.csv").read_bytes()
        b = (tmp_path / "b" / "cohort.csv").read_bytes()
        assert a == b
        payload = validate(tmp_path / "a" / "planted.json", report_schema)
        assert payload["planted_descriptor"] == {"f0": ["v0"], "f1": ["v0", "v1"]}

    def test_emitted_mean_near_base_rate(self, tmp_path):
        # a 1/64 planted sliver shifts the mean by far less than sampling noise
        assert run(["synth", "--n", "4000", "--cardinalities", "8,8", "--base-rate",
                    "0.05", "--odds-multiplier", "2", "--seed", "5",
                    "--planted", "f0=v0;f1=v0", "--out", str(tmp_path / "small")]) == 0
        payload = json.loads((tmp_path / "small" / "planted.json").read_text())
        n, mu = payload["dataset"]["n_records"], payload["dataset"]["global_mean"]
        assert abs(mu - 0.05) <= 3 * (0.05 * 0.95 / n) ** 0.5

        # a planted quarter lifts the mean to the mixture rate instead
        assert run(["synth", "--n", "4000", "--cardinalities", "4,4", "--base-rate",
                    "0.05", "--odds-multiplier", "2", "--seed", "5",
                    "--planted", "f0=v0", "--out", str(tmp_path / "big")]) == 0
        payload = json.loads((tmp_path / "big" / "planted.json").read_text())
        n, mu = payload["dataset"]["n_records"], payload["dataset"]["global_mean"]
        lifted = 2 * 0.05 / 0.95 / (1 + 2 * 0.05 / 0.95)
        target = 0.05 + 0.25 * (lifted - 0.05)
        assert abs(mu - target) <= 3 * (target * (1 - target) / n) ** 0.5

    def test_odds_multiplier_at_most_one_rejected(self, tmp_path, capsys):
        err = refused(["synth", "--n", "100", "--cardinalities", "2,2", "--base-rate", "0.1",
                       "--odds-multiplier", "1.0", "--seed", "0", "--out", str(tmp_path)], capsys)
        assert "odds_multiplier" in err

    def test_outcome_colliding_with_a_feature_fails_before_work(self, tmp_path, capsys):
        out = tmp_path / "fresh"
        err = refused(["synth", "--n", "100", "--cardinalities", "2,3", "--base-rate", "0.1",
                       "--odds-multiplier", "2", "--outcome", "f0", "--out", str(out)], capsys)
        assert "'f0'" in err
        assert not out.exists()

    @pytest.mark.parametrize("cards", ["1,1", "3,a", "3,0"])
    def test_bad_cardinalities_rejected_before_work(self, tmp_path, capsys, cards):
        # 1,1 has no feature to plant a subgroup in, and no --planted is given
        out = tmp_path / "fresh"
        refused(["synth", "--n", "100", "--cardinalities", cards, "--base-rate", "0.1",
                 "--odds-multiplier", "2", "--out", str(out)], capsys)
        assert not out.exists()

    def test_missing_required_knob_rejected(self, tmp_path):
        assert run(["synth", "--n", "100", "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize(
        "planted", ["f2=v0", "f0=v3", "f0", "g0=v0", "f0=v0;", "f0=v0|v0", "f0=v0;f0=v1"]
    )
    def test_bad_planted_descriptor_rejected(self, tmp_path, capsys, planted):
        refused(["synth", "--n", "100", "--cardinalities", "2,3", "--base-rate", "0.1",
                 "--odds-multiplier", "2", "--planted", planted, "--out", str(tmp_path)], capsys)
        assert not (tmp_path / "cohort.csv").exists()

    @pytest.mark.parametrize("cards, planted", [("2,3", "f0=v0|v1"), ("1,3", "f0=v0"),
                                                ("2,3", "f0=v1|v0;f1=v2|v0|v1")])
    def test_planted_descriptor_that_constrains_nothing_rejected(self, tmp_path, capsys, cards,
                                                                  planted):
        # every record would be "planted": the cohort's mean would be the lifted rate
        out = tmp_path / "fresh"
        err = refused(["synth", "--n", "2000", "--cardinalities", cards, "--base-rate", "0.05",
                       "--odds-multiplier", "3", "--planted", planted, "--seed", "1",
                       "--out", str(out)], capsys)
        assert "constrains no feature" in err
        assert not out.exists()

    def test_vacuous_planted_constraint_left_out_of_planted_json(self, tmp_path):
        # f1=v0|v1|v2 names every f1 category, so the planted subgroup is f0=v0 alone
        args = ["synth", "--n", "2000", "--cardinalities", "2,3", "--base-rate", "0.05",
                "--odds-multiplier", "3", "--seed", "1"]
        assert run(args + ["--planted", "f0=v0;f1=v0|v1|v2", "--out", str(tmp_path / "a")]) == 0
        assert run(args + ["--planted", "f0=v0", "--out", str(tmp_path / "b")]) == 0
        payload = json.loads((tmp_path / "a" / "planted.json").read_text())
        assert payload["planted_descriptor"] == {"f0": ["v0"]}
        assert ((tmp_path / "a" / "cohort.csv").read_bytes()
                == (tmp_path / "b" / "cohort.csv").read_bytes())

    def test_repeated_planted_feature_named(self, tmp_path, capsys):
        err = refused(["synth", "--n", "100", "--cardinalities", "2,3", "--base-rate", "0.1",
                       "--odds-multiplier", "2", "--planted", "f1=v0;f0=v0; f0=v1",
                       "--out", str(tmp_path)], capsys)
        assert "'f0'" in err


class TestScan:
    def test_recovers_planted_descriptor(self, cohort_csv, tmp_path, report_schema):
        out = tmp_path / "scan"
        code = run(["scan", "--input", str(cohort_csv), "--outcome", "y",
                    "--restarts", "10", "--replicates", "30", "--seed", "9",
                    "--out", str(out)])
        assert code == 0
        payload = validate(out / "scan_report.json", report_schema)
        assert payload["scan"]["descriptor"] == {"f0": ["v0"], "f1": ["v0"]}
        assert payload["scan"]["p_value"] == pytest.approx(1 / 31)
        assert payload["scan"]["p_at_floor"] is True
        assert payload["dataset"]["n_records"] == 2000

    def test_missing_file_exits_2(self, tmp_path, capsys):
        err = refused(["scan", "--input", str(tmp_path / "nope.csv"), "--outcome", "y",
                       "--out", str(tmp_path)], capsys)
        assert "no such file" in err

    def test_degenerate_outcomes_exit_3(self, tmp_path):
        p = tmp_path / "flat.csv"
        p.write_text("a,y\n" + "x,0\n" * 5)
        code = run(["scan", "--input", str(p), "--outcome", "y", "--out", str(tmp_path)])
        assert code == 3

    @pytest.mark.parametrize("argv, message", [
        (["pipeline", "--replicates", "0"], "n_replicates"),
        (["scan", "--max-passes", "0"], "max_passes"),
        (["rank", "--top-k", "0"], "top_k"),
        (["substitute", "--top-k", "1", "--delta-threshold", "0.1"], "mutually exclusive"),
    ])
    def test_bad_knob_rejected_before_data_is_read(self, tmp_path, capsys, argv, message):
        err = refused(argv + ["--input", str(tmp_path / "missing.csv"), "--out", str(tmp_path)],
                      capsys)
        assert message in err and "no such file" not in err

    @pytest.mark.parametrize("name, content", [
        ("latin1.csv", b"a,y\n\xff\xfe,1\n"),
        ("long_field.csv", b"a,y\n" + b"x" * 131_073 + b",1\n"),
    ], ids=["not_utf8", "field_over_csv_limit"])
    def test_unreadable_csv_exits_2(self, tmp_path, capsys, name, content):
        bad = tmp_path / name
        bad.write_bytes(content)
        err = refused(["scan", "--input", str(bad), "--outcome", "y", "--out", str(tmp_path)],
                      capsys)
        assert str(bad) in err

    def test_directory_as_input_or_config_exits_2(self, tmp_path, capsys):
        assert run(["scan", "--input", str(tmp_path), "--out", str(tmp_path)]) == 2
        assert run(["scan", "--config", str(tmp_path), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 2 and err.count(f"error: {tmp_path}: cannot read") == 2

    @pytest.mark.parametrize("out, named", [
        ("afile", "afile"),
        ("afile/sub", "afile/sub"),
        ("d", "d/scan_report.json"),
    ], ids=["existing_file", "under_a_file", "report_path_is_a_directory"])
    def test_unwritable_out_exits_2(self, cohort_csv, tmp_path, capsys, out, named):
        (tmp_path / "afile").write_text("not a directory\n")
        (tmp_path / "d" / "scan_report.json").mkdir(parents=True)
        err = refused(["scan", "--input", str(cohort_csv), "--restarts", "1",
                       "--replicates", "1", "--out", str(tmp_path / out)], capsys)
        assert str(tmp_path / named) in err
        assert not list(tmp_path.rglob("*.tmp"))

    @pytest.mark.parametrize("command, blocked, others", [
        ("scan", "scan_report.json", ()),
        ("pipeline", "relevance.csv", ("report.json", "substitutions.csv")),
    ])
    def test_output_path_that_is_a_directory_rejected_before_work(
        self, cohort_csv, tmp_path, capsys, command, blocked, others
    ):
        out = tmp_path / "d"
        (out / blocked).mkdir(parents=True)
        for name in others:
            (out / name).write_bytes(b"old\n")
        before = {p: p.read_bytes() for p in out.iterdir() if p.is_file()}
        for data in (tmp_path / "missing.csv", cohort_csv):  # it fails before data is read
            err = refused([command, "--input", str(data), "--restarts", "1",
                           "--replicates", "19", "--out", str(out)], capsys)
            assert err == f"error: cannot write {out / blocked} (Is a directory)\n"
        assert {p: p.read_bytes() for p in out.iterdir() if p.is_file()} == before
        assert (out / blocked).is_dir() and len(list(out.iterdir())) == 1 + len(others)

    def test_out_under_a_file_rejected_before_data_is_read(self, tmp_path, capsys):
        (tmp_path / "afile").write_text("not a directory\n")
        err = refused(["substitute", "--input", str(tmp_path / "missing.csv"),
                       "--out", str(tmp_path / "afile")], capsys)
        assert "--out" in err and "no such file" not in err

    @pytest.mark.parametrize("data", [None, b"a,y\nx,1\nz,2\n"], ids=["missing", "non_binary"])
    def test_failed_command_creates_no_out_directory(self, tmp_path, capsys, data):
        cohort = tmp_path / "cohort.csv"
        if data is not None:
            cohort.write_bytes(data)
        refused(["scan", "--input", str(cohort), "--out", str(tmp_path / "newdir" / "sub")], capsys)
        assert not (tmp_path / "newdir").exists()

    def test_out_without_permission_rejected_before_data_is_read(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setattr("subscan.cli.os.access", lambda path, mode: False)
        err = refused(["scan", "--input", str(tmp_path / "missing.csv"),
                       "--out", str(tmp_path / "newdir")], capsys)
        out = tmp_path / "newdir"
        assert err == f"error: --out {out}: cannot write in {tmp_path} (Permission denied)\n"
        assert not (tmp_path / "newdir").exists()

    def test_zero_restarts_rejected_before_work(self, cohort_csv, tmp_path, capsys):
        err = refused(["scan", "--input", str(cohort_csv), "--outcome", "y",
                       "--restarts", "0", "--out", str(tmp_path)], capsys)
        assert "n_restarts" in err


@pytest.fixture(scope="module")
def scan_report(cohort_csv, tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("scanrep")
    assert run(["scan", "--input", str(cohort_csv), "--outcome", "y",
                "--restarts", "10", "--replicates", "20", "--seed", "9",
                "--out", str(out)]) == 0
    return out / "scan_report.json"


def assert_vacuous_reports_refused(command, cohort_csv, scan_report, tmp_path, capsys):
    """``command`` exits 2 with one error line, and writes no --out, on a
    saved descriptor that constrains no feature."""
    # `scan` writes {} when its best subgroup is the whole dataset; f2 has one category
    for i, descriptor in enumerate([{}, {"f2": ["v0"]}]):
        doctored = json.loads(scan_report.read_text())
        doctored["scan"]["descriptor"] = descriptor
        doctored["scan"]["score"] = 0.0
        patched = tmp_path / f"vacuous{i}.json"
        patched.write_text(json.dumps(doctored))
        out = tmp_path / f"out{i}"
        err = refused([command, "--input", str(cohort_csv), "--outcome", "y",
                       "--scan-report", str(patched), "--out", str(out)], capsys)
        assert str(patched) in err
        assert not out.exists()


@pytest.fixture(scope="module")
def zero_score_scan(tmp_path_factory) -> tuple[Path, Path]:
    """(cohort, scan report) of 20k records x 40 features of 4 categories, where
    every random restart starts near-empty and the best subgroup scores 0."""
    out = tmp_path_factory.mktemp("zero")
    assert run([
        "synth", "--n", "20000", "--cardinalities", ",".join(["4"] * 40),
        "--base-rate", "0.05", "--odds-multiplier", "3", "--seed", "4",
        "--planted", "f0=v0|v1;f1=v0|v1", "--out", str(out),
    ]) == 0
    assert run(["scan", "--input", str(out / "cohort.csv"), "--restarts", "5",
                "--replicates", "19", "--seed", "4", "--out", str(out)]) == 0
    assert json.loads((out / "scan_report.json").read_text())["scan"]["score"] == 0.0
    return out / "cohort.csv", out / "scan_report.json"


def test_rank_never_imports_numpy_random(cohort_csv, scan_report, tmp_path):
    """Importing numpy.random costs ~6 MiB of RSS, through secrets, hashlib and
    libcrypto, and rank draws nothing: a draw added to an import path of rank
    would raise its peak memory unseen."""
    code = ("import sys; from subscan.cli import main; "
            "print(main(sys.argv[1:]), 'numpy.random' in sys.modules)")
    argv = ["rank", "--input", str(cohort_csv), "--outcome", "y",
            "--scan-report", str(scan_report), "--out", str(tmp_path / "rank")]
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, timeout=120)
    assert done.stdout.split() == ["0", "False"], done.stderr


class TestRankAndSubstitute:
    def test_rank_emits_table_and_csv(self, cohort_csv, scan_report, tmp_path, report_schema):
        out = tmp_path / "rank"
        assert run(["rank", "--input", str(cohort_csv), "--outcome", "y",
                    "--scan-report", str(scan_report), "--out", str(out)]) == 0
        payload = validate(out / "rank_report.json", report_schema)
        assert {r["feature"] for r in payload["relevance"]} == {"f0", "f1"}
        with open(out / "relevance.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert {r["feature"] for r in rows} == {"f0", "f1"}
        assert [int(r["rank"]) for r in rows] == [1, 2]
        assert all(r["deviation_ratio"] for r in rows)

    def test_rank_with_empty_descriptor_exits_2(
        self, cohort_csv, scan_report, tmp_path, capsys
    ):
        assert_vacuous_reports_refused("rank", cohort_csv, scan_report, tmp_path, capsys)

    def test_rank_detects_mismatched_report(self, cohort_csv, scan_report, tmp_path, capsys):
        doctored = json.loads(scan_report.read_text())
        doctored["scan"]["score"] += 5.0
        patched = tmp_path / "bad_scan.json"
        patched.write_text(json.dumps(doctored))
        err = refused(["rank", "--input", str(cohort_csv), "--outcome", "y",
                       "--scan-report", str(patched), "--out", str(tmp_path)], capsys)
        assert "does not match" in err

    def test_substitute_emits_plot_csv(self, cohort_csv, scan_report, tmp_path, report_schema):
        out = tmp_path / "subst"
        assert run(["substitute", "--input", str(cohort_csv), "--outcome", "y",
                    "--scan-report", str(scan_report), "--replicates", "20",
                    "--seed", "9", "--out", str(out)]) == 0
        payload = validate(out / "substitutions.json", report_schema)
        assert len(payload["substitutions"]) == 3  # f0: 1 swap, f1: 2 swaps
        with open(out / "substitutions.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert list(rows[0]) == ["feature", "from_value", "to_value", "new_score",
                                 "p_value", "odds_ratio", "p_at_floor"]
        for row in rows:
            assert float(row["new_score"]) < json.loads(scan_report.read_text())["scan"]["score"]

    @pytest.mark.parametrize("entry", [("f1", "v1"), ("f2", "v0"), ("nope", "zz")])
    def test_substitute_rejects_a_ranking_of_other_values(
        self, cohort_csv, scan_report, tmp_path, capsys, entry
    ):
        # the scan descriptor is f0=v0, f1=v0: f1=v1 lies outside it, f2 is
        # unconstrained and nope is no feature
        feature, value = entry
        rank = tmp_path / "rank.json"
        rank.write_text(json.dumps({"relevance": [
            {"feature": "f0", "value": "v0", "e_value": 0.1, "subset_deviation": -0.9,
             "global_deviation": 0.05, "deviation_ratio": -18.0, "rank": 1},
            {"feature": feature, "value": value, "e_value": 0.1, "subset_deviation": -0.9,
             "global_deviation": 0.05, "deviation_ratio": -18.0, "rank": 2},
        ]}))
        err = refused(["substitute", "--input", str(cohort_csv), "--outcome", "y",
                       "--scan-report", str(scan_report), "--rank-report", str(rank),
                       "--replicates", "19", "--out", str(tmp_path / "out")], capsys)
        assert str(rank) in err and f"{feature}={value}" in err

    def test_substitute_rejects_a_ranking_that_lists_a_value_twice(
        self, cohort_csv, scan_report, tmp_path, capsys
    ):
        # the sweep looks ranks up by value, so a repeated entry would silently
        # replace the one before it
        assert run(["rank", "--input", str(cohort_csv), "--outcome", "y",
                    "--scan-report", str(scan_report), "--out", str(tmp_path / "rank")]) == 0
        rank = tmp_path / "rank" / "rank_report.json"
        report = json.loads(rank.read_text())
        report["relevance"] += report["relevance"]
        rank.write_text(json.dumps(report))
        err = refused(["substitute", "--input", str(cohort_csv), "--outcome", "y",
                       "--scan-report", str(scan_report), "--rank-report", str(rank),
                       "--replicates", "19", "--out", str(tmp_path / "out")], capsys)
        first = report["relevance"][0]
        assert f"{rank}: relevance entry {first['feature']}={first['value']} is listed twice" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("field, value", [
        ("rank", -7), ("rank", 0), ("e_value", 99.0), ("e_value", -0.5), ("e_value", float("nan")),
    ])
    def test_substitute_rejects_a_ranking_outside_the_schema_bounds(
        self, cohort_csv, scan_report, tmp_path, capsys, field, value
    ):
        # the report schema holds rank >= 1 and e_value in [0, 1]
        assert run(["rank", "--input", str(cohort_csv), "--outcome", "y",
                    "--scan-report", str(scan_report), "--out", str(tmp_path / "rank")]) == 0
        rank = tmp_path / "rank" / "rank_report.json"
        report = json.loads(rank.read_text())
        for entry in report["relevance"]:
            entry[field] = value
        rank.write_text(json.dumps(report))
        err = refused(["substitute", "--input", str(cohort_csv), "--outcome", "y",
                       "--scan-report", str(scan_report), "--rank-report", str(rank),
                       "--replicates", "19", "--out", str(tmp_path / "out")], capsys)
        first = report["relevance"][0]
        assert f"{rank}: relevance entry {first['feature']}={first['value']} has rank" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("field, value", [
        ("restart_index", 2.9), ("restart_index", True), ("restart_index", "2"),
        ("score", "29.236072293462172"), ("score", True), ("score", 10**400),
    ])
    def test_rank_rejects_a_wrongly_typed_scan_field(
        self, cohort_csv, scan_report, tmp_path, capsys, field, value
    ):
        doctored = json.loads(scan_report.read_text())
        if field == "score" and isinstance(value, str):
            value = repr(doctored["scan"]["score"])  # the right number, as a string
        doctored["scan"][field] = value
        patched = tmp_path / "typed.json"
        patched.write_text(json.dumps(doctored))
        err = refused(["rank", "--input", str(cohort_csv), "--outcome", "y",
                       "--scan-report", str(patched), "--out", str(tmp_path / "out")], capsys)
        assert str(patched) in err
        assert not (tmp_path / "out").exists()

    def test_rank_rejects_a_negative_restart_index(self, cohort_csv, scan_report, tmp_path, capsys):
        doctored = json.loads(scan_report.read_text())
        doctored["scan"]["restart_index"] = -3  # the report schema's minimum is 0
        patched = tmp_path / "negative.json"
        patched.write_text(json.dumps(doctored))
        err = refused(["rank", "--input", str(cohort_csv), "--outcome", "y",
                       "--scan-report", str(patched), "--out", str(tmp_path / "out")], capsys)
        assert err == f"error: {patched}: restart_index -3 is negative\n"
        assert not (tmp_path / "out").exists()

    def test_rank_rejects_a_restart_index_past_the_restarts(
        self, cohort_csv, scan_report, tmp_path, capsys
    ):
        doctored = json.loads(scan_report.read_text())
        assert doctored["config"]["restarts"] == 10
        for index in (10, 10**30):
            doctored["scan"]["restart_index"] = index
            patched = tmp_path / f"past_{index}.json"
            patched.write_text(json.dumps(doctored))
            err = refused(["rank", "--input", str(cohort_csv), "--outcome", "y",
                           "--scan-report", str(patched), "--out", str(tmp_path / "out")], capsys)
            assert err == f"error: {patched}: restart_index {index} is past its 10 restarts\n"
            assert not (tmp_path / "out").exists()
        doctored["scan"]["restart_index"] = 9  # the last restart
        patched.write_text(json.dumps(doctored))
        assert run(["rank", "--input", str(cohort_csv), "--outcome", "y",
                    "--scan-report", str(patched), "--out", str(tmp_path / "out")]) == 0

    def test_rank_refuses_a_descriptor_that_matches_no_record(self, tmp_path, capsys):
        cohort, saved = tmp_path / "cohort.csv", tmp_path / "scan.json"
        cohort.write_text("a,b,y\nx,p,1\nz,q,0\nx,p,0\n")  # no record is a=x, b=q
        saved.write_text('{"scan": {"descriptor": {"a": ["x"], "b": ["q"]}, "score": 0.0}}')
        err = refused(["rank", "--input", str(cohort), "--scan-report", str(saved),
                       "--out", str(tmp_path / "out")], capsys)
        assert err == f"error: {saved}: descriptor matches no record of the dataset\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["rank", "substitute"])
    def test_zero_score_report_refused(self, zero_score_scan, tmp_path, capsys, command):
        cohort, report = zero_score_scan
        err = refused([command, "--input", str(cohort), "--scan-report", str(report),
                       "--out", str(tmp_path / "out")], capsys)
        assert str(report) in err
        assert "no subgroup above the global rate was found" in err
        assert not (tmp_path / "out").exists()

    def test_rank_reads_a_missing_restart_index_as_zero(self, cohort_csv, scan_report, tmp_path):
        doctored = json.loads(scan_report.read_text())
        del doctored["scan"]["restart_index"]
        patched = tmp_path / "no_index.json"
        patched.write_text(json.dumps(doctored))
        assert run(["rank", "--input", str(cohort_csv), "--outcome", "y",
                    "--scan-report", str(patched), "--out", str(tmp_path / "out")]) == 0
        ranked = json.loads((tmp_path / "out" / "rank_report.json").read_text())
        assert ranked["scan"]["restart_index"] == 0

    def test_substitute_accepts_a_top_k_ranking(self, cohort_csv, scan_report, tmp_path):
        assert run(["rank", "--input", str(cohort_csv), "--outcome", "y", "--top-k", "1",
                    "--scan-report", str(scan_report), "--out", str(tmp_path / "rank")]) == 0
        ranked = json.loads((tmp_path / "rank" / "rank_report.json").read_text())["relevance"]
        assert len(ranked) == 1
        assert run(["substitute", "--input", str(cohort_csv), "--outcome", "y",
                    "--scan-report", str(scan_report),
                    "--rank-report", str(tmp_path / "rank" / "rank_report.json"),
                    "--replicates", "19", "--out", str(tmp_path / "out")]) == 0

    def test_substitute_with_empty_descriptor_exits_2(
        self, cohort_csv, scan_report, tmp_path, capsys
    ):
        assert_vacuous_reports_refused("substitute", cohort_csv, scan_report, tmp_path, capsys)


MALFORMED_REPORTS = {
    "scan_not_json": ("rank", "scan", "{nope"),
    "scan_top_level_array": ("rank", "scan", "[1, 2]"),
    "scan_block_without_descriptor_rank": ("rank", "scan", '{"scan": {"score": 1.0}}'),
    "scan_block_without_descriptor_substitute": (
        "substitute", "scan", '{"scan": {"score": 1.0}}'),
    "rank_not_json": ("substitute", "rank", "{nope"),
    # a score that is not finite compares false with anything, so it would
    # pass the check against the recomputed score
    "scan_score_nan": ("rank", "scan", '{"scan": {"descriptor": {"f0": ["v0"]}, "score": NaN}}'),
    "scan_score_inf": ("rank", "scan", '{"scan": {"descriptor": {"f0": ["v0"]}, "score": 1e999}}'),
    "scan_score_nan_string": (
        "rank", "scan", '{"scan": {"descriptor": {"f0": ["v0"]}, "score": "nan"}}'),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_REPORTS))
def test_malformed_saved_report_exits_2(case, cohort_csv, scan_report, tmp_path, capsys):
    command, which, text = MALFORMED_REPORTS[case]
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    argv = [command, "--input", str(cohort_csv), "--outcome", "y", "--out", str(tmp_path)]
    if which == "scan":
        argv += ["--scan-report", str(bad)]
    else:
        argv += ["--scan-report", str(scan_report), "--rank-report", str(bad)]
    err = refused(argv, capsys)
    assert "Traceback" not in err and str(bad) in err


class TestPipeline:
    def test_end_to_end_denormalizes(self, cohort_csv, tmp_path, report_schema):
        out = tmp_path / "pipe"
        code = run(["pipeline", "--input", str(cohort_csv), "--outcome", "y",
                    "--restarts", "10", "--replicates", "30", "--seed", "9",
                    "--out", str(out)])
        assert code == 0
        payload = validate(out / "report.json", report_schema)
        assert payload["greedy"]["denormalized"] is True
        assert payload["greedy"]["final_p"] > 0.05
        assert payload["scan"]["descriptor"] == {"f0": ["v0"], "f1": ["v0"]}
        assert (out / "relevance.csv").exists()
        assert (out / "substitutions.csv").exists()

    def test_reports_identical_modulo_meta(self, cohort_csv, tmp_path):
        args = ["pipeline", "--input", str(cohort_csv), "--outcome", "y",
                "--restarts", "5", "--replicates", "15", "--seed", "4", "--alpha", "0.1"]
        out = tmp_path / "same"
        assert run(args + ["--out", str(out)]) == 0
        first = json.loads((out / "report.json").read_text())
        assert run(args + ["--out", str(out)]) == 0
        second = json.loads((out / "report.json").read_text())
        assert first["meta"] != second["meta"] or True  # meta may differ
        first["meta"] = second["meta"] = None
        assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)

    def test_whole_dataset_subgroup_exits_2_before_bootstrap(self, tmp_path, capsys):
        # one single-category feature: the best subgroup is the whole dataset
        data = tmp_path / "c.csv"
        data.write_text("a,y\nx,0\nx,1\nx,0\nx,1\n")
        out = tmp_path / "p"
        with mock.patch("subscan.cli.null_score_distribution") as bootstrap:
            err = refused(["pipeline", "--input", str(data), "--outcome", "y",
                           "--replicates", "19", "--out", str(out)], capsys)
        assert "the best subgroup is the whole dataset" in err
        assert not (out / "report.json").exists()
        bootstrap.assert_not_called()

    def test_zero_score_subgroup_exits_2_before_bootstrap(self, zero_score_scan, tmp_path, capsys):
        out = tmp_path / "p"
        with mock.patch("subscan.cli.null_score_distribution") as bootstrap:
            err = refused(["pipeline", "--input", str(zero_score_scan[0]), "--restarts", "5",
                           "--replicates", "19", "--seed", "4", "--out", str(out)], capsys)
        assert "no subgroup above the global rate was found" in err
        assert not (out / "report.json").exists()
        bootstrap.assert_not_called()

    def test_worker_counts_agree(self, cohort_csv, tmp_path):
        base = ["pipeline", "--input", str(cohort_csv), "--outcome", "y",
                "--restarts", "5", "--replicates", "12", "--seed", "4", "--alpha", "0.1"]
        out1, out2 = tmp_path / "w1", tmp_path / "w2"
        assert run(base + ["--workers", "1", "--out", str(out1)]) == 0
        assert run(base + ["--workers", "2", "--out", str(out2)]) == 0
        a = json.loads((out1 / "report.json").read_text())
        b = json.loads((out2 / "report.json").read_text())
        a["meta"] = b["meta"] = None
        a["config"]["workers"] = b["config"]["workers"] = None
        a["config"]["out"] = b["config"]["out"] = None
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


@pytest.mark.parametrize("command, report, stages", [
    ("synth", "planted.json", ["generate", "write"]),
    ("scan", "scan_report.json", ["load", "scan", "significance"]),
    ("rank", "rank_report.json", ["load", "rank"]),
    ("substitute", "substitutions.json", ["load", "rank", "significance", "sweep"]),
    ("pipeline", "report.json", ["load", "scan", "significance", "rank", "sweep", "greedy"]),
])
def test_stage_seconds_name_each_stage_in_order(
    command, report, stages, cohort_csv, scan_report, tmp_path
):
    if command == "synth":
        argv = ["--n", "200", "--cardinalities", "2,3", "--base-rate", "0.1",
                "--odds-multiplier", "2"]
    else:
        argv = ["--input", str(cohort_csv), "--outcome", "y"]
    if command in ("rank", "substitute"):
        argv += ["--scan-report", str(scan_report)]
    if command in ("scan", "substitute", "pipeline"):
        argv += ["--restarts", "2", "--replicates", "19"]
    assert run([command, *argv, "--out", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / report).read_text())
    assert list(payload["meta"]["stage_seconds"]) == stages


class TestReplicatesAgainstAlpha:
    """With R replicates no p-value is below 1/(R+1), so an alpha under that
    floor could never find anything significant."""

    @pytest.fixture(params=["pipeline", "substitute"])
    def command(self, request, cohort_csv, scan_report) -> list[str]:
        argv = [request.param, "--input", str(cohort_csv), "--outcome", "y", "--restarts", "2"]
        if request.param == "substitute":
            argv += ["--scan-report", str(scan_report)]
        return argv

    def test_too_few_replicates_rejected(self, command, tmp_path, capsys):
        err = refused(command + ["--replicates", "18", "--alpha", "0.05",
                                 "--out", str(tmp_path / "out")], capsys)
        assert err.startswith("error: --replicates 18 ")
        assert "at least 19 replicates" in err
        assert not (tmp_path / "out").exists()

    def test_floor_at_alpha_accepted(self, command, tmp_path):
        assert run(command + ["--replicates", "19", "--alpha", "0.05",
                              "--out", str(tmp_path)]) == 0

    def test_scan_unaffected(self, cohort_csv, tmp_path):
        assert run(["scan", "--input", str(cohort_csv), "--outcome", "y", "--restarts", "2",
                    "--replicates", "18", "--alpha", "0.05", "--out", str(tmp_path)]) == 0


class TestConfigFile:
    def test_flags_override_config_file(self, cohort_csv, tmp_path):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({
            "input": str(cohort_csv), "outcome": "y",
            "restarts": 4, "replicates": 10, "seed": 2,
        }))
        out = tmp_path / "run"
        assert run(["scan", "--config", str(conf), "--seed", "6",
                    "--out", str(out)]) == 0
        payload = json.loads((out / "scan_report.json").read_text())
        assert payload["config"]["seed"] == 6       # flag wins
        assert payload["config"]["restarts"] == 4   # file survives

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"restart_count": 3}))
        assert "unknown config key" in refused(["scan", "--config", str(conf),
                                                "--out", str(tmp_path)], capsys)

    @pytest.mark.parametrize("key, value", [("restarts", "10"), ("workers", "2")])
    def test_wrongly_typed_value_rejected(self, cohort_csv, tmp_path, capsys, key, value):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"input": str(cohort_csv), key: value}))
        err = refused(["scan", "--config", str(conf), "--out", str(tmp_path)], capsys)
        assert err.startswith(f"error: config key {key!r} must be int")

    def test_invalid_json_rejected(self, tmp_path):
        conf = tmp_path / "conf.json"
        conf.write_text("{nope")
        assert run(["scan", "--config", str(conf), "--out", str(tmp_path)]) == 2


HINTS = get_type_hints(PipelineConfig)
FLOAT_KNOBS = [f for f in fields(PipelineConfig)
               if float in (get_args(HINTS[f.name]) or (HINTS[f.name],))]


@pytest.mark.parametrize("knob", FLOAT_KNOBS, ids=lambda f: f.name)
@pytest.mark.parametrize("where, text", [
    ("flag", "inf"), ("flag", "-inf"), ("flag", "nan"), ("config", "Infinity"), ("config", "NaN"),
    pytest.param("config", "-" + "9" * 400, id="config-int-past-the-float-range"),
])
def test_non_finite_float_knob_rejected_before_data_is_read(tmp_path, capsys, knob, where, text):
    """The report echoes every knob and JSON has no inf or nan, so such a value
    must stop the command before it reads data or makes --out."""
    if "synth" in knob.metadata["commands"]:
        command, knobs = "synth", {"n": "100", "cardinalities": "2,2", "base_rate": "0.1",
                                   "odds_multiplier": "2"}
    else:
        command, knobs = "pipeline", {"input": str(tmp_path / "missing.csv")}
    knobs.pop(knob.name, None)  # a flag would win over the config file
    argv = [command, "--out", str(tmp_path / "out")]
    argv += [f"--{k.replace('_', '-')}={v}" for k, v in knobs.items()]
    if where == "flag":
        argv.append(f"--{knob.name.replace('_', '-')}={text}")
    else:
        (tmp_path / "conf.json").write_text(f'{{"{knob.name}": {text}}}')
        argv += ["--config", str(tmp_path / "conf.json")]
    assert refused(argv, capsys).startswith(f"error: {knob.name} must be a finite number")
    assert not (tmp_path / "out").exists()


class TestAtomicWrites:
    def test_failed_json_write_keeps_the_old_file(self, tmp_path):
        target = tmp_path / "report.json"
        write_json(target, {"score": 1.0})
        before = target.read_bytes()
        with pytest.raises(ValueError):  # allow_nan=False rejects NaN mid-dump
            write_json(target, {"a": 1, "score": float("nan")})
        assert target.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["report.json"]


class TestRoundTrip:
    def test_cohort_csv_reloads_identically(self, cohort_csv, tmp_path):
        from subscan.tabular import write_csv

        ds = load_csv(cohort_csv, "y")
        again = tmp_path / "again.csv"
        write_csv(ds, again, "y")
        assert load_csv(again, "y") == ds
