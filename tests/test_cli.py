from __future__ import annotations

import csv
import json
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

from subscan.cli import main
from subscan.report import write_json
from subscan.tabular import load_csv


def run(argv: list[str]) -> int:
    return main(argv)


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
        code = run(["synth", "--n", "100", "--cardinalities", "2,2", "--base-rate",
                    "0.1", "--odds-multiplier", "1.0", "--seed", "0",
                    "--out", str(tmp_path)])
        assert code == 2
        assert "odds_multiplier" in capsys.readouterr().err

    def test_missing_required_knob_rejected(self, tmp_path):
        assert run(["synth", "--n", "100", "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize(
        "planted", ["f2=v0", "f0=v3", "f0", "g0=v0", "f0=v0;", "f0=v0|v0", "f0=v0;f0=v1"]
    )
    def test_bad_planted_descriptor_rejected(self, tmp_path, capsys, planted):
        code = run(["synth", "--n", "100", "--cardinalities", "2,3", "--base-rate", "0.1",
                    "--odds-multiplier", "2", "--planted", planted, "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (tmp_path / "cohort.csv").exists()

    def test_repeated_planted_feature_named(self, tmp_path, capsys):
        code = run(["synth", "--n", "100", "--cardinalities", "2,3", "--base-rate", "0.1",
                    "--odds-multiplier", "2", "--planted", "f1=v0;f0=v0; f0=v1",
                    "--out", str(tmp_path)])
        assert code == 2
        assert "'f0'" in capsys.readouterr().err


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
        code = run(["scan", "--input", str(tmp_path / "nope.csv"), "--outcome", "y",
                    "--out", str(tmp_path)])
        assert code == 2
        assert "no such file" in capsys.readouterr().err

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
        code = run(argv + ["--input", str(tmp_path / "missing.csv"), "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert message in err and "no such file" not in err

    @pytest.mark.parametrize("name, content", [
        ("latin1.csv", b"a,y\n\xff\xfe,1\n"),
        ("long_field.csv", b"a,y\n" + b"x" * 131_073 + b",1\n"),
    ], ids=["not_utf8", "field_over_csv_limit"])
    def test_unreadable_csv_exits_2(self, tmp_path, capsys, name, content):
        bad = tmp_path / name
        bad.write_bytes(content)
        code = run(["scan", "--input", str(bad), "--outcome", "y", "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
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
        code = run(["scan", "--input", str(cohort_csv), "--restarts", "1",
                    "--replicates", "1", "--out", str(tmp_path / out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
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
            code = run([command, "--input", str(data), "--restarts", "1",
                        "--replicates", "19", "--out", str(out)])
            assert code == 2
            err = capsys.readouterr().err
            assert err == f"error: cannot write {out / blocked} (Is a directory)\n"
        assert {p: p.read_bytes() for p in out.iterdir() if p.is_file()} == before
        assert (out / blocked).is_dir() and len(list(out.iterdir())) == 1 + len(others)

    def test_out_under_a_file_rejected_before_data_is_read(self, tmp_path, capsys):
        (tmp_path / "afile").write_text("not a directory\n")
        code = run(["substitute", "--input", str(tmp_path / "missing.csv"),
                    "--out", str(tmp_path / "afile")])
        assert code == 2
        err = capsys.readouterr().err
        assert "--out" in err and "no such file" not in err

    def test_zero_restarts_rejected_before_work(self, cohort_csv, tmp_path, capsys):
        code = run(["scan", "--input", str(cohort_csv), "--outcome", "y",
                    "--restarts", "0", "--out", str(tmp_path)])
        assert code == 2
        assert "n_restarts" in capsys.readouterr().err


@pytest.fixture(scope="module")
def scan_report(cohort_csv, tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("scanrep")
    assert run(["scan", "--input", str(cohort_csv), "--outcome", "y",
                "--restarts", "10", "--replicates", "20", "--seed", "9",
                "--out", str(out)]) == 0
    return out / "scan_report.json"


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

    def test_rank_with_empty_descriptor_exits_2(self, cohort_csv, scan_report, tmp_path):
        doctored = json.loads(scan_report.read_text())
        doctored["scan"]["descriptor"] = {}
        doctored["scan"]["score"] = 0.0
        patched = tmp_path / "empty_scan.json"
        patched.write_text(json.dumps(doctored))
        code = run(["rank", "--input", str(cohort_csv), "--outcome", "y",
                    "--scan-report", str(patched), "--out", str(tmp_path)])
        assert code == 2

    def test_rank_detects_mismatched_report(self, cohort_csv, scan_report, tmp_path, capsys):
        doctored = json.loads(scan_report.read_text())
        doctored["scan"]["score"] += 5.0
        patched = tmp_path / "bad_scan.json"
        patched.write_text(json.dumps(doctored))
        code = run(["rank", "--input", str(cohort_csv), "--outcome", "y",
                    "--scan-report", str(patched), "--out", str(tmp_path)])
        assert code == 2
        assert "does not match" in capsys.readouterr().err

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

    def test_substitute_empty_descriptor_writes_empty_tables(
        self, cohort_csv, scan_report, tmp_path
    ):
        doctored = json.loads(scan_report.read_text())
        doctored["scan"]["descriptor"] = {}
        doctored["scan"]["score"] = 0.0
        patched = tmp_path / "empty_scan.json"
        patched.write_text(json.dumps(doctored))
        out = tmp_path / "none"
        code = run(["substitute", "--input", str(cohort_csv), "--outcome", "y",
                    "--scan-report", str(patched), "--out", str(out)])
        assert code == 0
        payload = json.loads((out / "substitutions.json").read_text())
        assert payload["substitutions"] == []
        with open(out / "substitutions.csv", newline="") as fh:
            assert list(csv.DictReader(fh)) == []


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
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert str(bad) in err


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
        code = run(command + ["--replicates", "18", "--alpha", "0.05",
                              "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --replicates 18 ") and err.count("\n") == 1
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
        assert run(["scan", "--config", str(conf), "--out", str(tmp_path)]) == 2
        assert "unknown config key" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [("restarts", "10"), ("workers", "2")])
    def test_wrongly_typed_value_rejected(self, cohort_csv, tmp_path, capsys, key, value):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"input": str(cohort_csv), key: value}))
        assert run(["scan", "--config", str(conf), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: config key {key!r} must be int")
        assert err.count("\n") == 1

    def test_invalid_json_rejected(self, tmp_path):
        conf = tmp_path / "conf.json"
        conf.write_text("{nope")
        assert run(["scan", "--config", str(conf), "--out", str(tmp_path)]) == 2


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
