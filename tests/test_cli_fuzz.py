"""CLI fuzz: malformed CSV bytes, --config files and saved reports.

Whatever the input, the CLI exits 0, 2 (usage or input error) or 3
(degenerate data); a nonzero exit prints exactly one ``error:`` line on
stderr and never a traceback.
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stderr
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subscan.cli import PipelineConfig, main
from subscan.postdiscovery import RelevanceEntry

FUZZ = settings(max_examples=60, deadline=None)

# JSON values of every type, NaN and infinities included (json.dumps writes them)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=6,
)
# values a knob or a report field could plausibly hold, mixed with anything
plausible = st.one_of(
    st.integers(-2, 40),
    st.floats(-1.0, 2.0),
    st.sampled_from(["f0", "f1", "v0", "v1", "y", "", "fixed", "shuffled", "unity",
                     "global_deviation", "nan"]),
    json_values,
)
not_json = st.binary(max_size=40)


def dumped(values: st.SearchStrategy) -> st.SearchStrategy[bytes]:
    """The JSON text of each value, as the bytes of a file."""
    return values.map(lambda v: json.dumps(v).encode())


CSV_TOKENS = [b"x", b"z", b"0", b"1", b"y", b",", b"\n", b"\r\n", b'"', b" ", b"\x00",
              b"\xff", b"\xc3", b"true", b"<missing>"]
csv_bytes = st.one_of(
    st.binary(max_size=80),
    st.lists(st.sampled_from(CSV_TOKENS), max_size=40).map(lambda t: b"a,b,y\n" + b"".join(t)),
)

config_file = st.one_of(
    not_json,
    dumped(json_values),
    dumped(st.dictionaries(
        st.sampled_from([f.name for f in fields(PipelineConfig)] + ["bogus"]),
        plausible, max_size=4,
    )),
)

descriptor = st.one_of(
    json_values,
    st.dictionaries(st.sampled_from(["f0", "f1", "zz"]),
                    st.lists(st.sampled_from(["v0", "v1", "v2", "q"]), max_size=3) | plausible,
                    max_size=3),
)
scan_report_file = st.one_of(
    not_json,
    dumped(json_values),
    dumped(st.fixed_dictionaries({}, optional={
        "scan": json_values
        | st.fixed_dictionaries({"descriptor": descriptor, "score": plausible},
                                optional={"restart_index": plausible}),
    })),
)
relevance_row = st.fixed_dictionaries({}, optional={
    f.name: plausible for f in fields(RelevanceEntry)
}) | st.fixed_dictionaries({f.name: plausible for f in fields(RelevanceEntry)})
rank_report_file = st.one_of(
    not_json,
    dumped(json_values),
    dumped(st.fixed_dictionaries({
        "relevance": st.lists(relevance_row, min_size=1, max_size=4) | json_values,
    })),
)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory) -> Path:
    return tmp_path_factory.mktemp("fuzz")


@pytest.fixture(scope="module")
def cohort(workdir) -> tuple[Path, Path]:
    """A small cohort and the scan report of it: (cohort.csv, scan_report.json)."""
    out = workdir / "cohort"
    assert main(["synth", "--n", "300", "--cardinalities", "2,3", "--base-rate", "0.1",
                 "--odds-multiplier", "4", "--planted", "f0=v0", "--seed", "1",
                 "--out", str(out)]) == 0
    assert main(["scan", "--input", str(out / "cohort.csv"), "--restarts", "2",
                 "--replicates", "1", "--out", str(out)]) == 0
    return out / "cohort.csv", out / "scan_report.json"


def assert_clean_exit(argv: list[str]) -> None:
    err = io.StringIO()
    with redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3)
    if code:
        text = err.getvalue()
        assert "Traceback" not in text
        assert text.startswith("error: ") and text.count("\n") == 1, text


@FUZZ
@given(content=csv_bytes)
def test_malformed_csv(workdir, content):
    path = workdir / "input.csv"
    path.write_bytes(content)
    assert_clean_exit(["scan", "--input", str(path), "--restarts", "1", "--replicates", "1",
                       "--out", str(workdir / "out")])


@FUZZ
@given(content=config_file, command=st.sampled_from(["scan", "pipeline"]))
def test_malformed_config(workdir, cohort, content, command):
    path = workdir / "config.json"
    path.write_bytes(content)
    # flags win over the file, so input, output and the work done stay bounded
    assert_clean_exit([command, "--config", str(path), "--input", str(cohort[0]),
                       "--restarts", "1", "--replicates", "19", "--workers", "1",
                       "--out", str(workdir / "out")])


@FUZZ
@given(content=scan_report_file)
def test_malformed_scan_report(workdir, cohort, content):
    path = workdir / "scan.json"
    path.write_bytes(content)
    assert_clean_exit(["rank", "--input", str(cohort[0]), "--scan-report", str(path),
                       "--out", str(workdir / "out")])


@FUZZ
@given(content=rank_report_file)
def test_malformed_rank_report(workdir, cohort, content):
    path = workdir / "rank.json"
    path.write_bytes(content)
    assert_clean_exit(["substitute", "--input", str(cohort[0]), "--scan-report", str(cohort[1]),
                       "--rank-report", str(path), "--restarts", "1", "--replicates", "19",
                       "--out", str(workdir / "out")])
