"""Workload definitions and output checks for the subscan benchmark.

Each workload is one `subscan` CLI command run on a synthetic cohort made by
`subscan synth`. The benchmark's --seed is passed both to `synth` (so the seed
decides the inputs) and to the measured command.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ALPHA = 0.05
BASE_RATE = 0.05
COHORT_DIR = "cohort"
OUT_DIR = "out"


def _values(count: int) -> str:
    return "|".join(f"v{i}" for i in range(count))


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    cardinalities: tuple[int, ...]
    planted: str
    odds_multiplier: float
    command: str            # "pipeline" or "rank"
    restarts: int = 0
    replicates: int = 0
    workers: int = 1

    def synth_args(self, seed: int) -> list[str]:
        return [
            "synth", "--n", str(self.n),
            "--cardinalities", ",".join(map(str, self.cardinalities)),
            "--base-rate", str(BASE_RATE),
            "--odds-multiplier", str(self.odds_multiplier),
            "--planted", self.planted,
            "--seed", str(seed), "--out", COHORT_DIR,
        ]

    def command_args(self, seed: int) -> list[str]:
        args = [self.command, "--input", f"{COHORT_DIR}/cohort.csv", "--outcome", "y",
                "--seed", str(seed), "--out", OUT_DIR]
        if self.command == "pipeline":
            args += ["--restarts", str(self.restarts), "--replicates", str(self.replicates),
                     "--workers", str(self.workers), "--alpha", str(ALPHA)]
        else:
            args += ["--scan-report", f"{COHORT_DIR}/scan_report.json"]
        return args

    @property
    def outputs(self) -> tuple[str, ...]:
        if self.command == "pipeline":
            return ("report.json", "relevance.csv", "substitutions.csv")
        return ("rank_report.json", "relevance.csv")


# Why each workload exists is recorded in README.md and BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("cells", 50_000, (3, 4, 5, 2, 6, 3, 4), "f0=v0;f2=v0|v1", 3.0,
                 "pipeline", restarts=10, replicates=19, workers=1),
        Workload("flat_w2", 50_000, (5,) * 10, "f0=v0|v1;f1=v0|v1", 4.0,
                 "pipeline", restarts=10, replicates=19, workers=2),
        Workload("fanout", 300_000, (40, 40, 6), f"f0={_values(20)};f1={_values(20)}", 2.0,
                 "pipeline", restarts=1, replicates=19, workers=1),
        Workload("rerank", 1_000_000, (4,) * 8, "f0=v0|v1;f1=v0|v1", 3.0, "rank"),
    )
}


class CheckError(Exception):
    """An output of the program is wrong."""


@dataclass(frozen=True)
class Cohort:
    """The synthetic CSV as the benchmark reads it, independently of subscan."""

    features: tuple[str, ...]
    rows: np.ndarray        # (N, M) int64; value k stands for the label "vk"
    y: np.ndarray           # (N,) int64 in {0, 1}

    @classmethod
    def read(cls, path: Path) -> "Cohort":
        # `subscan synth` writes labels "v<k>", a 0/1 outcome and CRLF line ends,
        # so stripping the "v" leaves a comma-separated integer matrix.
        header, body = path.read_bytes().split(b"\r\n", 1)
        names = header.decode().split(",")
        flat = np.fromstring(
            body.replace(b"v", b"").replace(b"\r\n", b",").decode(), dtype=np.int64, sep=","
        )
        if flat.size % len(names):
            raise CheckError(f"{path}: ragged CSV")
        table = flat.reshape(-1, len(names))
        y_col = names.index("y")
        keep = [j for j in range(len(names)) if j != y_col]
        return cls(tuple(names[j] for j in keep), table[:, keep], table[:, y_col])

    def mask(self, descriptor: dict[str, list[str]]) -> np.ndarray:
        mask = np.ones(len(self.y), dtype=bool)
        for feature, labels in descriptor.items():
            col = self.rows[:, self.features.index(feature)]
            mask &= np.isin(col, [int(label[1:]) for label in labels])
        return mask

    def score(self, descriptor: dict[str, list[str]]) -> float:
        """Closed-form Bernoulli scan score of a descriptor, from raw counts."""
        mask = self.mask(descriptor)
        c, n = float(self.y[mask].sum()), float(mask.sum())
        mu = float(self.y.sum()) / len(self.y)
        if c == n:
            return -n * math.log(mu)
        if c / n <= mu:
            return 0.0
        q = c * (1.0 - mu) / (mu * (n - c))
        return max(c * math.log(q) - n * math.log(1.0 - mu + q * mu), 0.0)

    def e_value(self, feature: str, label: str) -> float:
        hits = self.rows[:, self.features.index(feature)] == int(label[1:])
        return float(self.y[hits].sum()) / float(hits.sum())


def planted_descriptor(cohort_dir: Path) -> dict[str, list[str]]:
    return json.loads((cohort_dir / "planted.json").read_text())["planted_descriptor"]


def write_scan_report(cohort_dir: Path, cohort: Cohort, planted: dict[str, list[str]]) -> None:
    """Saved scan report for `rank`: the planted descriptor with its score.

    `rank` reads only the descriptor, score and restart index of the scan
    block, and checks the score against the data.
    """
    block = {"descriptor": planted, "score": cohort.score(planted), "restart_index": 0}
    (cohort_dir / "scan_report.json").write_text(json.dumps({"scan": block}))


def _same_descriptor(a: dict[str, list[str]], b: dict[str, list[str]]) -> bool:
    # load_csv numbers categories by first appearance, so compare labels as sets.
    return {k: set(v) for k, v in a.items()} == {k: set(v) for k, v in b.items()}


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * (1.0 + abs(b))


def check_outputs(
    workload: Workload, out_dir: Path, cohort: Cohort,
    planted: dict[str, list[str]], validator,
) -> None:
    """Raise CheckError unless every output of one command run is correct."""
    for name in workload.outputs:
        if not (out_dir / name).is_file():
            raise CheckError(f"missing output {name}")
    report = json.loads((out_dir / workload.outputs[0]).read_text())
    errors = sorted(validator.iter_errors(report), key=str)
    if errors:
        raise CheckError(f"report fails the schema: {errors[0].message}")
    found = report["scan"]["descriptor"]
    expected = cohort.score(found)
    if not _close(report["scan"]["score"], expected, 1e-9):
        raise CheckError(f"score {report['scan']['score']} != recomputed {expected}")
    # A weak planted signal need not be the sample's best subgroup; a different
    # descriptor is correct only if it scores higher than the planted one.
    if not _same_descriptor(found, planted) and not expected > cohort.score(planted):
        raise CheckError(f"descriptor {found} is neither the planted {planted} "
                         "nor higher-scoring")
    if workload.command == "pipeline":
        floor = 1.0 / (workload.replicates + 1)
        p = report["scan"]["p_value"]
        if not (_close(p, floor, 1e-12) and p <= ALPHA):
            raise CheckError(f"p_value {p} is not the floor {floor} <= {ALPHA}")
        if report["greedy"]["denormalized"] is not True:
            raise CheckError("greedy walk did not denormalize the subgroup")
    else:
        pairs = sorted((e["feature"], e["value"]) for e in report["relevance"])
        if pairs != sorted((f, v) for f, vs in found.items() for v in vs):
            raise CheckError(f"relevance rows {pairs} do not match the descriptor")
        for e in report["relevance"]:
            want = cohort.e_value(e["feature"], e["value"])
            if not _close(e["e_value"], want, 1e-12):
                raise CheckError(f"e_value {e['e_value']} != recomputed {want}")


def output_hashes(workload: Workload, out_dir: Path) -> dict[str, str]:
    """SHA-256 of every file the command writes; JSON reports with meta masked."""
    hashes = {}
    for name in workload.outputs:
        data = (out_dir / name).read_bytes()
        if name.endswith(".json"):
            report = json.loads(data)
            report["meta"] = "MASKED"
            data = json.dumps(report, indent=2, sort_keys=True).encode()
        hashes[name] = hashlib.sha256(data).hexdigest()
    return hashes
