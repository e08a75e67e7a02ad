"""Command-line pipeline driver.

Subcommands: synth | scan | rank | substitute | pipeline. Every stochastic
stage derives its stream from the single --seed, so a command is idempotent
given identical inputs and seed, at any worker count. A JSON config file
(--config) can hold any knob; explicit flags win over the file.

Exit codes: 0 success, 2 usage or input error, 3 degenerate data (outcomes
all 0 or all 1).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Any, get_args, get_type_hints

import numpy as np

from . import report as rep
from .errors import ContractError, DegenerateDataError, LoadError
from .postdiscovery import (
    RelevanceConfig,
    RelevanceEntry,
    cross_substitute_greedy,
    enumerate_substitutions,
    rank_feature_relevance,
    single_substitution_sweep,
)
from .scan import ScanConfig, ScanResult, evaluate, scan
from .significance import BootstrapConfig, null_score_distribution, p_from_null_scores
from .tabular import (
    Dataset,
    SubsetDescriptor,
    SyntheticSpec,
    _synthetic_schema,
    generate_synthetic,
    load_csv,
    write_csv,
)


@dataclass
class PipelineConfig:
    """Merged view of defaults, config file, and command-line flags."""

    input: str | None = None
    outcome: str = "y"
    out: str = "."
    seed: int = 0
    workers: int = 1
    alpha: float = 0.05
    restarts: int = 10
    max_passes: int = 20
    feature_order: str = "fixed"
    replicates: int = 50
    reference: str = "subset_mean"
    ranking_mode: str = "deviation_ratio"
    top_k: int | None = None
    delta_threshold: float | None = None
    score_threshold: float | None = None
    unconditional: bool = False
    scan_report: str | None = None
    rank_report: str | None = None
    n: int | None = None
    cardinalities: str | None = None
    base_rate: float | None = None
    odds_multiplier: float | None = None
    planted: str | None = None

    def scan_config(self) -> ScanConfig:
        return ScanConfig(
            n_restarts=self.restarts,
            max_passes=self.max_passes,
            seed=self.seed,
            feature_order=self.feature_order,  # type: ignore[arg-type]
        )

    def bootstrap_config(self) -> BootstrapConfig:
        return BootstrapConfig(
            n_replicates=self.replicates,
            seed=self.seed,
            scan_config=self.scan_config(),
        )

    def relevance_config(self) -> RelevanceConfig:
        return RelevanceConfig(
            reference_expectation=self.reference,  # type: ignore[arg-type]
            ranking_mode=self.ranking_mode,  # type: ignore[arg-type]
            top_k=self.top_k,
            threshold=self.delta_threshold,
        )

    def echo(self) -> dict[str, Any]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def _read_json_object(path: Path, kind: str) -> dict[str, Any]:
    """The JSON object stored at ``path``, or LoadError naming the file."""
    if not path.exists():
        raise LoadError(f"no such {kind}: {path}")
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (ValueError, OSError) as e:  # not JSON, not UTF-8, or a directory
        raise LoadError(f"{path}: cannot read {kind} ({e})") from None
    if not isinstance(payload, dict):
        raise LoadError(f"{path}: {kind} must be a JSON object")
    return payload


def _check_type(hints: dict[str, Any], key: str, value: Any, what: str) -> None:
    """ContractError unless a JSON ``value`` has the declared type ``hints[key]``."""
    allowed = get_args(hints[key]) or (hints[key],)
    # exact types, so a JSON bool is no int; a float field takes an int
    if type(value) not in allowed and not (float in allowed and type(value) is int):
        names = " or ".join("null" if t is type(None) else t.__name__ for t in allowed)
        raise ContractError(f"{what} {key!r} must be {names}, got {type(value).__name__}")


def _merged_config(args: argparse.Namespace) -> PipelineConfig:
    cfg = PipelineConfig()
    hints = get_type_hints(PipelineConfig)  # field name -> declared type
    if getattr(args, "config", None):
        file_cfg = _read_json_object(Path(args.config), "config file")
        for key, value in file_cfg.items():
            if key not in hints:
                raise ContractError(f"unknown config key {key!r}")
            _check_type(hints, key, value, "config key")
            setattr(cfg, key, value)
    for key in hints:
        value = getattr(args, key, None)
        if value is not None:
            setattr(cfg, key, value)
    if cfg.workers < 1:
        raise ContractError("workers must be >= 1")
    if not 0.0 < cfg.alpha < 1.0:
        raise ContractError("alpha must lie in (0, 1)")
    cfg.bootstrap_config()  # and the scan config: bad knobs fail before data is read
    cfg.relevance_config()
    if args.subcommand in ("pipeline", "substitute") and 1 / (cfg.replicates + 1) > cfg.alpha:
        least = 1 / cfg.alpha - 1  # inf for a subnormal alpha
        raise ContractError(
            f"--replicates {cfg.replicates} cannot give a p-value at or below --alpha "
            f"{cfg.alpha}: the smallest is 1/({cfg.replicates} + 1); use at least "
            f"{math.ceil(least) if math.isfinite(least) else least} replicates"
        )
    return cfg


class _StageTimer:
    def __init__(self) -> None:
        self.seconds: dict[str, float] = {}

    @contextmanager
    def stage(self, name: str):
        start = time.perf_counter()
        yield
        self.seconds[name] = time.perf_counter() - start


def _out_dir(cfg: PipelineConfig) -> Path:
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _require_input(cfg: PipelineConfig) -> Dataset:
    if not cfg.input:
        raise ContractError("--input is required")
    return load_csv(cfg.input, cfg.outcome)


def _parse_planted(
    spec_string: str, cardinalities: tuple[int, ...]
) -> SubsetDescriptor:
    """Parse 'f0=v0|v1;f2=v3' into a descriptor over synthetic feature names."""
    labels: dict[str, list[str]] = {}
    for clause in spec_string.split(";"):
        name, sep, values = clause.partition("=")
        if not sep:
            raise ContractError(f"bad planted clause {clause.strip()!r}; expected fK=vI|vJ")
        if name.strip() in labels:
            raise ContractError(f"planted feature {name.strip()!r} given twice")
        labels[name.strip()] = [v.strip() for v in values.split("|")]
    return SubsetDescriptor.from_labels(_synthetic_schema(cardinalities), labels)


def _default_planted(cardinalities: tuple[int, ...]) -> SubsetDescriptor:
    """Constrain the first two multi-category features to their first half."""
    constraints: dict[int, list[int]] = {}
    for z, card in enumerate(cardinalities):
        if card >= 2:
            constraints[z] = list(range(math.ceil(card / 2)))
            if len(constraints) == 2:
                break
    if not constraints:
        raise ContractError(
            "no feature has cardinality >= 2; nothing can be planted"
        )
    return SubsetDescriptor.from_dict(constraints)


def cmd_synth(cfg: PipelineConfig) -> int:
    if cfg.n is None or cfg.cardinalities is None:
        raise ContractError("synth requires --n and --cardinalities")
    if cfg.base_rate is None or cfg.odds_multiplier is None:
        raise ContractError("synth requires --base-rate and --odds-multiplier")
    try:
        cards = tuple(int(c) for c in cfg.cardinalities.split(","))
    except ValueError:
        raise ContractError(
            f"bad --cardinalities {cfg.cardinalities!r}; expected e.g. 2,3,4"
        ) from None
    planted = (
        _parse_planted(cfg.planted, cards)
        if cfg.planted
        else _default_planted(cards)
    )
    spec = SyntheticSpec(
        n_records=cfg.n,
        cardinalities=cards,
        base_rate=cfg.base_rate,
        planted=planted,
        odds_multiplier=cfg.odds_multiplier,
        seed=cfg.seed,
    )
    timer = _StageTimer()
    with timer.stage("generate"):
        dataset, descriptor = generate_synthetic(spec)
    out = _out_dir(cfg)
    with timer.stage("write"):
        write_csv(dataset, out / "cohort.csv", cfg.outcome)
        payload = rep.build_report(
            "synth",
            cfg.echo(),
            timer.seconds,
            dataset_block=rep.dataset_summary(dataset, str(out / "cohort.csv"), cfg.outcome),
        )
        payload["planted_descriptor"] = descriptor.to_labels(dataset.schema)
        rep.write_json(out / "planted.json", payload)
    return 0


def _run_discovery(
    cfg: PipelineConfig, dataset: Dataset, timer: _StageTimer
) -> tuple[ScanResult, np.ndarray, float, bool]:
    with timer.stage("scan"):
        result = scan(dataset, cfg.scan_config(), workers=cfg.workers)
    with timer.stage("significance"):
        nulls = null_score_distribution(
            dataset, cfg.bootstrap_config(), workers=cfg.workers
        )
        p_value, at_floor = p_from_null_scores(result.panel.score, nulls)
    return result, nulls, p_value, at_floor


def cmd_scan(cfg: PipelineConfig) -> int:
    timer = _StageTimer()
    with timer.stage("load"):
        dataset = _require_input(cfg)
    result, _, p_value, at_floor = _run_discovery(cfg, dataset, timer)
    out = _out_dir(cfg)
    payload = rep.build_report(
        "scan",
        cfg.echo(),
        timer.seconds,
        dataset_block=rep.dataset_summary(dataset, str(cfg.input), cfg.outcome),
        scan_block=rep.scan_to_json(result, dataset.schema, p_value, at_floor),
    )
    rep.write_json(out / "scan_report.json", payload)
    return 0


def _load_scan_report(cfg: PipelineConfig, dataset: Dataset) -> ScanResult:
    if not cfg.scan_report:
        raise ContractError("--scan-report is required")
    path = Path(cfg.scan_report)
    block = _read_json_object(path, "scan report").get("scan")
    if block is None:
        raise LoadError(f"{path}: no scan block in report")
    try:
        descriptor = SubsetDescriptor.from_labels(dataset.schema, block["descriptor"])
        stored = float(block["score"])
        restart_index = int(block.get("restart_index", 0))
    except (KeyError, TypeError, ValueError, AttributeError, OverflowError) as e:
        raise LoadError(f"{path}: malformed scan block ({e!r})") from None
    if not math.isfinite(stored):
        raise LoadError(f"{path}: stored score {stored} is not a finite number")
    panel, effects = evaluate(dataset, descriptor)
    if panel.n_subset == 0:
        raise LoadError(f"{path}: descriptor matches no record of the dataset")
    if abs(panel.score - stored) > 1e-9 * (1.0 + abs(stored)):
        raise LoadError(
            f"{path}: stored score {stored} does not match the dataset "
            f"(recomputed {panel.score}); wrong input file?"
        )
    return ScanResult(descriptor, panel, effects, restart_index)


def _ranking_from_report(path_str: str) -> list[RelevanceEntry]:
    path = Path(path_str)
    rows = _read_json_object(path, "rank report").get("relevance")
    if rows is None:
        raise LoadError(f"{path}: no relevance block in report")
    hints = get_type_hints(RelevanceEntry)
    try:
        for row in rows:
            for key, value in row.items():
                _check_type(hints, key, value, "relevance field")
        return [RelevanceEntry(**r) for r in rows]
    except (KeyError, TypeError, ValueError, AttributeError) as e:
        raise LoadError(f"{path}: malformed relevance block ({e!r})") from None


def cmd_rank(cfg: PipelineConfig) -> int:
    timer = _StageTimer()
    with timer.stage("load"):
        dataset = _require_input(cfg)
        result = _load_scan_report(cfg, dataset)
    with timer.stage("rank"):
        ranking = rank_feature_relevance(dataset, result, cfg.relevance_config())
    out = _out_dir(cfg)
    payload = rep.build_report(
        "rank",
        cfg.echo(),
        timer.seconds,
        dataset_block=rep.dataset_summary(dataset, str(cfg.input), cfg.outcome),
        scan_block=rep.scan_to_json(result, dataset.schema),
        relevance_block=rep.relevance_to_json(ranking),
    )
    rep.write_json(out / "rank_report.json", payload)
    rep.write_relevance_csv(out / "relevance.csv", ranking)
    return 0


def cmd_substitute(cfg: PipelineConfig) -> int:
    timer = _StageTimer()
    with timer.stage("load"):
        dataset = _require_input(cfg)
        result = _load_scan_report(cfg, dataset)
    out = _out_dir(cfg)
    outcomes = []
    if enumerate_substitutions(result.descriptor, dataset.schema):
        with timer.stage("rank"):
            if cfg.rank_report:
                ranking = _ranking_from_report(cfg.rank_report)
            else:
                ranking = rank_feature_relevance(dataset, result, cfg.relevance_config())
        with timer.stage("significance"):
            nulls = null_score_distribution(
                dataset, cfg.bootstrap_config(), workers=cfg.workers
            )
        with timer.stage("sweep"):
            outcomes = single_substitution_sweep(
                dataset, result, ranking, cfg.alpha, cfg.bootstrap_config(),
                null_scores=nulls, workers=cfg.workers,
            )
    payload = rep.build_report(
        "substitute",
        cfg.echo(),
        timer.seconds,
        dataset_block=rep.dataset_summary(dataset, str(cfg.input), cfg.outcome),
        scan_block=rep.scan_to_json(result, dataset.schema),
        substitutions_block=[rep.substitution_to_json(o, dataset.schema) for o in outcomes],
    )
    rep.write_json(out / "substitutions.json", payload)
    rep.write_substitutions_csv(out / "substitutions.csv", outcomes)
    return 0


def cmd_pipeline(cfg: PipelineConfig) -> int:
    timer = _StageTimer()
    with timer.stage("load"):
        dataset = _require_input(cfg)
    result, nulls, p_value, at_floor = _run_discovery(cfg, dataset, timer)
    with timer.stage("rank"):
        ranking = rank_feature_relevance(dataset, result, cfg.relevance_config())
    bootstrap = cfg.bootstrap_config()
    with timer.stage("sweep"):
        outcomes = single_substitution_sweep(
            dataset, result, ranking, cfg.alpha, bootstrap,
            null_scores=nulls, workers=cfg.workers,
        )
    with timer.stage("greedy"):
        greedy = cross_substitute_greedy(
            dataset, result, ranking, cfg.alpha, bootstrap,
            score_threshold=cfg.score_threshold,
            unconditional=cfg.unconditional,
            null_scores=nulls, workers=cfg.workers,
        )
    out = _out_dir(cfg)
    payload = rep.build_report(
        "pipeline",
        cfg.echo(),
        timer.seconds,
        dataset_block=rep.dataset_summary(dataset, str(cfg.input), cfg.outcome),
        scan_block=rep.scan_to_json(result, dataset.schema, p_value, at_floor),
        relevance_block=rep.relevance_to_json(ranking),
        substitutions_block=[rep.substitution_to_json(o, dataset.schema) for o in outcomes],
        greedy_block=rep.greedy_to_json(greedy, dataset.schema),
    )
    rep.write_json(out / "report.json", payload)
    rep.write_relevance_csv(out / "relevance.csv", ranking)
    rep.write_substitutions_csv(out / "substitutions.csv", outcomes)
    return 0


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file; explicit flags win")
    parser.add_argument("--out", help="output directory (default .)")
    parser.add_argument("--seed", type=int, help="master seed for every stochastic stage")
    parser.add_argument("--workers", type=int,
                        help="parallel worker processes (default 1; capped at the CPU "
                             "count and at the number of tasks)")


def _add_data(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--input", help="input CSV path")
    parser.add_argument("--outcome", help="outcome column name (default y)")


def _add_scan_knobs(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--restarts", type=int, help="random restarts (default 10)")
    parser.add_argument("--max-passes", dest="max_passes", type=int,
                        help="max coordinate sweeps per restart (default 20)")
    parser.add_argument("--feature-order", dest="feature_order",
                        choices=["fixed", "shuffled"], help="sweep order (default fixed)")
    parser.add_argument("--replicates", type=int,
                        help="bootstrap replicates (default 50)")
    parser.add_argument("--alpha", type=float, help="significance level (default 0.05)")


def _add_relevance_knobs(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--reference", choices=["subset_mean", "unity"],
                        help="reference expectation for deviations (default subset_mean)")
    parser.add_argument("--ranking-mode", dest="ranking_mode",
                        choices=["deviation_ratio", "global_deviation"],
                        help="ranking statistic (default deviation_ratio)")
    parser.add_argument("--top-k", dest="top_k", type=int,
                        help="keep only the k best-ranked feature values")
    parser.add_argument("--delta-threshold", dest="delta_threshold", type=float,
                        help="keep feature values whose ranking statistic exceeds this")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="subscan",
        description="Anomalous-subgroup discovery and post-discovery analysis "
                    "on categorical tables with a binary outcome.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("synth", help="generate a synthetic cohort with a planted subgroup")
    _add_common(p)
    p.add_argument("--outcome", help="outcome column name to write (default y)")
    p.add_argument("--n", type=int, help="number of records")
    p.add_argument("--cardinalities", help="comma-separated category counts, e.g. 2,3,4")
    p.add_argument("--base-rate", dest="base_rate", type=float,
                   help="outcome rate outside the planted subgroup")
    p.add_argument("--odds-multiplier", dest="odds_multiplier", type=float,
                   help="odds lift inside the planted subgroup (> 1)")
    p.add_argument("--planted", help="descriptor like 'f0=v0|v1;f2=v3' (default: "
                                     "first halves of the first two features)")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("scan", help="find the highest-scoring subgroup and its significance")
    _add_common(p); _add_data(p); _add_scan_knobs(p)
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("rank", help="rank feature-value relevance of a discovered subgroup")
    _add_common(p); _add_data(p); _add_relevance_knobs(p)
    p.add_argument("--scan-report", dest="scan_report", help="scan_report.json from `subscan scan`")
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("substitute", help="score every single substitution of the subgroup")
    _add_common(p); _add_data(p); _add_scan_knobs(p); _add_relevance_knobs(p)
    p.add_argument("--scan-report", dest="scan_report", help="scan_report.json from `subscan scan`")
    p.add_argument("--rank-report", dest="rank_report",
                   help="rank_report.json from `subscan rank` (recomputed if omitted)")
    p.set_defaults(func=cmd_substitute)

    p = sub.add_parser("pipeline", help="scan, rank, substitution sweep, and greedy walk")
    _add_common(p); _add_data(p); _add_scan_knobs(p); _add_relevance_knobs(p)
    p.add_argument("--score-threshold", dest="score_threshold", type=float,
                   help="stop the greedy walk at this score instead of at p > alpha")
    p.add_argument("--unconditional", action="store_const", const=True,
                   help="greedy walk keeps every substitution, not only score-decreasing ones")
    p.set_defaults(func=cmd_pipeline)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _merged_config(args)
        return int(args.func(cfg))
    except (ContractError, LoadError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DegenerateDataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
