"""Command-line pipeline driver.

Subcommands: synth | scan | rank | substitute | pipeline. Every stochastic
stage derives its stream from the single --seed, so a command is idempotent
given identical inputs and seed, at any worker count. A JSON config file
(--config) can hold any knob; explicit flags win over the file.

Each knob is one ``PipelineConfig`` field, so a new knob is one new field: its
name gives the config key and the flag, its annotation the type, and its
metadata the subcommands that take it, the help text and any argparse
extras. The parser, the config-file check and the report's config echo are
all built from that one declaration.

Exit codes: 0 success, 2 usage or input error, 3 degenerate data (outcomes
all 0 or all 1).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any, get_args, get_type_hints

import numpy as np

from . import report as rep
from .errors import ContractError, DegenerateDataError, LoadError, SubscanError
from .postdiscovery import (
    GreedyResult,
    RelevanceConfig,
    RelevanceEntry,
    SubstitutionOutcome,
    cross_substitute_greedy,
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


_ALL = ("synth", "scan", "rank", "substitute", "pipeline")
_SCAN = ("scan", "substitute", "pipeline")
_RANK = ("rank", "substitute", "pipeline")


def _knob(default: Any, commands: tuple[str, ...], help: str, **argparse_extras: Any) -> Any:
    """A field that ``build_parser`` turns into a flag of ``commands``; "{default}" in
    ``help`` reads the field's default."""
    return field(default=default, metadata={
        "commands": commands, "help": help.format(default=default), "argparse": argparse_extras,
    })


@dataclass
class PipelineConfig:
    """Merged view of defaults, config file, and command-line flags.

    Each field is one knob: config key ``name``, flag ``--name`` (underscores
    as dashes) on the subcommands its metadata lists, typed by its annotation.
    """

    input: str | None = _knob(None, ("scan", "rank", "substitute", "pipeline"), "input CSV path")
    outcome: str = _knob("y", _ALL, "outcome column name (default {default})")
    out: str = _knob(".", _ALL, "output directory (default {default})")
    seed: int = _knob(0, _ALL, "master seed for every stochastic stage")
    workers: int = _knob(1, _ALL, "parallel worker processes (default {default}; "
                                  "capped at the CPU count and at the number of tasks)")
    alpha: float = _knob(0.05, _SCAN, "significance level (default {default})")
    restarts: int = _knob(10, _SCAN, "random restarts (default {default})")
    max_passes: int = _knob(20, _SCAN, "max coordinate sweeps per restart (default {default})")
    feature_order: str = _knob("fixed", _SCAN, "sweep order (default {default})",
                               choices=["fixed", "shuffled"])
    replicates: int = _knob(50, _SCAN, "bootstrap replicates (default {default})")
    reference: str = _knob("subset_mean", _RANK,
                           "reference expectation for deviations (default {default})",
                           choices=["subset_mean", "unity"])
    ranking_mode: str = _knob("deviation_ratio", _RANK, "ranking statistic (default {default})",
                              choices=["deviation_ratio", "global_deviation"])
    top_k: int | None = _knob(None, _RANK, "keep only the k best-ranked feature values")
    delta_threshold: float | None = _knob(
        None, _RANK, "keep feature values whose ranking statistic exceeds this")
    score_threshold: float | None = _knob(
        None, ("pipeline",), "stop the greedy walk at this score instead of at p > alpha")
    unconditional: bool = _knob(
        False, ("pipeline",),
        "greedy walk keeps every substitution, not only score-decreasing ones",
        action="store_const", const=True)
    scan_report: str | None = _knob(
        None, ("rank", "substitute"), "scan_report.json from `subscan scan`")
    rank_report: str | None = _knob(
        None, ("substitute",), "rank_report.json from `subscan rank` (recomputed if omitted)")
    n: int | None = _knob(None, ("synth",), "number of records")
    cardinalities: str | None = _knob(
        None, ("synth",), "comma-separated category counts, e.g. 2,3,4")
    base_rate: float | None = _knob(None, ("synth",), "outcome rate outside the planted subgroup")
    odds_multiplier: float | None = _knob(
        None, ("synth",), "odds lift inside the planted subgroup (> 1)")
    planted: str | None = _knob(
        None, ("synth",), "descriptor like 'f0=v0|v1;f2=v3' (default: first halves of the "
        "first two features)")

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


_HINTS = get_type_hints(PipelineConfig)  # field name -> declared type


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


def _declared(hint: Any) -> type:
    """The type a field declares, without the ``None`` of an optional one."""
    return next(t for t in get_args(hint) or (hint,) if t is not type(None))


def _check_type(hints: dict[str, Any], key: str, value: Any, what: str) -> None:
    """ContractError unless a JSON ``value`` has the declared type ``hints[key]``."""
    allowed = get_args(hints[key]) or (hints[key],)
    # exact types, so a JSON bool is no int; a float field takes an int
    if type(value) not in allowed and not (float in allowed and type(value) is int):
        names = " or ".join("null" if t is type(None) else t.__name__ for t in allowed)
        raise ContractError(f"{what} {key!r} must be {names}, got {type(value).__name__}")


def _merged_config(args: argparse.Namespace) -> PipelineConfig:
    cfg = PipelineConfig()
    if getattr(args, "config", None):
        file_cfg = _read_json_object(Path(args.config), "config file")
        for key, value in file_cfg.items():
            if key not in _HINTS:
                raise ContractError(f"unknown config key {key!r}")
            _check_type(_HINTS, key, value, "config key")
            setattr(cfg, key, value)
    for key, hint in _HINTS.items():
        if getattr(args, key, None) is not None:
            setattr(cfg, key, getattr(args, key))
        value = getattr(cfg, key)  # the report echoes every knob, and JSON has no inf or nan
        # false for inf, nan and an int past the float range, where math.isfinite raises
        if _declared(hint) is float and value is not None and not abs(value) <= sys.float_info.max:
            raise ContractError(f"{key} must be a finite number, got {value}")
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


# the files each subcommand writes into --out, by role
_OUTPUTS: dict[str, dict[str, str]] = {
    "synth": {"cohort": "cohort.csv", "planted": "planted.json"},
    "scan": {"report": "scan_report.json"},
    "rank": {"report": "rank_report.json", "relevance": "relevance.csv"},
    "substitute": {"report": "substitutions.json", "substitutions": "substitutions.csv"},
    "pipeline": {
        "report": "report.json", "relevance": "relevance.csv",
        "substitutions": "substitutions.csv",
    },
}


def _out_dir(cfg: PipelineConfig) -> Path:
    out = Path(cfg.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as e:  # a file in the way, or no permission
        raise ContractError(f"--out {out}: cannot create the directory ({e.strerror})") from None
    return out


def _check_out(cfg: PipelineConfig, command: str) -> None:
    """ContractError unless ``_out_dir`` could make --out and the command write its files there."""
    out = Path(cfg.out)
    base = next((p for p in (out, *out.parents) if os.path.exists(p)), out)
    if not base.is_dir():
        raise ContractError(f"--out {out}: cannot create the directory ({base} is not a directory)")
    if not os.access(base, os.W_OK | os.X_OK):
        raise ContractError(f"--out {out}: cannot write in {base} (Permission denied)")
    for name in _OUTPUTS[command].values():
        if (out / name).is_dir():
            raise ContractError(f"cannot write {out / name} (Is a directory)")


def _require_input(cfg: PipelineConfig) -> Dataset:
    if not cfg.input:
        raise ContractError("--input is required")
    return load_csv(cfg.input, cfg.outcome)


def parse_cardinalities(text: str) -> tuple[int, ...]:
    """The category counts of a --cardinalities list such as '2,3,4'; ContractError
    unless each is an integer of at least 1."""
    try:
        cards = tuple(int(c) for c in text.split(","))
    except ValueError:
        cards = (0,)
    if min(cards) < 1:
        raise ContractError(f"bad --cardinalities {text!r}; expected counts >= 1, e.g. 2,3,4")
    return cards


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
    cards = parse_cardinalities(cfg.cardinalities)
    planted = _parse_planted(cfg.planted, cards) if cfg.planted else _default_planted(cards)
    spec = SyntheticSpec(
        n_records=cfg.n,
        cardinalities=cards,
        base_rate=cfg.base_rate,
        planted=planted,
        odds_multiplier=cfg.odds_multiplier,
        seed=cfg.seed,
    )
    if cfg.outcome in spec.schema().feature_names:  # before any work, and before --out is made
        raise ContractError(f"outcome column {cfg.outcome!r} collides with a feature")
    timer = _StageTimer()
    with timer.stage("generate"):
        dataset, descriptor = generate_synthetic(spec)
    out, names = _out_dir(cfg), _OUTPUTS["synth"]
    with timer.stage("write"):
        write_csv(dataset, out / names["cohort"], cfg.outcome)
    payload = rep.build_report(
        "synth",
        cfg.echo(),
        timer.seconds,
        dataset_block=rep.dataset_summary(dataset, str(out / names["cohort"]), cfg.outcome),
    )
    payload["planted_descriptor"] = descriptor.to_labels(dataset.schema)
    rep.write_json(out / names["planted"], payload)
    return 0


def _null_sample(cfg: PipelineConfig, dataset: Dataset, timer: _StageTimer) -> np.ndarray:
    with timer.stage("significance"):
        return null_score_distribution(dataset, cfg.bootstrap_config(), workers=cfg.workers)


def _sweep(
    cfg: PipelineConfig, dataset: Dataset, result: ScanResult,
    ranking: list[RelevanceEntry], nulls: np.ndarray, timer: _StageTimer,
) -> list[SubstitutionOutcome]:
    with timer.stage("sweep"):
        return single_substitution_sweep(
            dataset, result, ranking, cfg.alpha, cfg.bootstrap_config(),
            null_scores=nulls, workers=cfg.workers,
        )


def _write_reports(
    cfg: PipelineConfig, command: str, timer: _StageTimer,
    dataset: Dataset, result: ScanResult, p_value: float | None = None,
    at_floor: bool | None = None, *, ranking: list[RelevanceEntry] | None = None,
    outcomes: list[SubstitutionOutcome] | None = None, greedy: GreedyResult | None = None,
) -> None:
    """Write the command's JSON report, then CSV tables of the ranking and outcomes given."""
    out, names, schema = _out_dir(cfg), _OUTPUTS[command], dataset.schema
    payload = rep.build_report(
        command, cfg.echo(), timer.seconds,
        dataset_block=rep.dataset_summary(dataset, str(cfg.input), cfg.outcome),
        scan_block=rep.scan_to_json(result, schema, p_value, at_floor),
        relevance_block=None if ranking is None else rep.relevance_to_json(ranking),
        substitutions_block=(
            None if outcomes is None else [rep.substitution_to_json(o, schema) for o in outcomes]
        ),
        greedy_block=None if greedy is None else rep.greedy_to_json(greedy, schema),
    )
    rep.write_json(out / names["report"], payload)
    if ranking is not None:
        rep.write_relevance_csv(out / names["relevance"], ranking)
    if outcomes is not None:
        rep.write_substitutions_csv(out / names["substitutions"], outcomes)


def cmd_scan(cfg: PipelineConfig) -> int:
    timer = _StageTimer()
    with timer.stage("load"):
        dataset = _require_input(cfg)
    with timer.stage("scan"):
        result = scan(dataset, cfg.scan_config(), workers=cfg.workers)
    p_value, at_floor = p_from_null_scores(result.panel.score, _null_sample(cfg, dataset, timer))
    _write_reports(cfg, "scan", timer, dataset, result, p_value, at_floor)
    return 0


# a best subgroup that scores 0 has an outcome rate at or below the global one
_NO_EXCESS = "no subgroup above the global rate was found (score 0); nothing to rank or substitute"


def _load_scan_report(cfg: PipelineConfig, dataset: Dataset) -> ScanResult:
    if not cfg.scan_report:
        raise ContractError("--scan-report is required")
    path = Path(cfg.scan_report)
    payload = _read_json_object(path, "scan report")
    block = payload.get("scan")
    if block is None:
        raise LoadError(f"{path}: no scan block in report")
    try:
        descriptor = SubsetDescriptor.from_labels(dataset.schema, block["descriptor"])
        stored, restart_index = block["score"], block.get("restart_index", 0)
        for key, value in (("score", stored), ("restart_index", restart_index)):
            _check_type({"score": float, "restart_index": int}, key, value, "scan field")
    except (KeyError, TypeError, ValueError, AttributeError) as e:
        raise LoadError(f"{path}: malformed scan block ({e!r})") from None
    if not abs(stored) <= sys.float_info.max:  # as for a config float
        raise LoadError(f"{path}: stored score {stored} is not a finite number")
    if restart_index < 0:
        raise LoadError(f"{path}: restart_index {restart_index} is negative")
    config = payload.get("config")
    restarts = config.get("restarts") if isinstance(config, dict) else None
    if type(restarts) is int and restart_index >= restarts:  # a JSON bool is no int
        raise LoadError(f"{path}: restart_index {restart_index} is past its {restarts} restarts")
    if descriptor.normalized(dataset.schema).is_empty:
        raise LoadError(f"{path}: descriptor constrains no feature; nothing to rank or substitute")
    panel, effects = evaluate(dataset, descriptor)
    if panel.n_subset == 0:
        raise LoadError(f"{path}: descriptor matches no record of the dataset")
    if abs(panel.score - stored) > 1e-9 * (1.0 + abs(stored)):
        raise LoadError(
            f"{path}: stored score {stored} does not match the dataset "
            f"(recomputed {panel.score}); wrong input file?"
        )
    if panel.score == 0.0:
        raise LoadError(f"{path}: {_NO_EXCESS}")
    return ScanResult(descriptor, panel, effects, restart_index)


def _ranking_from_report(
    path_str: str, descriptor: dict[str, list[str]]
) -> list[RelevanceEntry]:
    """The saved ranking; LoadError unless each entry names a distinct value of
    ``descriptor`` and keeps the report schema's bounds on ``rank`` and ``e_value``."""
    path = Path(path_str)
    rows = _read_json_object(path, "rank report").get("relevance")
    if rows is None:
        raise LoadError(f"{path}: no relevance block in report")
    hints = get_type_hints(RelevanceEntry)
    try:
        for row in rows:
            for key, value in row.items():
                _check_type(hints, key, value, "relevance field")
        ranking = [RelevanceEntry(**r) for r in rows]
    except (KeyError, TypeError, ValueError, AttributeError) as e:
        raise LoadError(f"{path}: malformed relevance block ({e!r})") from None
    unlisted = {(f, v) for f, vs in descriptor.items() for v in vs}
    for e in ranking:
        if e.rank < 1 or not 0 <= e.e_value <= 1:
            raise LoadError(f"{path}: relevance entry {e.feature}={e.value} has rank {e.rank} "
                            f"and e_value {e.e_value}; want rank >= 1 and e_value in [0, 1]")
        if (e.feature, e.value) not in unlisted:
            taken = e.value in descriptor.get(e.feature, ())  # by an earlier entry
            fault = "is listed twice" if taken else "is not a value of the scan descriptor"
            raise LoadError(f"{path}: relevance entry {e.feature}={e.value} {fault}")
        unlisted.remove((e.feature, e.value))
    return ranking


def cmd_rank(cfg: PipelineConfig) -> int:
    timer = _StageTimer()
    with timer.stage("load"):
        dataset = _require_input(cfg)
        result = _load_scan_report(cfg, dataset)
    with timer.stage("rank"):
        ranking = rank_feature_relevance(dataset, result, cfg.relevance_config())
    _write_reports(cfg, "rank", timer, dataset, result, ranking=ranking)
    return 0


def cmd_substitute(cfg: PipelineConfig) -> int:
    timer = _StageTimer()
    with timer.stage("load"):
        dataset = _require_input(cfg)
        result = _load_scan_report(cfg, dataset)
    with timer.stage("rank"):
        if cfg.rank_report:
            labels = result.descriptor.to_labels(dataset.schema)
            ranking = _ranking_from_report(cfg.rank_report, labels)
        else:
            ranking = rank_feature_relevance(dataset, result, cfg.relevance_config())
    outcomes = _sweep(cfg, dataset, result, ranking, _null_sample(cfg, dataset, timer), timer)
    _write_reports(cfg, "substitute", timer, dataset, result, outcomes=outcomes)
    return 0


def cmd_pipeline(cfg: PipelineConfig) -> int:
    timer = _StageTimer()
    with timer.stage("load"):
        dataset = _require_input(cfg)
    with timer.stage("scan"):
        result = scan(dataset, cfg.scan_config(), workers=cfg.workers)
    if result.descriptor.is_empty:  # scan returns it normalized; refused before the draw
        raise ContractError("the best subgroup is the whole dataset; nothing to rank or substitute")
    if result.panel.score == 0.0:
        raise ContractError(_NO_EXCESS)
    nulls = _null_sample(cfg, dataset, timer)
    with timer.stage("rank"):
        ranking = rank_feature_relevance(dataset, result, cfg.relevance_config())
    outcomes = _sweep(cfg, dataset, result, ranking, nulls, timer)
    with timer.stage("greedy"):
        greedy = cross_substitute_greedy(
            dataset, result, ranking, cfg.alpha, cfg.bootstrap_config(),
            score_threshold=cfg.score_threshold,
            unconditional=cfg.unconditional,
            null_scores=nulls, workers=cfg.workers,
        )
    _write_reports(
        cfg, "pipeline", timer, dataset, result, *p_from_null_scores(result.panel.score, nulls),
        ranking=ranking, outcomes=outcomes, greedy=greedy,
    )
    return 0


_COMMANDS = {  # subcommand -> (handler, help)
    "synth": (cmd_synth, "generate a synthetic cohort with a planted subgroup"),
    "scan": (cmd_scan, "find the highest-scoring subgroup and its significance"),
    "rank": (cmd_rank, "rank feature-value relevance of a discovered subgroup"),
    "substitute": (cmd_substitute, "score every single substitution of the subgroup"),
    "pipeline": (cmd_pipeline, "scan, rank, substitution sweep, and greedy walk"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="subscan",
        description="Anomalous-subgroup discovery and post-discovery analysis "
                    "on categorical tables with a binary outcome.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for command, (handler, help_text) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        p.add_argument("--config", help="JSON config file; explicit flags win")
        for f in fields(PipelineConfig):
            if command in f.metadata["commands"]:
                # a flag left out parses to None, so the config file and the default show through
                extras = f.metadata["argparse"] or {"type": _declared(_HINTS[f.name])}
                p.add_argument("--" + f.name.replace("_", "-"), help=f.metadata["help"], **extras)
        p.set_defaults(func=handler)
    return parser


def exit_status(exc: SubscanError) -> int:
    """Print ``exc`` as the one ``error:`` line on stderr and return its exit code:
    3 for degenerate data, 2 for any other usage or input error."""
    print(f"error: {exc}", file=sys.stderr)
    return 3 if isinstance(exc, DegenerateDataError) else 2


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _merged_config(args)
        _check_out(cfg, args.subcommand)  # a bad --out fails before any data is read
        return int(args.func(cfg))
    except SubscanError as exc:
        return exit_status(exc)


if __name__ == "__main__":
    sys.exit(main())
