"""Report assembly and serialization: JSON reports and RFC-4180 CSV tables.

Reports are plain dicts with a fixed key order so identical runs serialize to
identical bytes. Everything that varies between runs of the same
configuration (timestamp, hostname, wall-clock) lives in the single ``meta``
block, which golden-file comparisons mask out.
"""

from __future__ import annotations

import json
import math
import socket
from dataclasses import asdict
from datetime import datetime, timezone
from pathlib import Path
from typing import Any

from . import __version__
from .postdiscovery import GreedyResult, RelevanceEntry, SubstitutionOutcome
from .scan import ScanResult
from .scoring import EffectMeasures, ScorePanel
from .tabular import Dataset, Schema, _atomic_text, _write_table


def _number(x: float | None) -> float | None:
    """JSON has no Infinity; an infinite odds multiplier serializes as null."""
    if x is None or math.isinf(x) or math.isnan(x):
        return None
    return float(x)


def effects_to_json(effects: EffectMeasures | None) -> dict[str, Any] | None:
    if effects is None:
        return None
    return {
        "value": _number(effects.odds_ratio),
        "ci_low": _number(effects.ci_low),
        "ci_high": _number(effects.ci_high),
        "subset_rate": effects.subset_rate,
        "complement_rate": effects.complement_rate,
    }


def scan_to_json(
    result: ScanResult,
    schema: Schema,
    p_value: float | None = None,
    p_at_floor: bool | None = None,
) -> dict[str, Any]:
    panel: ScorePanel = result.panel
    return {
        "descriptor": result.descriptor.to_labels(schema),
        "score": panel.score,
        "q_mle": _number(panel.q_mle),
        "n_subset": panel.n_subset,
        "n_positive": panel.n_positive,
        "subset_mean": panel.subset_mean,
        "global_mean": panel.global_mean,
        "restart_index": result.restart_index,
        "odds_ratio": effects_to_json(result.effects),
        "p_value": p_value,
        "p_at_floor": p_at_floor,
    }


def relevance_to_json(entries: list[RelevanceEntry]) -> list[dict[str, Any]]:
    """One object per entry whose keys are the ``RelevanceEntry`` fields, in order."""
    return [asdict(e) for e in entries]


def substitution_to_json(outcome: SubstitutionOutcome, schema: Schema) -> dict[str, Any]:
    return {
        "feature": outcome.candidate.feature,
        "from_values": list(outcome.candidate.from_values),
        "to_value": outcome.candidate.to_value,
        "resulting_descriptor": outcome.candidate.resulting_descriptor.to_labels(schema),
        "old_score": outcome.old_score,
        "new_score": outcome.new_score,
        "old_or": _number(outcome.old_or),
        "new_or": _number(outcome.new_or),
        "p_value": outcome.new_p,
        "p_at_floor": outcome.p_at_floor,
        "significant": outcome.significant,
        "empty": outcome.empty,
    }


def greedy_to_json(result: GreedyResult, schema: Schema) -> dict[str, Any]:
    return {
        "denormalized": result.denormalized,
        "final_descriptor": result.descriptor.to_labels(schema),
        "final_score": result.panel.score,
        "final_p": result.p_value,
        "p_at_floor": result.p_at_floor,
        "odds_ratio": effects_to_json(result.effects),
        "applied": [substitution_to_json(o, schema) for o in result.applied],
    }


def dataset_summary(dataset: Dataset, path: str, outcome_column: str) -> dict[str, Any]:
    return {
        "path": path,
        "outcome_column": outcome_column,
        "n_records": dataset.n_records,
        "n_positive": dataset.n_positive,
        "global_mean": dataset.global_mean,
    }


def meta_block(stage_seconds: dict[str, float]) -> dict[str, Any]:
    return {
        "created_utc": datetime.now(timezone.utc).isoformat(),
        "hostname": socket.gethostname(),
        "stage_seconds": dict(stage_seconds),
    }


def build_report(
    command: str,
    config_echo: dict[str, Any],
    stage_seconds: dict[str, float],
    dataset_block: dict[str, Any] | None = None,
    scan_block: dict[str, Any] | None = None,
    relevance_block: list[dict[str, Any]] | None = None,
    substitutions_block: list[dict[str, Any]] | None = None,
    greedy_block: dict[str, Any] | None = None,
) -> dict[str, Any]:
    report: dict[str, Any] = {
        "version": __version__,
        "command": command,
        "config": config_echo,
        "meta": meta_block(stage_seconds),
    }
    blocks = {
        "dataset": dataset_block, "scan": scan_block, "relevance": relevance_block,
        "substitutions": substitutions_block, "greedy": greedy_block,
    }
    report.update((key, block) for key, block in blocks.items() if block is not None)
    return report


def write_json(path: str | Path, payload: dict[str, Any]) -> None:
    with _atomic_text(path) as fh:
        json.dump(payload, fh, indent=2, allow_nan=False)
        fh.write("\n")


def write_relevance_csv(path: str | Path, entries: list[RelevanceEntry]) -> None:
    _write_table(
        path,
        ["feature", "value", "e_value", "subset_deviation",
         "global_deviation", "deviation_ratio", "rank"],
        ([e.feature, e.value, repr(e.e_value), repr(e.subset_deviation),
          repr(e.global_deviation),
          "" if e.deviation_ratio is None else repr(e.deviation_ratio),
          e.rank] for e in entries),
    )


def write_substitutions_csv(path: str | Path, outcomes: list[SubstitutionOutcome]) -> None:
    """Plot-ready table; substitutions that emptied the subgroup are excluded."""
    _write_table(
        path,
        ["feature", "from_value", "to_value", "new_score",
         "p_value", "odds_ratio", "p_at_floor"],
        ([o.candidate.feature, "|".join(o.candidate.from_values),
          o.candidate.to_value, repr(o.new_score), repr(o.new_p),
          "" if o.new_or is None else repr(o.new_or),
          o.p_at_floor] for o in outcomes if not o.empty),
    )
