"""In-process run of one workload's command, with or without layer spans.

Run from the workload's directory with `src` on PYTHONPATH:

    python traced.py plain <workload> <seed>   # cli.main(argv); prints its in-process time
    python traced.py spans <workload> <seed>   # the same calls, one span per layer call

`spans` makes the calls of `cmd_pipeline` / `cmd_rank` itself, in the same
order, so the spans sit in the benchmark's files and the program is unchanged.
It prints the spans and the counters measured at the same boundaries.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from subscan import cli
from subscan import report as rep
from subscan.postdiscovery import (
    cross_substitute_greedy,
    enumerate_substitutions,
    rank_feature_relevance,
    single_substitution_sweep,
)
from subscan.scan import scan
from subscan.significance import null_score_distribution, p_from_null_scores
from subscan.tabular import SyntheticSpec, generate_synthetic, write_csv

from workloads import BASE_RATE, WORKLOADS, Workload


class Tracer:
    """Spans kept in memory: name, start, end and the enclosing span."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[str] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        self._stack.append(name)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append({"name": name, "start": start, "end": end, "parent": parent})


def _peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _load(t: Tracer, cfg: cli.PipelineConfig, counters: dict):
    before = _peak_rss_mib()
    with t.span("tabular.load"):
        dataset = cli._require_input(cfg)
    counters["load_rss_mb"] = _peak_rss_mib() - before
    return dataset


def _pipeline(t: Tracer, cfg: cli.PipelineConfig, counters: dict):
    dataset = _load(t, cfg, counters)
    with t.span("scan.scan"):
        result = scan(dataset, cfg.scan_config(), workers=cfg.workers)
    with t.span("significance.bootstrap"):
        nulls = null_score_distribution(dataset, cfg.bootstrap_config(), workers=cfg.workers)
        p_value, at_floor = p_from_null_scores(result.panel.score, nulls)
    with t.span("postdiscovery.rank"):
        ranking = rank_feature_relevance(dataset, result, cfg.relevance_config())
    bootstrap = cfg.bootstrap_config()
    with t.span("postdiscovery.sweep"):
        outcomes = single_substitution_sweep(
            dataset, result, ranking, cfg.alpha, bootstrap,
            null_scores=nulls, workers=cfg.workers,
        )
    with t.span("postdiscovery.greedy"):
        greedy = cross_substitute_greedy(
            dataset, result, ranking, cfg.alpha, bootstrap,
            score_threshold=cfg.score_threshold, unconditional=cfg.unconditional,
            null_scores=nulls, workers=cfg.workers,
        )
    with t.span("report.write"):
        out = cli._out_dir(cfg)
        payload = rep.build_report(
            "pipeline", cfg.echo(), {},
            dataset_block=rep.dataset_summary(dataset, str(cfg.input), cfg.outcome),
            scan_block=rep.scan_to_json(result, dataset.schema, p_value, at_floor),
            relevance_block=rep.relevance_to_json(ranking),
            substitutions_block=[rep.substitution_to_json(o, dataset.schema) for o in outcomes],
            greedy_block=rep.greedy_to_json(greedy, dataset.schema),
        )
        rep.write_json(out / "report.json", payload)
        rep.write_relevance_csv(out / "relevance.csv", ranking)
        rep.write_substitutions_csv(out / "substitutions.csv", outcomes)
    counters["sweep_candidates"] = len(enumerate_substitutions(result.descriptor, dataset.schema))
    counters["greedy_applied"] = len(greedy.applied)
    counters["restarts"] = cfg.restarts
    counters["replicates"] = cfg.replicates
    return dataset, nulls


def _rank(t: Tracer, cfg: cli.PipelineConfig, counters: dict):
    dataset = _load(t, cfg, counters)
    with t.span("postdiscovery.rank"):
        result = cli._load_scan_report(cfg, dataset)
        ranking = rank_feature_relevance(dataset, result, cfg.relevance_config())
    with t.span("report.write"):
        out = cli._out_dir(cfg)
        payload = rep.build_report(
            "rank", cfg.echo(), {},
            dataset_block=rep.dataset_summary(dataset, str(cfg.input), cfg.outcome),
            scan_block=rep.scan_to_json(result, dataset.schema),
            relevance_block=rep.relevance_to_json(ranking),
        )
        rep.write_json(out / "rank_report.json", payload)
        rep.write_relevance_csv(out / "relevance.csv", ranking)
    counters["sweep_candidates"] = counters["greedy_applied"] = 0
    counters["restarts"] = counters["replicates"] = 0
    return dataset, None


def _synth(t: Tracer, workload: Workload, seed: int) -> None:
    """generate_synthetic + write_csv, as `subscan synth` calls them in set-up."""
    planted = cli._parse_planted(workload.planted, workload.cardinalities)
    spec = SyntheticSpec(
        n_records=workload.n, cardinalities=workload.cardinalities,
        base_rate=BASE_RATE, planted=planted,
        odds_multiplier=workload.odds_multiplier, seed=seed,
    )
    Path("synth_traced").mkdir(exist_ok=True)
    with t.span("tabular.synth"):
        dataset, _ = generate_synthetic(spec)
        write_csv(dataset, Path("synth_traced") / "cohort.csv", "y")


def run_spans(workload: Workload, seed: int) -> dict:
    argv = workload.command_args(seed)
    cfg = cli._merged_config(cli.build_parser().parse_args(argv))
    t = Tracer()
    counters: dict = {}
    with t.span("run"):
        dataset, nulls = (_pipeline if workload.command == "pipeline" else _rank)(t, cfg, counters)
    if cfg.workers > 1:
        # The serial bootstrap that the process pool replaces; outside "run".
        with t.span("significance.bootstrap_w1"):
            nulls_w1 = null_score_distribution(dataset, cfg.bootstrap_config(), workers=1)
        counters["w1_nulls_equal"] = bool(np.array_equal(nulls, nulls_w1))
    _synth(t, workload, seed)
    counters["records"] = dataset.n_records
    counters["features"] = dataset.schema.n_features
    counters["cells"] = int(np.unique(dataset.rows, axis=0).shape[0])
    counters["report_bytes"] = sum(
        (Path(cfg.out) / name).stat().st_size for name in workload.outputs
    )
    return {"spans": t.spans, "counters": counters}


def main() -> int:
    mode, name, seed = sys.argv[1], sys.argv[2], int(sys.argv[3])
    workload = WORKLOADS[name]
    if mode == "plain":
        start = time.perf_counter()
        rc = cli.main(workload.command_args(seed))
        result = {"rc": rc, "in_process_s": time.perf_counter() - start}
    else:
        result = run_spans(workload, seed)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
