#!/usr/bin/env python3
"""Calibration of the bootstrap p-value on signal-free datasets.

Draws datasets with iid outcomes (no planted structure), scans each, computes
its empirical p-value, and prints the p-value sample as CSV plus a summary of
P(p <= alpha). Under a well-calibrated procedure that probability should sit
near alpha. Exits like ``subscan``: 2 with one ``error:`` line on bad input.
"""

import argparse
import csv
import sys
from dataclasses import replace

import numpy as np

from subscan.cli import exit_status, parse_cardinalities
from subscan.errors import ContractError, SubscanError
from subscan.scan import ScanConfig, scan
from subscan.significance import BootstrapConfig, null_score_distribution, p_from_null_scores
from subscan.tabular import Dataset, _synthetic_schema


def null_dataset(rng: np.random.Generator, n_records: int, cardinalities: tuple[int, ...],
                 positive_rate: float = 0.3) -> Dataset:
    """Unstructured dataset with iid outcomes; redraws a degenerate outcome column."""
    schema = _synthetic_schema(cardinalities)
    rows = np.column_stack([rng.integers(0, c, size=n_records) for c in cardinalities])
    while True:
        y = (rng.random(n_records) < positive_rate).astype(np.int8)
        if 0 < y.sum() < n_records:
            return Dataset(schema, rows, y)


def null_p_value(data_seed: int, scan_seed: int, null_seed: int, n: int, cards: tuple[int, ...],
                 rate: float, restarts: int, replicates: int,
                 workers: int = 1) -> tuple[float, float, bool]:
    """Scan the null dataset that ``data_seed`` draws and test its best score against
    ``replicates`` null scans: (observed score, p-value, whether p is at its floor)."""
    dataset = null_dataset(np.random.default_rng(data_seed), n, cards, rate)
    config = ScanConfig(n_restarts=restarts, seed=scan_seed)
    observed = scan(dataset, config).panel.score
    boot = BootstrapConfig(n_replicates=replicates, scan_config=replace(config, seed=null_seed))
    null_scores = null_score_distribution(dataset, boot, workers=workers)
    return (observed, *p_from_null_scores(observed, null_scores))


def run(args: argparse.Namespace) -> None:
    cards = parse_cardinalities(args.cardinalities)
    # else no dataset to summarise, an outcome column that never holds both values,
    # or a seed numpy refuses
    if args.datasets < 1 or args.n < 2 or not 0.0 < args.rate < 1.0 or args.seed < 0:
        raise ContractError("want --datasets >= 1, --n >= 2, --rate in (0, 1) and --seed >= 0; "
                            f"got {args.datasets}, {args.n}, {args.rate} and {args.seed}")
    writer = csv.writer(sys.stdout)
    writer.writerow(["dataset", "observed_score", "p_value", "at_floor"])
    low = 0
    for i in range(args.datasets):
        seeds = args.seed + i, args.seed + 10_000 + i, args.seed + 20_000 + i
        observed, p_value, at_floor = null_p_value(*seeds, args.n, cards, args.rate,
                                                   args.restarts, args.replicates, args.workers)
        low += p_value <= args.alpha
        writer.writerow([i, repr(observed), repr(p_value), at_floor])
    print(f"# P(p <= {args.alpha}) = {low / args.datasets:.4f} "
          f"({low}/{args.datasets})", file=sys.stderr)


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--datasets", type=int, default=200)
    ap.add_argument("--n", type=int, default=240)
    ap.add_argument("--cardinalities", default="3,3,2")
    ap.add_argument("--rate", type=float, default=0.3)
    ap.add_argument("--replicates", type=int, default=99)
    ap.add_argument("--restarts", type=int, default=3)
    ap.add_argument("--alpha", type=float, default=0.05)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--workers", type=int, default=1)
    try:
        run(ap.parse_args())
    except SubscanError as exc:
        sys.exit(exit_status(exc))
