#!/usr/bin/env python3
"""Calibration of the bootstrap p-value on signal-free datasets.

Draws datasets with iid outcomes (no planted structure), scans each, computes
its empirical p-value, and prints the p-value sample as CSV plus a summary of
P(p <= alpha). Under a well-calibrated procedure that probability should sit
near alpha.
"""

import argparse
import csv
import sys

import numpy as np

from subscan.scan import ScanConfig, scan
from subscan.significance import BootstrapConfig, null_score_distribution, p_from_null_scores
from subscan.tabular import Dataset, Schema


def null_dataset(rng: np.random.Generator, n: int, cards: tuple[int, ...], rate: float) -> Dataset:
    schema = Schema(
        tuple((f"f{z}", tuple(f"v{h}" for h in range(c))) for z, c in enumerate(cards))
    )
    rows = np.column_stack([rng.integers(0, c, size=n) for c in cards]).astype(np.int32)
    while True:
        y = (rng.random(n) < rate).astype(np.int8)
        if 0 < y.sum() < n:
            return Dataset(schema, rows, y)


def run(args: argparse.Namespace) -> None:
    cards = tuple(int(c) for c in args.cardinalities.split(","))
    writer = csv.writer(sys.stdout)
    writer.writerow(["dataset", "observed_score", "p_value", "at_floor"])
    low = 0
    for i in range(args.datasets):
        rng = np.random.default_rng(args.seed + i)
        ds = null_dataset(rng, args.n, cards, args.rate)
        config = ScanConfig(n_restarts=args.restarts, seed=args.seed + 10_000 + i)
        observed = scan(ds, config).panel.score
        null_scores = null_score_distribution(
            ds,
            BootstrapConfig(n_replicates=args.replicates,
                            seed=args.seed + 20_000 + i, scan_config=config),
            workers=args.workers,
        )
        p_value, at_floor = p_from_null_scores(observed, null_scores)
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
    run(ap.parse_args())
