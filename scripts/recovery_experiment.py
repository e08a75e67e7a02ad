#!/usr/bin/env python3
"""Planted-descriptor recovery rate as a function of the odds multiplier.

For each odds multiplier, generates cohorts over a seed range, scans each, and
reports how often the planted descriptor is recovered exactly or within one
feature value. Emits a CSV row per multiplier. Exits like ``subscan``: 2 with
one ``error:`` line on bad input.
"""

import argparse
import csv
import sys
import time

from subscan.cli import _parse_planted, exit_status, parse_cardinalities
from subscan.errors import SubscanError
from subscan.scan import ScanConfig, scan
from subscan.tabular import SubsetDescriptor, SyntheticSpec, generate_synthetic


def value_set(descriptor: SubsetDescriptor, cardinalities: tuple[int, ...]) -> set[tuple[int, int]]:
    """Descriptor as (feature, value) pairs, unconstrained features fully included."""
    pairs = set()
    for z, card in enumerate(cardinalities):
        values = descriptor.values_for(z)
        if values is None:
            values = tuple(range(card))
        pairs.update((z, v) for v in values)
    return pairs


def run(args: argparse.Namespace) -> None:
    cards = parse_cardinalities(args.cardinalities)
    planted = _parse_planted(args.planted, cards)
    writer = csv.writer(sys.stdout)
    writer.writerow(["odds_multiplier", "n_cohorts", "exact", "off_by_one", "seconds"])
    for q in args.multipliers:
        start = time.perf_counter()
        exact = off_one = 0
        for seed in range(args.cohorts):
            spec = SyntheticSpec(args.n, cards, args.base_rate, planted, q, seed)
            dataset, truth = generate_synthetic(spec)
            result = scan(dataset, ScanConfig(n_restarts=args.restarts, seed=10_000 + seed))
            if result.descriptor == truth:
                exact += 1
            elif len(value_set(result.descriptor, cards) ^ value_set(truth, cards)) <= 1:
                off_one += 1
        writer.writerow([q, args.cohorts, exact, off_one,
                         round(time.perf_counter() - start, 2)])


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=2000)
    ap.add_argument("--cardinalities", default="2,3,1,1,1")
    ap.add_argument("--planted", default="f0=v0;f1=v0")
    ap.add_argument("--base-rate", dest="base_rate", type=float, default=0.05)
    ap.add_argument("--multipliers", type=float, nargs="+",
                    default=[1.5, 2.0, 2.5, 3.0, 4.0])
    ap.add_argument("--cohorts", type=int, default=50)
    ap.add_argument("--restarts", type=int, default=10)
    try:
        run(ap.parse_args())
    except SubscanError as exc:
        sys.exit(exit_status(exc))
