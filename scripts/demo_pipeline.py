#!/usr/bin/env python3
"""End-to-end demo: plant a subgroup, rediscover it, rank it, substitute it away.

Writes the cohort and all reports under --out and prints the headline numbers.
A subcommand that fails ends the demo with that subcommand's exit code.
"""

import argparse
import json
import sys
from pathlib import Path

from subscan.cli import main as subscan


def run(args: argparse.Namespace) -> int:
    out = Path(args.out)
    synth_dir = out / "cohort"
    code = subscan([
        "synth", "--n", str(args.n), "--cardinalities", args.cardinalities,
        "--base-rate", str(args.base_rate), "--odds-multiplier", str(args.odds_multiplier),
        "--seed", str(args.seed), "--planted", args.planted, "--out", str(synth_dir),
    ]) or subscan([
        "pipeline", "--input", str(synth_dir / "cohort.csv"), "--outcome", "y",
        "--restarts", str(args.restarts), "--replicates", str(args.replicates),
        "--seed", str(args.seed + 1), "--workers", str(args.workers),
        "--out", str(out / "pipeline"),
    ])
    if code:
        return code

    planted = json.loads((synth_dir / "planted.json").read_text())
    report = json.loads((out / "pipeline" / "report.json").read_text())
    print("planted   :", planted["planted_descriptor"])
    print("discovered:", report["scan"]["descriptor"])
    print(f"score {report['scan']['score']:.2f}  p {report['scan']['p_value']:.4f}"
          f"{' (floor)' if report['scan']['p_at_floor'] else ''}  "
          f"OR {report['scan']['odds_ratio']['value']:.2f}")
    print("relevance :", [(r["feature"], r["value"], round(r["deviation_ratio"], 2))
                          for r in report["relevance"]])
    greedy = report["greedy"]
    print(f"greedy    : {len(greedy['applied'])} substitution(s) -> "
          f"score {greedy['final_score']:.2f}, p {greedy['final_p']:.3f}, "
          f"denormalized={greedy['denormalized']}")
    for step in greedy["applied"]:
        print(f"   [{step['feature']}: {'|'.join(step['from_values'])} -> "
              f"{step['to_value']}]  {step['old_score']:.2f} -> {step['new_score']:.2f}")
    return 0


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=2000)
    ap.add_argument("--cardinalities", default="2,3,4,5,2")
    ap.add_argument("--base-rate", dest="base_rate", type=float, default=0.05)
    ap.add_argument("--odds-multiplier", dest="odds_multiplier", type=float, default=3.0)
    ap.add_argument("--planted", default="f0=v0;f2=v0|v1")
    ap.add_argument("--restarts", type=int, default=10)
    ap.add_argument("--replicates", type=int, default=50)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--workers", type=int, default=1)
    ap.add_argument("--out", default="demo_out")
    sys.exit(run(ap.parse_args()))
