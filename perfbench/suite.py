"""Run every workload and print every metric by name with its unit.

    python3 perfbench/suite.py [--rounds 3] [--seed 1] [--seconds 10] [--record-baseline]

Run from the root of a checkout. Each round runs the four workloads untraced,
one after another (round-robin, so drift on a shared machine spreads over all
of them); round r uses seed --seed + r. One traced run per workload follows,
with --seed. --record-baseline stores the output hashes of these runs as the
baseline that run.py's hash_match compares against.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
LAYER_TIMES = {
    "tabular": ("tabular.load_s",),
    "scan": ("scan.scan_s",),
    "significance": ("significance.bootstrap_s",),
    "postdiscovery": ("postdiscovery.rank_s", "postdiscovery.sweep_s", "postdiscovery.greedy_s"),
    "report": ("report.write_s",),
}


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        sys.exit(f"{workload} (seed {seed}, trace {trace}) failed: {proc.stderr.strip()}")
    info, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
    print(f"  {workload:8} seed {seed} trace {trace}: {result['attempted']} runs, "
          f"{result['failed']} failed", file=sys.stderr, flush=True)
    return info, result


def fmt(value: float) -> str:
    return f"{value:.6g}"


def report(name: str, untraced: list[tuple[dict, dict]], traced: tuple[dict, dict]) -> None:
    results = [r for _, r in untraced] + [traced[1]]
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(f"\n== {name} ==")
    walls = []
    for metric in untraced[0][1]["metrics"]:
        values = [r["metrics"][metric]["value"] for _, r in untraced]
        unit = untraced[0][1]["metrics"][metric]["unit"]
        lo, hi = min(values), max(values)
        print(f"  {metric:34} {fmt(statistics.median(values)):>12} {unit:7}"
              f" median of {len(values)} runs, range {fmt(lo)}..{fmt(hi)}")
        if metric == "wall_s":
            walls = values
    print(f"  {'error_rate':34} {fmt(failed / attempted):>12} {'ratio':7}"
          f" {failed} failed of {attempted}")
    matches = [info["hash_match"] for info, _ in untraced] + [traced[0]["hash_match"]]
    print(f"  {'hash_match':34} {json.dumps(matches)}")
    for info in [i for i, _ in untraced] + [traced[0]]:
        for failure in info["failures"]:
            print(f"  failure (seed {info['seed']}): {failure}")
    layers = traced[1]["metrics"]
    for metric, m in layers.items():
        print(f"  {metric:34} {fmt(m['value']):>12} {m['unit']}")
    times = {layer: sum(layers[k]["value"] for k in keys) for layer, keys in LAYER_TIMES.items()}
    total = sum(times.values())
    shares = ", ".join(f"{layer} {100 * t / total:.1f}%" for layer, t in times.items())
    print(f"  share of traced layer time {fmt(total)} s: {shares}")
    accounted = total + layers["cli.residual_s"]["value"]
    print(f"  layers + cli.residual_s = {fmt(accounted)} s against wall_s "
          f"{fmt(statistics.median(walls))} s ({100 * accounted / statistics.median(walls):.1f}%)")


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--record-baseline", action="store_true")
    args = parser.parse_args()

    untraced: dict[str, list] = {name: [] for name in WORKLOADS}
    for r in range(args.rounds):
        for name in WORKLOADS:
            untraced[name].append(run(name, args.seed + r, args.seconds, 0))
    traced = {name: run(name, args.seed, args.seconds, 1) for name in WORKLOADS}

    print(f"machine: {json.dumps(traced[next(iter(WORKLOADS))][0]['machine'])}")
    for name in WORKLOADS:
        report(name, untraced[name], traced[name])

    if args.record_baseline:
        path = HERE / "baseline_hashes.json"
        baseline = json.loads(path.read_text())
        for name in WORKLOADS:
            for info, _ in untraced[name] + [traced[name]]:
                if info["hashes"] is not None:
                    baseline.setdefault(name, {})[str(info["seed"])] = info["hashes"]
        path.write_text(json.dumps(baseline, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
