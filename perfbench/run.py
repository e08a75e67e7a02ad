"""Run one subscan benchmark workload and print its metrics as the last line.

    python3 perfbench/run.py --workload cells --seed 1 --seconds 15 --trace 0

Run from the root of a checkout. --trace 0 runs the workload's CLI command in
a fresh interpreter, again and again (a closed loop with one client), for
--seconds and reports the end-to-end metrics. --trace 1 runs the command's
calls in process, once plainly and once with a span around each layer call,
and reports the per-layer metrics (--seconds does not apply). Every output is
checked; a command fails on a nonzero exit, any stderr output or a failed
check.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from workloads import (
    COHORT_DIR,
    OUT_DIR,
    WORKLOADS,
    CheckError,
    Cohort,
    Workload,
    check_outputs,
    output_hashes,
    planted_descriptor,
    write_scan_report,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# Set-up is repeated at least this often and for at least this long; setup_s is the median.
SETUP_REPEATS, SETUP_SECONDS = 3, 3.0


class SetupError(Exception):
    pass


@dataclass
class Proc:
    wall_s: float
    peak_rss_mb: float
    returncode: int
    stdout: str
    stderr: str


class Launcher:
    """Runs commands in the workload directory through launcher.py, one at a time."""

    def __init__(self, work: Path) -> None:
        self.work = work
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "launcher.py")],
            env=dict(os.environ, PYTHONPATH=str(SRC)),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def run(self, argv: list[str]) -> Proc:
        out, err = self.work / "stdout.txt", self.work / "stderr.txt"
        request = {"argv": argv, "cwd": str(self.work), "stdout": str(out), "stderr": str(err)}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = json.loads(self.proc.stdout.readline())
        return Proc(reply["wall_s"], reply["peak_rss_kib"] / 1024.0, reply["returncode"],
                    out.read_text(), err.read_text())

    def subscan(self, args: list[str]) -> Proc:
        return self.run([sys.executable, "-m", "subscan.cli", *args])

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc.wait()


def set_up(launcher: Launcher, workload: Workload, seed: int, repeats: int,
           seconds: float) -> list[float]:
    """Build the workload's inputs at least `repeats` times and for at least `seconds`.

    Returns each `subscan synth` wall time.
    """
    times: list[float] = []
    while len(times) < repeats or sum(times) < seconds:
        proc = launcher.subscan(workload.synth_args(seed))
        if proc.returncode != 0 or proc.stderr:
            raise SetupError(f"subscan synth failed ({proc.returncode}): {proc.stderr.strip()}")
        times.append(proc.wall_s)
    return times


class Outputs:
    """Checks each command's outputs and tracks their hashes."""

    def __init__(self, workload: Workload, work: Path, validator) -> None:
        self.workload = workload
        self.out = work / OUT_DIR
        self.cohort = Cohort.read(work / COHORT_DIR / "cohort.csv")
        self.planted = planted_descriptor(work / COHORT_DIR)
        self.validator = validator
        self.hashes: dict[str, str] | None = None
        self.failures: list[str] = []
        if workload.command == "rank":
            write_scan_report(work / COHORT_DIR, self.cohort, self.planted)

    def clear(self) -> None:
        shutil.rmtree(self.out, ignore_errors=True)

    def accept(self, proc: Proc) -> bool:
        """True when the command exited 0, wrote nothing to stderr and its outputs check."""
        try:
            if proc.returncode != 0 or proc.stderr:
                raise CheckError(f"exit {proc.returncode}, stderr: {proc.stderr.strip()[:300]}")
            check_outputs(self.workload, self.out, self.cohort, self.planted, self.validator)
            hashes = output_hashes(self.workload, self.out)
            if self.hashes is None:
                self.hashes = hashes
            elif hashes != self.hashes:
                raise CheckError("outputs differ from the first run with the same inputs")
        except (CheckError, KeyError, TypeError, ValueError) as exc:
            # KeyError and the rest: a malformed output (missing block, bad JSON).
            self.failures.append(f"{type(exc).__name__}: {exc}")
            return False
        return True


def measure(launcher: Launcher, workload: Workload, seed: int, seconds: float,
            outputs: Outputs, setup_times: list[float]) -> tuple[dict, int, int]:
    walls, peaks = [], []
    attempted = failed = 0
    start = time.perf_counter()
    while attempted == 0 or time.perf_counter() - start < seconds:
        outputs.clear()
        proc = launcher.subscan(workload.command_args(seed))
        attempted += 1
        failed += not outputs.accept(proc)
        walls.append(proc.wall_s)
        peaks.append(proc.peak_rss_mb)
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "peak_rss_mb": (statistics.median(peaks), "MiB"),
        "setup_s": (statistics.median(setup_times), "s"),
    }
    return metrics, attempted, failed


def _traced(launcher: Launcher, mode: str, workload: Workload, seed: int, outputs: Outputs):
    outputs.clear()
    proc = launcher.run([sys.executable, str(HERE / "traced.py"), mode, workload.name, str(seed)])
    ok = outputs.accept(proc)
    result = json.loads(proc.stdout.splitlines()[-1]) if proc.returncode == 0 else None
    return proc, ok, result


def trace(launcher: Launcher, workload: Workload, seed: int,
          outputs: Outputs) -> tuple[dict, int, int]:
    plain, plain_ok, plain_result = _traced(launcher, "plain", workload, seed, outputs)
    _, spans_ok, spans_result = _traced(launcher, "spans", workload, seed, outputs)
    if plain_result is None or spans_result is None:
        raise CheckError("; ".join(outputs.failures))
    failed = (not plain_ok) + (not spans_ok)
    counters = spans_result["counters"]
    if counters.get("w1_nulls_equal") is False:
        outputs.failures.append("null scores differ between 1 and 2 workers")
        failed += 1
    return layer_metrics(spans_result["spans"], counters, plain.wall_s,
                         plain_result["in_process_s"]), 2, failed


def layer_metrics(spans: list[dict], c: dict, plain_wall: float, plain_in_process: float) -> dict:
    """Per-layer metrics from span durations and counters.

    A layer the command never calls (say `scan` under `rank`) reads 0.
    """
    d: dict[str, float] = {}
    for s in spans:
        d[s["name"]] = d.get(s["name"], 0.0) + s["end"] - s["start"]

    def per(a: float, b: float) -> float:
        return a / b if b else 0.0

    load = d["tabular.load"]
    scan = d.get("scan.scan", 0.0)
    boot = d.get("significance.bootstrap", 0.0)
    boot_w1 = d.get("significance.bootstrap_w1", boot)
    sweep = d.get("postdiscovery.sweep", 0.0)
    return {
        "tabular.load_s": (load, "s"),
        "tabular.load_rows_per_s": (c["records"] / load, "rows/s"),
        "tabular.load_rss_mb": (c["load_rss_mb"], "MiB"),
        "tabular.synth_s": (d["tabular.synth"], "s"),
        "tabular.records": (c["records"], "count"),
        "tabular.features": (c["features"], "count"),
        "tabular.cells": (c["cells"], "count"),
        "tabular.records_per_cell": (c["records"] / c["cells"], "ratio"),
        "scan.scan_s": (scan, "s"),
        "scan.restart_s": (per(scan, c["restarts"]), "s"),
        "scan.restarts": (c["restarts"], "count"),
        "significance.bootstrap_s": (boot, "s"),
        "significance.replicate_s": (per(boot, c["replicates"]), "s"),
        "significance.replicates_per_s": (per(c["replicates"], boot), "1/s"),
        "significance.replicates": (c["replicates"], "count"),
        "significance.bootstrap_w1_s": (boot_w1, "s"),
        "significance.parallel_speedup": (per(boot_w1, boot), "ratio"),
        "postdiscovery.rank_s": (d["postdiscovery.rank"], "s"),
        "postdiscovery.sweep_s": (sweep, "s"),
        "postdiscovery.sweep_candidates": (c["sweep_candidates"], "count"),
        "postdiscovery.sweep_candidate_ms": (per(1000.0 * sweep, c["sweep_candidates"]), "ms"),
        "postdiscovery.greedy_s": (d.get("postdiscovery.greedy", 0.0), "s"),
        "postdiscovery.greedy_applied": (c["greedy_applied"], "count"),
        "report.write_s": (d["report.write"], "s"),
        "report.bytes": (c["report_bytes"], "bytes"),
        "cli.residual_s": (plain_wall - plain_in_process, "s"),
        "trace.overhead_s": (d["run"] - plain_in_process, "s"),
    }


def machine_record() -> dict:
    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu or platform.processor() or None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": git_commit(),
    }


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git directly (a checkout may have none)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def hash_match(workload: str, seed: int, hashes: dict | None) -> bool | None:
    """Outputs against the stored baseline; None when no baseline exists for the seed."""
    baseline = json.loads((HERE / "baseline_hashes.json").read_text())
    expected = baseline.get(workload, {}).get(str(seed))
    if expected is None or hashes is None:
        return None
    return expected == hashes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (SRC / "subscan" / "cli.py").is_file():
        print(f"error: no subscan sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    try:
        import jsonschema
    except ImportError:
        print("error: jsonschema is required to check the reports", file=sys.stderr)
        return 2
    schema = json.loads((SRC / "subscan" / "schemas" / "report.schema.json").read_text())
    validator = jsonschema.Draft202012Validator(schema)

    workload = WORKLOADS[args.workload]
    work = ROOT / ".perfbench_work" / f"{workload.name}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    launcher = Launcher(work)
    try:
        if args.trace:
            setup_times = set_up(launcher, workload, args.seed, 1, 0.0)
        else:
            setup_times = set_up(launcher, workload, args.seed, SETUP_REPEATS, SETUP_SECONDS)
        outputs = Outputs(workload, work, validator)
        if args.trace:
            metrics, attempted, failed = trace(launcher, workload, args.seed, outputs)
        else:
            metrics, attempted, failed = measure(launcher, workload, args.seed, args.seconds,
                                                 outputs, setup_times)
    except (SetupError, CheckError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        launcher.close()
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    info = {
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "hash_match": hash_match(workload.name, args.seed, outputs.hashes),
        "hashes": outputs.hashes, "failures": outputs.failures,
        "machine": machine_record(),
    }
    print(json.dumps(info))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
