"""The command-line surface, pinned: each subcommand's options and what they parse to.

A knob's flag, destination, choices, default, const and help text, the set of
subcommands that take it, and the typed value each flag parses to are the
CLI's contract with scripts and config files; a refactor of the parser must
leave them as they are.
"""

from __future__ import annotations

import argparse

import pytest

from subscan.cli import build_parser

COMMANDS = {
    "synth": "generate a synthetic cohort with a planted subgroup",
    "scan": "find the highest-scoring subgroup and its significance",
    "rank": "rank feature-value relevance of a discovered subgroup",
    "substitute": "score every single substitution of the subgroup",
    "pipeline": "scan, rank, substitution sweep, and greedy walk",
}

HELP = {
    "config": "JSON config file; explicit flags win",
    "out": "output directory (default .)",
    "seed": "master seed for every stochastic stage",
    "workers": "parallel worker processes (default 1; capped at the CPU count and at the "
               "number of tasks)",
    "input": "input CSV path",
    "outcome": "outcome column name (default y)",
    "restarts": "random restarts (default 10)",
    "max_passes": "max coordinate sweeps per restart (default 20)",
    "feature_order": "sweep order (default fixed)",
    "replicates": "bootstrap replicates (default 50)",
    "alpha": "significance level (default 0.05)",
    "reference": "reference expectation for deviations (default subset_mean)",
    "ranking_mode": "ranking statistic (default deviation_ratio)",
    "top_k": "keep only the k best-ranked feature values",
    "delta_threshold": "keep feature values whose ranking statistic exceeds this",
    "score_threshold": "stop the greedy walk at this score instead of at p > alpha",
    "unconditional": "greedy walk keeps every substitution, not only score-decreasing ones",
    "scan_report": "scan_report.json from `subscan scan`",
    "rank_report": "rank_report.json from `subscan rank` (recomputed if omitted)",
    "n": "number of records",
    "cardinalities": "comma-separated category counts, e.g. 2,3,4",
    "base_rate": "outcome rate outside the planted subgroup",
    "odds_multiplier": "odds lift inside the planted subgroup (> 1)",
    "planted": "descriptor like 'f0=v0|v1;f2=v3' (default: first halves of the first two "
               "features)",
}
CHOICES = {
    "feature_order": ["fixed", "shuffled"],
    "reference": ["subset_mean", "unity"],
    "ranking_mode": ["deviation_ratio", "global_deviation"],
}
CONST = {"unconditional": True}

COMMON = {"config", "out", "seed", "workers"}
DATA = {"input", "outcome"}
SCAN = {"restarts", "max_passes", "feature_order", "replicates", "alpha"}
RELEVANCE = {"reference", "ranking_mode", "top_k", "delta_threshold"}
OPTIONS = {
    "synth": COMMON | {"outcome", "n", "cardinalities", "base_rate", "odds_multiplier",
                       "planted"},
    "scan": COMMON | DATA | SCAN,
    "rank": COMMON | DATA | RELEVANCE | {"scan_report"},
    "substitute": COMMON | DATA | SCAN | RELEVANCE | {"scan_report", "rank_report"},
    "pipeline": COMMON | DATA | SCAN | RELEVANCE | {"score_threshold", "unconditional"},
}

# each option's argv text and the value it must parse to, type included
ARGS: dict[str, tuple[list[str], object]] = {
    "config": (["c.json"], "c.json"),
    "out": (["o"], "o"),
    "seed": (["3"], 3),
    "workers": (["2"], 2),
    "input": (["in.csv"], "in.csv"),
    "outcome": (["label"], "label"),
    "restarts": (["4"], 4),
    "max_passes": (["5"], 5),
    "feature_order": (["shuffled"], "shuffled"),
    "replicates": (["19"], 19),
    "alpha": (["1"], 1.0),
    "reference": (["unity"], "unity"),
    "ranking_mode": (["global_deviation"], "global_deviation"),
    "top_k": (["7"], 7),
    "delta_threshold": (["2"], 2.0),
    "score_threshold": (["6"], 6.0),
    "unconditional": ([], True),
    "scan_report": (["s.json"], "s.json"),
    "rank_report": (["r.json"], "r.json"),
    "n": (["100"], 100),
    "cardinalities": (["2,3"], "2,3"),
    "base_rate": (["0"], 0.0),
    "odds_multiplier": (["8"], 8.0),
    "planted": (["f0=v0"], "f0=v0"),
}


def flag(dest: str) -> str:
    return "--" + dest.replace("_", "-")


@pytest.fixture(scope="module")
def subparsers() -> argparse._SubParsersAction:
    parser = build_parser()
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))


def test_subcommands_and_their_help(subparsers):
    helps = {a.dest: a.help for a in subparsers._choices_actions}
    assert helps == COMMANDS
    assert list(subparsers.choices) == list(COMMANDS)


@pytest.mark.parametrize("command", list(COMMANDS))
def test_option_table(subparsers, command):
    got = {
        a.dest: (a.option_strings, a.choices, a.default, a.const, a.help)
        for a in subparsers.choices[command]._actions
        if not isinstance(a, argparse._HelpAction)
    }
    want = {
        dest: ([flag(dest)], CHOICES.get(dest), None, CONST.get(dest), HELP[dest])
        for dest in OPTIONS[command]
    }
    assert got == want


@pytest.mark.parametrize("command", list(COMMANDS))
def test_every_flag_parses_to_its_typed_value(command):
    argv = [command]
    for dest in sorted(OPTIONS[command]):
        argv += [flag(dest), *ARGS[dest][0]]
    parsed = vars(build_parser().parse_args(argv))
    assert parsed.pop("subcommand") == command
    assert parsed.pop("func").__name__ == f"cmd_{command}"
    assert {k: (type(v), v) for k, v in parsed.items()} == {
        dest: (type(ARGS[dest][1]), ARGS[dest][1]) for dest in OPTIONS[command]
    }


@pytest.mark.parametrize("command", list(COMMANDS))
def test_unset_flags_parse_to_none(command):
    parsed = vars(build_parser().parse_args([command]))
    assert {k: v for k, v in parsed.items() if k not in ("subcommand", "func")} == dict.fromkeys(
        OPTIONS[command]
    )
