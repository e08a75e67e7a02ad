"""Subgroup search: coordinate ascent over features with random restarts.

Each restart starts from a random descriptor and repeatedly sweeps the
features. A feature step relaxes that feature's constraint, aggregates
(count, positives) per category over the records passing every other
constraint (a ``CategoryCounter`` over the dataset's cells, updated only when
a feature's value set changes), and hands those counts to ``best_prefix``:
the LTSS step, which orders categories by positive rate and scores every
prefix of that ordering. For this score the best prefix matches the best of
all value subsets (the test suite audits every step against subset
enumeration), which is what keeps the step linear instead of exponential in
the feature's cardinality. A restart has converged when a full sweep changes
nothing.

Results are deterministic for a given seed and independent of the worker
count: every restart draws from its own pre-spawned random stream and the
cross-restart reduction is an index-ordered max.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Literal, Sequence

import numpy as np

from .errors import ContractError, DegenerateDataError
from .scoring import EffectMeasures, ScorePanel, bernoulli_score, odds_ratio, score_array
from .tabular import CategoryCounter, Dataset, SubsetDescriptor, subset_counts

_STEP_TOL = 1e-9  # slack for float-noise in the ascent assertion


_installed: Callable[[Any], Any] | None = None  # the task function of a pool worker


def _install(fn: Callable[[Any], Any]) -> None:
    global _installed
    _installed = fn


def _call_installed(task: Any) -> Any:
    return _installed(task)  # type: ignore[misc]


def parallel_map(fn: Callable[[Any], Any], tasks: Sequence[Any], workers: int) -> list[Any]:
    """``[fn(t) for t in tasks]``, spread over a process pool when workers > 1.

    The pool has at most ``min(workers, len(tasks), os.cpu_count())``
    processes. ``fn`` reaches each worker once, through the pool initializer,
    so the chunks of tasks do not carry it (nor the dataset bound in it).
    Results come back in task order and every task is computed the same way
    on any worker, so the output does not depend on the worker count. ``fn``
    must be picklable: a module-level function or a ``functools.partial`` of
    one.
    """
    # under the fork start method the pool starts max_workers processes at once
    workers = min(workers, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(workers, initializer=_install, initargs=(fn,)) as pool:
            chunksize = max(1, len(tasks) // (workers * 2))
            return list(pool.map(_call_installed, tasks, chunksize=chunksize))
    return [fn(t) for t in tasks]


@dataclass(frozen=True)
class ScanConfig:
    """Knobs for the restart search.

    feature_order "fixed" sweeps features in schema order; "shuffled" draws a
    per-restart order from that restart's random stream.
    """

    n_restarts: int = 10
    max_passes: int = 20
    seed: int = 0
    feature_order: Literal["fixed", "shuffled"] = "fixed"

    def __post_init__(self) -> None:
        if self.n_restarts < 1:
            raise ContractError("n_restarts must be >= 1")
        if self.max_passes < 1:
            raise ContractError("max_passes must be >= 1")
        if self.seed < 0:
            raise ContractError("seed must be a non-negative integer")
        if self.feature_order not in ("fixed", "shuffled"):
            raise ContractError("feature_order must be 'fixed' or 'shuffled'")


@dataclass(frozen=True)
class ScanResult:
    """Best descriptor found, its score panel, effect measures, and provenance."""

    descriptor: SubsetDescriptor
    panel: ScorePanel
    effects: EffectMeasures | None
    restart_index: int


def evaluate(
    dataset: Dataset, descriptor: SubsetDescriptor
) -> tuple[ScorePanel, EffectMeasures | None]:
    """Score panel and odds ratio of a descriptor's member set.

    An empty member set gets the zero panel (``n_subset == 0``) and no
    effects; a member set covering the whole dataset has no complement, so
    its effects are None too.
    """
    n_subset, n_positive = subset_counts(dataset, descriptor)
    if n_subset == 0:
        return ScorePanel(0.0, 1.0, 0, 0, dataset.global_mean, 0.0), None
    panel = bernoulli_score(n_positive, n_subset, dataset.global_mean)
    n = dataset.n_records
    if n_subset == n:
        return panel, None
    total_pos = dataset.n_positive
    effects = odds_ratio(
        n_positive,
        n_subset - n_positive,
        total_pos - n_positive,
        (n - n_subset) - (total_pos - n_positive),
    )
    return panel, effects


def _check_not_degenerate(dataset: Dataset) -> None:
    pos = dataset.n_positive
    if pos == 0 or pos == dataset.n_records:
        raise DegenerateDataError(
            "outcomes are all 0 or all 1; the scan statistic is undefined"
        )


def _random_nonempty_subset(rng: np.random.Generator, cardinality: int) -> np.ndarray:
    """Uniform over nonempty category subsets: p=0.5 inclusion, redrawn if empty."""
    while True:
        inc = rng.random(cardinality) < 0.5
        if inc.any():
            return inc


def best_prefix(
    counts: np.ndarray, positives: np.ndarray, mu: float
) -> tuple[np.ndarray, float]:
    """The LTSS feature step: best value set of one feature from its per-category counts.

    Orders categories by positive rate (ties: larger count first, then lower
    index) and scores every prefix of that order; the first best prefix wins,
    so the set is the smallest among equal scores. Returns the included-category
    mask, never empty, and its score.
    """
    cardinality = len(counts)
    rates = np.where(counts > 0, positives / np.maximum(counts, 1), 0.0)
    perm = np.lexsort((np.arange(cardinality), -counts, -rates))
    cum_tot = counts[perm].cumsum().astype(np.float64)
    cum_pos = positives[perm].cumsum().astype(np.float64)
    prefix_scores = score_array(cum_pos, cum_tot, mu)
    k = int(np.argmax(prefix_scores))  # first max -> fewest categories
    included = np.zeros(cardinality, dtype=bool)
    included[perm[: k + 1]] = True
    return included, float(prefix_scores[k])


def _run_restart(
    dataset: Dataset,
    config: ScanConfig,
    seed_seq: np.random.SeedSequence,
) -> tuple[float, tuple[tuple[int, ...], ...]]:
    """One restart; returns (score, per-feature included-value tuples)."""
    rng = np.random.default_rng(seed_seq)
    mu = dataset.global_mean
    n_features = dataset.schema.n_features
    cards = dataset.schema.cardinalities()

    # feature -> included-category mask, the allowed masks of the counter
    included = {z: _random_nonempty_subset(rng, card) for z, card in enumerate(cards)}
    if config.feature_order == "shuffled":
        order = rng.permutation(n_features)
    else:
        order = np.arange(n_features)

    counter = CategoryCounter(dataset, included)
    counts, positives = counter.counts(0)
    current_score = float(
        score_array(float(positives[included[0]].sum()), float(counts[included[0]].sum()), mu)
    )

    for _ in range(config.max_passes):
        changed = False
        for z in order:
            counts, positives = counter.counts(z)
            new_inc, best_score = best_prefix(counts, positives, mu)
            if best_score < current_score - _STEP_TOL * (1.0 + abs(current_score)):
                raise AssertionError(
                    f"ascent step decreased the score: {current_score} -> {best_score}"
                )
            if not np.array_equal(new_inc, included[z]):
                included[z] = new_inc
                counter.set_allowed(z, new_inc)
                changed = True
            current_score = best_score
        if not changed:
            break

    return current_score, tuple(
        tuple(int(v) for v in np.flatnonzero(inc)) for inc in included.values()
    )


def _finalize(
    dataset: Dataset,
    included: tuple[tuple[int, ...], ...],
    restart_index: int,
) -> ScanResult:
    descriptor = SubsetDescriptor(tuple(enumerate(included))).normalized(dataset.schema)
    panel, effects = evaluate(dataset, descriptor)
    return ScanResult(descriptor, panel, effects, restart_index)


def scan(
    dataset: Dataset,
    config: ScanConfig = ScanConfig(),
    *,
    workers: int = 1,
) -> ScanResult:
    """Find the highest-scoring subgroup over ``config.n_restarts`` restarts.

    Ties across restarts go to the lowest restart index; a feature whose
    adopted value set covers all of its categories is dropped from the
    returned descriptor as vacuous.
    """
    _check_not_degenerate(dataset)
    seeds = np.random.SeedSequence(config.seed).spawn(config.n_restarts)
    outcomes = parallel_map(partial(_run_restart, dataset, config), seeds, workers)
    # max() keeps the first of equal scores: the lowest restart index
    best_index = max(range(len(outcomes)), key=lambda r: outcomes[r][0])
    return _finalize(dataset, outcomes[best_index][1], best_index)
