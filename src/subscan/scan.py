"""Subgroup search: coordinate ascent over features with random restarts.

Each restart starts from a random descriptor and repeatedly sweeps the
features. A feature step relaxes that feature's constraint, aggregates
(count, positives) per category over the records passing every other
constraint (a ``CategoryCounter`` over the dataset's cells, updated only when
a feature's value set changes), and hands those counts to ``best_prefix``:
the LTSS step, which orders categories by positive rate and scores every
prefix of that ordering, in Python floats for a feature of up to 16
categories and in numpy arrays past that, with the same bits either way. For
this score the best prefix matches the best of all value subsets (the test
suite audits every step against subset enumeration), which is what keeps the
step linear instead of exponential in the feature's cardinality. A restart
has converged when a full sweep changes nothing.

A feature's step is skipped when no other feature's value set has changed
since that feature's last step. The skip is exact: the feature's counts are
then the same, so ``best_prefix`` would return its current value set, and the
score would be the same bits, since every score is a closed-form function of
exact integer member counts and the member set has not changed. Passes,
``max_passes`` and convergence count as if every step were taken.

Results are deterministic for a given seed and independent of the worker
count: every restart draws from its own pre-spawned random stream and the
cross-restart reduction is an index-ordered max.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import partial
from itertools import accumulate
from typing import Any, Callable, Literal, Sequence

import numpy as np

from .errors import ContractError, DegenerateDataError
from .scoring import (
    EffectMeasures,
    ScorePanel,
    bernoulli_score,
    odds_ratio,
    score_list,
    unguarded_score_array,
)
from .tabular import CategoryCounter, Dataset, SubsetDescriptor, _allowed_masks

_LIST_STEP_MAX = 16  # widest feature stepped in Python floats; past it arrays are faster


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
    so the tasks do not carry it (nor the dataset bound in it). Each task
    goes to the next free worker on its own: a task (a whole restart or
    replicate search) takes far longer than its pickle, and chunks of
    several tasks leave one worker with most of them. Results come back in
    task order and every task is computed the same way on any worker, so
    the output does not depend on the worker count. ``fn``
    must be picklable: a module-level function or a ``functools.partial`` of
    one. A worker count below 1 is refused.
    """
    if workers < 1:
        raise ContractError("workers must be >= 1")
    # under the fork start method the pool starts max_workers processes at once
    workers = min(workers, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # a serial run never imports it

        with ProcessPoolExecutor(workers, initializer=_install, initargs=(fn,)) as pool:
            return list(pool.map(_call_installed, tasks))
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

    Counts feature 0 under the other features' masks through a
    ``CategoryCounter`` and sums its counts over feature 0's value set (every
    category when it is unconstrained) in ``score_values``, which also says
    what an empty or a whole-dataset member set gets.
    """
    allowed = _allowed_masks(dataset.schema, descriptor)
    counts, positives = CategoryCounter(dataset, dataset.cell_positives, allowed).counts(0)
    return score_values(dataset, counts, positives, allowed.get(0, slice(None)))


def score_values(
    dataset: Dataset, counts: np.ndarray, positives: np.ndarray, values: Any
) -> tuple[ScorePanel, EffectMeasures | None]:
    """Score panel and odds ratio of the records whose category of one feature is in ``values``.

    ``counts`` and ``positives`` are that feature's per-category counts under
    the other constraints (``CategoryCounter.counts``); ``values`` indexes
    them: a boolean mask, a list of categories or a slice. An empty member set
    gets the zero panel (``n_subset == 0``) and no effects; a member set
    covering the whole dataset has no complement, so its effects are None too.
    """
    n_subset, n_positive = int(counts[values].sum()), int(positives[values].sum())
    if n_subset == 0:
        return ScorePanel(0.0, 1.0, 0, 0, dataset.global_mean, 0.0), None
    panel = bernoulli_score(n_positive, n_subset, dataset.global_mean)
    n = dataset.n_records
    if n_subset == n:
        return panel, None
    outside_positive = dataset.n_positive - n_positive
    effects = odds_ratio(
        n_positive, n_subset - n_positive, outside_positive, n - n_subset - outside_positive
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
    mask, never empty, and its score. ``counts`` and ``positives`` are int
    arrays or float64 arrays of exact integers. A feature of up to
    ``_LIST_STEP_MAX`` categories is stepped in Python floats through
    ``score_list``, a wider one in arrays through ``unguarded_score_array``;
    both give the same mask and the same bits.
    """
    if len(counts) > _LIST_STEP_MAX:
        rates = positives / np.maximum(counts, 1)  # an empty category has no positives: rate 0
        perm = np.lexsort((-counts, -rates))  # stable: equal keys keep the lower index first
        with np.errstate(divide="ignore", invalid="ignore"):  # empty and all-positive prefixes
            _, prefix_scores = unguarded_score_array(
                positives[perm].cumsum(dtype=np.float64), counts[perm].cumsum(dtype=np.float64),
                mu,
            )
        k = int(np.argmax(prefix_scores))  # first max -> fewest categories
        order, score = perm[: k + 1], float(prefix_scores[k])
    else:
        n, c = counts.tolist(), positives.tolist()
        order = sorted(range(len(n)), key=lambda h: (-(c[h] / max(n[h], 1)), -n[h]))  # stable
        _, prefix_scores = score_list(  # running sums of integers below 2**53 are exact
            list(accumulate(c[h] for h in order)), list(accumulate(n[h] for h in order)), mu
        )
        k = max(range(len(order)), key=prefix_scores.__getitem__)  # first max, as argmax
        order, score = order[: k + 1], prefix_scores[k]
    included = np.zeros(len(counts), dtype=bool)
    included[order] = True
    return included, score


def _run_restart(
    dataset: Dataset,
    cell_positives: np.ndarray,
    config: ScanConfig,
    seed_seq: np.random.SeedSequence,
) -> tuple[float, tuple[tuple[int, ...], ...]]:
    """One restart over ``cell_positives``: (last step's score, per-feature included values).

    The last step's score is that of the member set the restart ends on, since
    a skipped step would return the same value set and the same bits.
    """
    rng = np.random.default_rng(seed_seq)
    mu = int(cell_positives.sum()) / dataset.n_records
    n_features = dataset.schema.n_features
    cards = dataset.schema.cardinalities()

    # feature -> included-category mask, the allowed masks of the counter
    included = {z: _random_nonempty_subset(rng, card) for z, card in enumerate(cards)}
    shuffled = config.feature_order == "shuffled"
    order = rng.permutation(n_features) if shuffled else np.arange(n_features)

    counter = CategoryCounter(dataset, cell_positives, included)
    stamp, seen = 0, [-1] * n_features  # value-set changes; stamp at each feature's last step
    for _ in range(config.max_passes):
        pass_start = stamp
        for z in order:
            if seen[z] == stamp:  # the skip of the module docstring
                continue
            new_inc, score = best_prefix(*counter.counts(z), mu)
            if new_inc.tobytes() != included[z].tobytes():
                included[z] = new_inc
                counter.set_allowed(z, new_inc)
                stamp += 1
            seen[z] = stamp
        if stamp == pass_start:
            break

    return score, tuple(
        tuple(int(v) for v in np.flatnonzero(inc)) for inc in included.values()
    )


def _search(
    dataset: Dataset, positives: np.ndarray, config: ScanConfig, workers: int
) -> tuple[int, tuple[float, tuple[tuple[int, ...], ...]]]:
    """The restarts over the cells' ``positives``: (best restart index, its (score, included))."""
    seeds = np.random.SeedSequence(config.seed).spawn(config.n_restarts)
    outcomes = parallel_map(partial(_run_restart, dataset, positives, config), seeds, workers)
    # max() keeps the first of equal scores: the lowest restart index
    best_index = max(range(len(outcomes)), key=lambda r: outcomes[r][0])
    return best_index, outcomes[best_index]


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
    best_index, (_, included) = _search(dataset, dataset.cell_positives, config, workers)
    descriptor = SubsetDescriptor(tuple(enumerate(included))).normalized(dataset.schema)
    return ScanResult(descriptor, *evaluate(dataset, descriptor), best_index)
