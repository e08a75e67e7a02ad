"""Independent reference implementations used to verify the package.

Everything here deliberately avoids the code paths it checks: numeric
maximization instead of the closed form, pure-Python row loops instead of
vectorized masks, full subset enumeration instead of prefix scans and
coordinate ascent, and per-record masks instead of the cell table.
``reference_q`` restates the closed form in scalar floats, to pin the
package's array form bit for bit.
``exhaustive_scan`` checks the search, not the score, so it scores descriptors
with the package's closed form; ``record_run_restart`` checks the counting,
not the step, so it takes its steps with the package's ``best_prefix``.
``record_run_restart`` also holds the only ascent audit: no step of a restart
may lower its score, which the package's restart loop does not check itself.
"""

from __future__ import annotations

import importlib
import math
from collections.abc import Mapping
from functools import lru_cache
from itertools import combinations, product

import numpy as np

from subscan.scan import (
    ScanConfig,
    ScanResult,
    _check_not_degenerate,
    _random_nonempty_subset,
    evaluate,
)
from subscan.scoring import unguarded_score_array
from subscan.tabular import Dataset, SubsetDescriptor

_STEP_TOL = 1e-9  # slack for float noise in the ascent audit of record_run_restart


def objective(q: float, n_positive: float, n_subset: float, mu: float) -> float:
    """The likelihood-ratio objective at a fixed odds multiplier q."""
    return n_positive * math.log(q) - n_subset * math.log(1.0 - mu + q * mu)


def golden_section_max_q(
    n_positive: float,
    n_subset: float,
    mu: float,
    lo: float = 1.0,
    hi: float = 1e6,
    tol: float = 1e-10,
) -> float:
    """Numerically maximize the objective over q in [lo, hi]."""
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc = objective(c, n_positive, n_subset, mu)
    fd = objective(d, n_positive, n_subset, mu)
    while b - a > tol * max(1.0, abs(a)):
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = objective(c, n_positive, n_subset, mu)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = objective(d, n_positive, n_subset, mu)
    q = (a + b) / 2.0
    # the clamp at 1 is part of the contract, not of the numeric search
    return q if objective(q, n_positive, n_subset, mu) > 0.0 else 1.0


def numeric_max_score(n_positive: float, n_subset: float, mu: float) -> float:
    """Best objective value over q >= 1 by golden-section search."""
    if n_positive == n_subset:
        return -n_subset * math.log(mu)
    q = golden_section_max_q(n_positive, n_subset, mu)
    return max(0.0, objective(q, n_positive, n_subset, mu))


def reference_q(n_positive: float, n_subset: float, mu: float) -> float:
    """The closed-form q* in scalar Python floats, clamped at 1 (inf when all positive).

    A second statement of the formula that ``scoring.unguarded_score_array``
    evaluates over arrays; for counts in the score's domain the two agree bit
    for bit.
    """
    if n_positive == n_subset:
        return math.inf
    if n_positive / n_subset <= mu:  # the division that produces subset rates
        return 1.0
    return max(1.0, (n_positive * (1.0 - mu)) / (mu * (n_subset - n_positive)))


def membership_mask(dataset: Dataset, descriptor: SubsetDescriptor) -> np.ndarray:
    """Boolean mask of records satisfying the descriptor, one record column at a time."""
    descriptor.validate_against(dataset.schema)
    mask = np.ones(dataset.n_records, dtype=bool)
    for f, values in descriptor.constraints:
        mask &= np.isin(dataset.rows[:, f], values)
    return mask


def membership(dataset: Dataset, descriptor: SubsetDescriptor) -> np.ndarray:
    """Sorted indices of records satisfying the descriptor.

    An empty descriptor matches every record; a feature constrained to all of
    its categories is vacuous.
    """
    return np.flatnonzero(membership_mask(dataset, descriptor))


def unique_rows_cells(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(columns, index, n) of a cell table: the distinct rows in lexicographic order.

    ``columns`` holds one row per feature, ``index`` each record's cell and
    ``n`` the records per cell, as ``np.unique`` over whole rows finds them.
    """
    distinct, index, n = np.unique(rows, axis=0, return_inverse=True, return_counts=True)
    return distinct.T, index.reshape(-1), n


def brute_membership(rows, constraints: dict[int, set[int]]) -> set[int]:
    """Row-by-row membership check: AND over features of OR over values."""
    members = set()
    for i, row in enumerate(rows):
        if all(row[f] in values for f, values in constraints.items()):
            members.add(i)
    return members


def best_category_subset_score(counts, positives, mu: float) -> float:
    """Max score over every nonempty subset of a feature's categories."""
    best = 0.0
    k = len(counts)
    for size in range(1, k + 1):
        for subset in combinations(range(k), size):
            tot = sum(counts[i] for i in subset)
            pos = sum(positives[i] for i in subset)
            if tot == 0:
                continue
            best = max(best, numeric_max_score(pos, tot, mu) if pos < tot
                       else -tot * math.log(mu))
    return best


_cached_numeric_max_score = lru_cache(maxsize=None)(numeric_max_score)
_cached_best_subset_score = lru_cache(maxsize=None)(best_category_subset_score)


class StepAudit:
    """A feature step that checks each of its results against subset enumeration.

    Wraps ``subscan.scan.best_prefix``: every step must return a nonempty
    value set whose score is the returned score, and no value subset may
    score higher. Steps over more than 12 categories are passed through
    unchecked, since enumeration doubles per category; ``audited`` counts the steps that were checked.
    Restarts revisit the same counts often, so the enumeration results are
    cached per input; every step is still compared against them.
    """

    MAX_CARDINALITY = 12
    TOL = 1e-9  # float noise allowed between prefix and enumeration scores

    def __init__(self, step):
        self.step = step
        self.audited = 0

    def __call__(self, counts, positives, mu: float):
        included, score = self.step(counts, positives, mu)
        if len(counts) > self.MAX_CARDINALITY:
            return included, score
        chosen = [i for i in range(len(counts)) if included[i]]
        if not chosen:
            raise AssertionError("feature step returned an empty value set")
        tot = sum(int(counts[i]) for i in chosen)
        pos = sum(int(positives[i]) for i in chosen)
        own = _cached_numeric_max_score(pos, tot, mu) if tot else 0.0
        if abs(own - score) > 1e-6 * abs(own) + 1e-9:
            raise AssertionError(
                f"feature step reported {score} for a value set scoring {own}"
            )
        best = _cached_best_subset_score(
            tuple(int(c) for c in counts), tuple(int(p) for p in positives), mu
        )
        if best > score + self.TOL * (1.0 + abs(best)):
            raise AssertionError(
                f"prefix step missed the optimal value subset: {score} < {best}"
            )
        self.audited += 1
        return included, score


def _descriptor_sort_key(
    constraints: tuple[tuple[int, tuple[int, ...]], ...],
) -> tuple[int, tuple[tuple[int, tuple[int, ...]], ...]]:
    return (len(constraints), constraints)


class BudgetError(Exception):
    """Exhaustive enumeration would exceed the caller's evaluation budget."""


def exhaustive_scan(dataset: Dataset, limit: int = 1_000_000) -> ScanResult:
    """Global maximum by full descriptor enumeration; the oracle for scan().

    Refuses to run when the descriptor count (product over features of
    2**cardinality) exceeds ``limit``. Ties resolve to the descriptor with the
    fewest constrained features, then lexicographically.
    """
    _check_not_degenerate(dataset)
    cards = dataset.schema.cardinalities()
    total = 1
    for card in cards:
        total *= 2 ** card
        if total > limit:
            raise BudgetError(
                f"descriptor space exceeds the evaluation budget ({limit})"
            )

    rows = dataset.rows
    y = dataset.outcomes
    mu = dataset.global_mean
    n = dataset.n_records

    # Per-feature choices: unconstrained, or any nonempty proper value subset
    # (the full subset is identical to unconstrained).
    choice_lists = []
    for z, card in enumerate(cards):
        choices: list[tuple[int, tuple[int, ...]] | None] = [None]
        for size in range(1, card):
            for vals in combinations(range(card), size):
                choices.append((z, vals))
        choice_lists.append(choices)

    value_masks = [
        [rows[:, z] == v for v in range(card)] for z, card in enumerate(cards)
    ]

    best_score = -1.0
    best_key: tuple[int, tuple] | None = None
    best_constraints: tuple[tuple[int, tuple[int, ...]], ...] = ()
    for combo in product(*choice_lists):
        constraints = tuple(c for c in combo if c is not None)
        mask = np.ones(n, dtype=bool)
        for z, vals in constraints:
            allowed = value_masks[z][vals[0]].copy()
            for v in vals[1:]:
                allowed |= value_masks[z][v]
            mask &= allowed
        n_subset = np.float64(mask.sum())
        n_positive = np.float64(y[mask].sum())
        with np.errstate(divide="ignore", invalid="ignore"):
            s = float(unguarded_score_array(n_positive, n_subset, mu)[1])
        key = _descriptor_sort_key(constraints)
        if s > best_score or (s == best_score and (best_key is None or key < best_key)):
            best_score = s
            best_key = key
            best_constraints = constraints

    descriptor = SubsetDescriptor(best_constraints)
    return ScanResult(descriptor, *evaluate(dataset, descriptor), 0)


def record_category_counts(
    dataset: Dataset, allowed: Mapping[int, np.ndarray], feature: int
) -> tuple[np.ndarray, np.ndarray]:
    """``CategoryCounter.counts`` through a per-record mask, rebuilt on every call."""
    mask = np.ones(dataset.n_records, dtype=bool)
    for f, ok in allowed.items():
        if f != feature:
            mask &= ok[dataset.rows[:, f]]
    col = dataset.rows[mask, feature]
    card = dataset.schema.cardinality(feature)
    positive = dataset.outcomes.view(np.bool_)[mask]  # outcomes are 0/1 int8
    return np.bincount(col, minlength=card), np.bincount(col[positive], minlength=card)


def record_run_restart(
    dataset: Dataset,
    positives: np.ndarray,
    config: ScanConfig,
    seed_seq: np.random.SeedSequence,
) -> tuple[float, tuple[tuple[int, ...], ...]]:
    """``scan._run_restart`` on per-record masks: the engine the cell table replaced.

    Draws the same random stream and takes every step, including those the
    engine skips because no other feature's value set changed since the
    feature's last step, so patched in for ``_run_restart`` it must reproduce
    every restart bit for bit. It counts the dataset's own outcomes, so it
    stands in only for restarts over ``dataset.cell_positives``: a bootstrap
    replicate is checked on a full Dataset that carries the replicate's
    outcomes.
    """
    if positives is not dataset.cell_positives:
        raise AssertionError("the record engine counts only the dataset's own outcomes")
    best_prefix = importlib.import_module("subscan.scan").best_prefix
    rng = np.random.default_rng(seed_seq)
    mu = dataset.global_mean
    n_features = dataset.schema.n_features
    cards = dataset.schema.cardinalities()

    included = {z: _random_nonempty_subset(rng, card) for z, card in enumerate(cards)}
    if config.feature_order == "shuffled":
        order = rng.permutation(n_features)
    else:
        order = np.arange(n_features)

    counts, positives = record_category_counts(dataset, included, 0)
    with np.errstate(divide="ignore", invalid="ignore"):  # for every score of the restart
        current_score = float(unguarded_score_array(
            np.float64(positives[included[0]].sum()), np.float64(counts[included[0]].sum()), mu
        )[1])
        for _ in range(config.max_passes):
            changed = False
            for z in order:
                counts, positives = record_category_counts(dataset, included, z)
                new_inc, best_score = best_prefix(counts, positives, mu)
                if best_score < current_score - _STEP_TOL * (1.0 + abs(current_score)):
                    raise AssertionError(
                        f"ascent step decreased the score: {current_score} -> {best_score}"
                    )
                if not np.array_equal(new_inc, included[z]):
                    included[z] = new_inc
                    changed = True
                current_score = best_score
            if not changed:
                break

    return current_score, tuple(
        tuple(int(v) for v in np.flatnonzero(inc)) for inc in included.values()
    )
