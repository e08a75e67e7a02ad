"""Post-discovery analysis: which feature values drive a subgroup's anomalousness,
and what is the smallest set of value substitutions that destroys it.

Relevance ranking compares, for each anomalous feature value, its marginal
outcome mean over the whole dataset (e_value) against a reference expectation
for the subgroup and against the global mean. The default ranking statistic is
the deviation ratio (subset deviation / global deviation); values with
negative ratios rank ahead of values with positive ratios, each group in
descending numeric order, and values whose global deviation is zero carry an
undefined ratio and rank last.

Cross-substitution replaces anomalous values with values drawn from the same
feature's complement. A substitution changes one feature's value set, so its
member counts are sums of that feature's per-category counts under the
subgroup's other constraints (``CategoryCounter.counts``). The sweep evaluates
every candidate independently against the original descriptor: one count over
the cells per constrained feature, then O(1) work per candidate. The greedy
walk keeps one counter on its current subgroup, counts the feature of each
move it attempts, and updates the counter on every applied move. It tries one
list of moves:
features in relevance order, each ranked value paired with every complement
value of the original descriptor, in category order. A move whose value has
already left the current set is skipped; otherwise it is kept only if it
strictly lowers the score, and the walk stops as soon as the perturbed
subgroup is no longer significant.
All substitution p-values share one null score sample per dataset: the null
distribution of the scan maximum does not depend on which subgroup is being
tested, and a shared sample keeps a sweep of dozens of candidates affordable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Literal

import numpy as np

from .errors import ContractError
from .scan import ScanResult, score_values
from .scoring import EffectMeasures, ScorePanel
from .significance import BootstrapConfig, null_score_distribution, p_from_null_scores
from .tabular import CategoryCounter, Dataset, Schema, SubsetDescriptor, _allowed_masks


@dataclass(frozen=True)
class RelevanceConfig:
    """Reference expectation, ranking statistic, and selection rule.

    reference_expectation "subset_mean" uses the subgroup's own outcome rate;
    "unity" pins the reference at 1.0 (every subgroup member assumed positive).
    The selection rule follows from the bound given: ``top_k`` keeps the k
    best ranks, ``threshold`` keeps entries whose ranking statistic exceeds
    it, and neither keeps everything. Both at once are rejected.
    """

    reference_expectation: Literal["subset_mean", "unity"] = "subset_mean"
    ranking_mode: Literal["deviation_ratio", "global_deviation"] = "deviation_ratio"
    top_k: int | None = None
    threshold: float | None = None

    def __post_init__(self) -> None:
        if self.reference_expectation not in ("subset_mean", "unity"):
            raise ContractError("reference_expectation must be 'subset_mean' or 'unity'")
        if self.ranking_mode not in ("deviation_ratio", "global_deviation"):
            raise ContractError("ranking_mode must be 'deviation_ratio' or 'global_deviation'")
        if self.top_k is not None and self.threshold is not None:
            raise ContractError("top_k and threshold are mutually exclusive selection rules")
        if self.top_k is not None and self.top_k < 1:
            raise ContractError("top_k must be >= 1")


@dataclass(frozen=True)
class RelevanceEntry:
    """One anomalous feature value with its deviation statistics and rank."""

    feature: str
    value: str
    e_value: float
    subset_deviation: float
    global_deviation: float
    deviation_ratio: float | None
    rank: int


def relevance_stats(
    e_value: float, reference: float, global_mean: float
) -> tuple[float, float, float | None]:
    """(subset deviation, global deviation, deviation ratio or None).

    The ratio is undefined (None) when the value's marginal mean equals the
    global mean.
    """
    subset_dev = e_value - reference
    global_dev = e_value - global_mean
    if global_dev == 0.0:
        return subset_dev, global_dev, None
    return subset_dev, global_dev, subset_dev / global_dev


def order_relevance_entries(
    entries: list[RelevanceEntry], ranking_mode: str
) -> list[RelevanceEntry]:
    """Sort entries per the ranking mode and renumber ranks from 1.

    deviation_ratio: negative ratios first in descending numeric order, then
    non-negative ratios descending, undefined ratios last. global_deviation:
    descending deviation. Ties keep input order.
    """
    def key(e: RelevanceEntry):
        if ranking_mode != "deviation_ratio":
            return (0, -e.global_deviation)
        if e.deviation_ratio is None:
            return (2, 0.0)
        return (0 if e.deviation_ratio < 0 else 1, -e.deviation_ratio)

    ordered = sorted(entries, key=key)  # a stable sort: ties keep input order
    return [replace(e, rank=r) for r, e in enumerate(ordered, start=1)]


def _apply_selection(
    entries: list[RelevanceEntry], config: RelevanceConfig
) -> list[RelevanceEntry]:
    if config.top_k is not None:
        return entries[: config.top_k]
    if config.threshold is None:
        return entries
    by_ratio = config.ranking_mode == "deviation_ratio"
    stats = ((e, e.deviation_ratio if by_ratio else e.global_deviation) for e in entries)
    return [e for e, stat in stats if stat is not None and stat > config.threshold]


def rank_feature_relevance(
    dataset: Dataset,
    result: ScanResult,
    config: RelevanceConfig = RelevanceConfig(),
) -> list[RelevanceEntry]:
    """Rank the anomalous feature values of a scan result by relevance.

    e_value for a feature value is the outcome mean over all records carrying
    that value, whether or not they belong to the subgroup. A descriptor value
    that no record carries gets e_value 0. A descriptor that constrains no
    feature once normalized (its subgroup is the whole dataset) is refused.
    """
    descriptor = result.descriptor
    descriptor.validate_against(dataset.schema)
    if descriptor.normalized(dataset.schema).is_empty:
        raise ContractError("cannot rank relevance of a descriptor that constrains no feature")

    by_subset = config.reference_expectation == "subset_mean"
    reference = result.panel.subset_mean if by_subset else 1.0
    marginal = CategoryCounter(dataset, dataset.cell_positives, {})
    entries = []
    for feature_idx, values in descriptor.constraints:
        name, cats = dataset.schema.features[feature_idx]
        counts, positives = marginal.counts(feature_idx)
        for v in values:
            count = int(counts[v])
            e_value = float(positives[v]) / count if count else 0.0
            subset_dev, global_dev, ratio = relevance_stats(
                e_value, reference, dataset.global_mean
            )
            entries.append(RelevanceEntry(
                feature=name, value=cats[v], e_value=e_value, subset_deviation=subset_dev,
                global_deviation=global_dev, deviation_ratio=ratio, rank=0,
            ))
    ordered = order_relevance_entries(entries, config.ranking_mode)
    return _apply_selection(ordered, config)


@dataclass(frozen=True)
class SubstitutionCandidate:
    """Replace from_values with to_value on one feature of a descriptor."""

    feature: str
    from_values: tuple[str, ...]
    to_value: str
    resulting_descriptor: SubsetDescriptor


def _substitution(
    schema: Schema,
    descriptor: SubsetDescriptor,
    feature: int,
    from_values: tuple[int, ...],
    to_value: int,
) -> SubstitutionCandidate:
    """Replace from_values with to_value in the feature's value set of descriptor."""
    name, cats = schema.features[feature]
    values = sorted(set(descriptor.values_for(feature)) - set(from_values) | {to_value})
    return SubstitutionCandidate(
        feature=name,
        from_values=tuple(cats[v] for v in from_values),
        to_value=cats[to_value],
        resulting_descriptor=descriptor.with_feature(feature, values),
    )


def _complement(schema: Schema, feature: int, values: tuple[int, ...]) -> list[int]:
    return sorted(set(range(schema.cardinality(feature))) - set(values))


def enumerate_substitutions(
    descriptor: SubsetDescriptor, schema: Schema
) -> list[SubstitutionCandidate]:
    """All single swaps and whole-feature collapses, in deterministic order.

    Per constrained feature (schema order): every [v -> v'] with v anomalous
    and v' from the feature's complement (both in category order), then, when
    the feature has two or more anomalous values, every collapse
    [(all anomalous values) -> v']. Features whose complement is empty
    contribute nothing.
    """
    descriptor.validate_against(schema)
    candidates: list[SubstitutionCandidate] = []
    for feature, values in descriptor.constraints:
        from_sets = [(v,) for v in values]
        if len(values) >= 2:
            from_sets.append(values)  # the whole-feature collapse
        for from_values in from_sets:
            for to_value in _complement(schema, feature, values):
                candidates.append(
                    _substitution(schema, descriptor, feature, from_values, to_value)
                )
    return candidates


@dataclass(frozen=True)
class SubstitutionOutcome:
    """Scores and effect measures of one substitution against a baseline subgroup.

    ``empty`` marks substitutions whose member set vanished: score 0, no odds
    ratio or p-value, excluded from plot output.
    """

    candidate: SubstitutionCandidate
    old_score: float
    new_score: float
    old_or: float | None
    new_or: float | None
    new_p: float | None
    p_at_floor: bool
    significant: bool
    empty: bool = False


def _score_substitution(
    dataset: Dataset,
    candidate: SubstitutionCandidate,
    table: tuple[np.ndarray, np.ndarray],
    old_score: float,
    old_effects: EffectMeasures | None,
    alpha: float,
    null_scores: np.ndarray,
) -> tuple[SubstitutionOutcome, ScorePanel, EffectMeasures | None]:
    """(outcome, panel, effects) of a candidate against the subgroup it perturbs.

    ``table`` is the candidate feature's (counts, positives) under the
    subgroup's other constraints. An empty member set gets the zero panel, no
    odds ratio and no p-value.
    """
    feature = dataset.schema.feature_index(candidate.feature)
    values = list(candidate.resulting_descriptor.values_for(feature))
    panel, effects = score_values(dataset, *table, values)
    empty = panel.n_subset == 0
    new_p, at_floor = (None, False) if empty else p_from_null_scores(panel.score, null_scores)
    outcome = SubstitutionOutcome(
        candidate=candidate,
        old_score=old_score,
        new_score=panel.score,
        old_or=old_effects.odds_ratio if old_effects is not None else None,
        new_or=effects.odds_ratio if effects is not None else None,
        new_p=new_p,
        p_at_floor=at_floor,
        significant=new_p is not None and new_p <= alpha,
        empty=empty,
    )
    return outcome, panel, effects


def single_substitution_sweep(
    dataset: Dataset,
    result: ScanResult,
    ranking: list[RelevanceEntry],
    alpha: float,
    bootstrap: BootstrapConfig,
    *,
    null_scores: np.ndarray | None = None,
    workers: int = 1,
) -> list[SubstitutionOutcome]:
    """Evaluate every substitution candidate independently against the original subgroup.

    Outcomes are ordered by the relevance rank of the substituted value, then
    by enumeration order, and are unaffected by evaluation order. Pass
    ``null_scores`` to reuse an already-computed null sample.
    """
    if null_scores is None:
        null_scores = null_score_distribution(dataset, bootstrap, workers=workers)
    candidates = enumerate_substitutions(result.descriptor, dataset.schema)
    ranks = {(e.feature, e.value): e.rank for e in ranking}

    def rank(c: SubstitutionCandidate) -> float:
        """A candidate inherits the best rank among its substituted values."""
        return min(ranks.get((c.feature, v), math.inf) for v in c.from_values)

    candidates.sort(key=rank)  # a stable sort: ties keep enumeration order
    masks = _allowed_masks(dataset.schema, result.descriptor)
    counter = CategoryCounter(dataset, dataset.cell_positives, masks)
    tables = {dataset.schema.features[f][0]: counter.counts(f) for f in masks}
    return [
        _score_substitution(
            dataset, c, tables[c.feature], result.panel.score, result.effects, alpha, null_scores
        )[0]
        for c in candidates
    ]


@dataclass(frozen=True)
class GreedyResult:
    """Final subgroup after greedy cross-substitution.

    ``denormalized`` is True when the stopping rule fired (the subgroup lost
    its anomalousness); False means the move list ran out first.
    """

    descriptor: SubsetDescriptor
    panel: ScorePanel
    effects: EffectMeasures | None
    p_value: float
    p_at_floor: bool
    applied: tuple[SubstitutionOutcome, ...]
    denormalized: bool


def cross_substitute_greedy(
    dataset: Dataset,
    result: ScanResult,
    ranking: list[RelevanceEntry],
    alpha: float,
    bootstrap: BootstrapConfig,
    *,
    score_threshold: float | None = None,
    unconditional: bool = False,
    null_scores: np.ndarray | None = None,
    workers: int = 1,
) -> GreedyResult:
    """Apply substitutions cumulatively until anomalousness is lost.

    The walk tries one list of moves [v -> v']: features in relevance order
    (first appearance in ``ranking``), each ranked value v of the feature in
    ranking order, paired with every complement value v' of the original
    descriptor in category order. A move whose value v has left the current
    set is skipped, and so is one that changes nothing. A substitution is kept
    only if it strictly lowers the score — pass ``unconditional=True`` to keep
    every substitution and to skip no move for its value — and one that
    empties the subgroup is always reverted. The stopping rule is checked
    before every move, so on entry and after every retained substitution:
    empirical p above ``alpha``, or, when ``score_threshold`` is given, score
    at or below that bound. ``denormalized`` is that rule on the final state.
    """
    if null_scores is None:
        null_scores = null_score_distribution(dataset, bootstrap, workers=workers)

    schema = dataset.schema
    current = result.descriptor
    panel = result.panel
    effects = result.effects
    p_value, at_floor = p_from_null_scores(panel.score, null_scores)

    def stopped(score: float, p: float) -> bool:
        if score_threshold is not None:
            return score <= score_threshold
        return p > alpha

    moves: list[tuple[int, int, int]] = []
    for name in dict.fromkeys(e.feature for e in ranking):
        feature = schema.feature_index(name)
        original = result.descriptor.values_for(feature)
        if original is None:
            continue
        moves += [
            (feature, schema.value_index(feature, e.value), to_value)
            for e in ranking if e.feature == name
            for to_value in _complement(schema, feature, original)
        ]

    applied: list[SubstitutionOutcome] = []
    counter = CategoryCounter(dataset, dataset.cell_positives, _allowed_masks(schema, current))
    for feature, v, to_value in moves:
        if stopped(panel.score, p_value):
            break  # no longer anomalous, or never was: apply nothing more
        # One value's moves sit next to each other, and a skipped move changes
        # nothing, so once a value has left the current set every remaining move
        # of that value is skipped: the value was swapped out, go to the next one.
        if not unconditional and v not in current.values_for(feature):
            continue
        candidate = _substitution(schema, current, feature, (v,), to_value)
        if candidate.resulting_descriptor == current:
            continue  # no-op pair
        outcome, new_panel, new_effects = _score_substitution(
            dataset, candidate, counter.counts(feature), panel.score, effects, alpha, null_scores
        )
        if outcome.empty:
            continue  # emptied the subgroup; revert
        if not unconditional and not new_panel.score < panel.score:
            continue
        applied.append(outcome)
        current, panel, effects = candidate.resulting_descriptor, new_panel, new_effects
        counter.set_allowed(feature, _allowed_masks(schema, current)[feature])
        p_value, at_floor = outcome.new_p, outcome.p_at_floor

    return GreedyResult(
        current, panel, effects, p_value, at_floor, tuple(applied),
        denormalized=stopped(panel.score, p_value),
    )
