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
feature's complement. The sweep evaluates every candidate independently
against the original descriptor; the greedy walk applies substitutions
cumulatively in relevance order and keeps one only if it strictly lowers the
score, stopping as soon as the perturbed subgroup is no longer significant.
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
from .scan import ScanResult, evaluate
from .scoring import EffectMeasures, ScorePanel
from .significance import BootstrapConfig, null_score_distribution, p_from_null_scores
from .tabular import Dataset, Schema, SubsetDescriptor, category_counts


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
    indexed = list(enumerate(entries))
    if ranking_mode == "deviation_ratio":
        def key(item: tuple[int, RelevanceEntry]):
            i, e = item
            if e.deviation_ratio is None:
                return (2, 0.0, i)
            group = 0 if e.deviation_ratio < 0 else 1
            return (group, -e.deviation_ratio, i)
    else:
        def key(item: tuple[int, RelevanceEntry]):
            i, e = item
            return (0, -e.global_deviation, i)
    ordered = [e for _, e in sorted(indexed, key=key)]
    return [replace(e, rank=r) for r, e in enumerate(ordered, start=1)]


def _apply_selection(
    entries: list[RelevanceEntry], config: RelevanceConfig
) -> list[RelevanceEntry]:
    if config.top_k is not None:
        return entries[: config.top_k]
    if config.threshold is None:
        return entries
    by_ratio = config.ranking_mode == "deviation_ratio"
    kept = []
    for e in entries:
        stat = e.deviation_ratio if by_ratio else e.global_deviation
        if stat is not None and stat > config.threshold:
            kept.append(e)
    return kept


def rank_feature_relevance(
    dataset: Dataset,
    result: ScanResult,
    config: RelevanceConfig = RelevanceConfig(),
) -> list[RelevanceEntry]:
    """Rank the anomalous feature values of a scan result by relevance.

    e_value for a feature value is the outcome mean over all records carrying
    that value, whether or not they belong to the subgroup. A descriptor value
    that no record carries gets e_value 0.
    """
    descriptor = result.descriptor
    if descriptor.is_empty:
        raise ContractError("cannot rank relevance of an empty descriptor")
    descriptor.validate_against(dataset.schema)

    reference = (
        result.panel.subset_mean
        if config.reference_expectation == "subset_mean"
        else 1.0
    )
    entries = []
    for feature_idx, values in descriptor.constraints:
        name, cats = dataset.schema.features[feature_idx]
        counts, positives = category_counts(dataset, {}, feature_idx)
        for v in values:
            count = int(counts[v])
            e_value = float(positives[v]) / count if count else 0.0
            subset_dev, global_dev, ratio = relevance_stats(
                e_value, reference, dataset.global_mean
            )
            entries.append(
                RelevanceEntry(
                    feature=name,
                    value=cats[v],
                    e_value=e_value,
                    subset_deviation=subset_dev,
                    global_deviation=global_dev,
                    deviation_ratio=ratio,
                    rank=0,
                )
            )
    ordered = order_relevance_entries(entries, config.ranking_mode)
    return _apply_selection(ordered, config)


@dataclass(frozen=True)
class SubstitutionCandidate:
    """Replace from_values with to_value on one feature of a descriptor."""

    feature: str
    from_values: tuple[str, ...]
    to_value: str
    resulting_descriptor: SubsetDescriptor


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
    for feature_idx, values in descriptor.constraints:
        name, cats = schema.features[feature_idx]
        anomalous = sorted(values)
        complement = sorted(set(range(len(cats))) - set(anomalous))
        if not complement:
            continue
        for v in anomalous:
            for v_new in complement:
                new_values = sorted(set(anomalous) - {v} | {v_new})
                candidates.append(
                    SubstitutionCandidate(
                        feature=name,
                        from_values=(cats[v],),
                        to_value=cats[v_new],
                        resulting_descriptor=descriptor.with_feature(feature_idx, new_values),
                    )
                )
        if len(anomalous) >= 2:
            for v_new in complement:
                candidates.append(
                    SubstitutionCandidate(
                        feature=name,
                        from_values=tuple(cats[v] for v in anomalous),
                        to_value=cats[v_new],
                        resulting_descriptor=descriptor.with_feature(feature_idx, [v_new]),
                    )
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
    old_score: float,
    old_effects: EffectMeasures | None,
    alpha: float,
    null_scores: np.ndarray,
) -> tuple[SubstitutionOutcome, ScorePanel, EffectMeasures | None]:
    """(outcome, panel, effects) of a candidate against the subgroup it perturbs.

    An empty member set gets the zero panel, no odds ratio and no p-value.
    """
    panel, effects = evaluate(dataset, candidate.resulting_descriptor)
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


def _candidate_rank(
    candidate: SubstitutionCandidate, ranks: dict[tuple[str, str], int]
) -> float:
    """A candidate inherits the best rank among its substituted values."""
    found = [
        ranks[(candidate.feature, v)]
        for v in candidate.from_values
        if (candidate.feature, v) in ranks
    ]
    return min(found) if found else math.inf


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
    order = sorted(
        range(len(candidates)),
        key=lambda i: (_candidate_rank(candidates[i], ranks), i),
    )
    return [
        _score_substitution(
            dataset, candidates[i], result.panel.score, result.effects, alpha, null_scores
        )[0]
        for i in order
    ]


@dataclass(frozen=True)
class GreedyResult:
    """Final subgroup after greedy cross-substitution.

    ``denormalized`` is True when the stopping rule fired (the subgroup lost
    its anomalousness); False means the candidate queue ran out first.
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

    Features are processed as a queue in relevance order; within a feature,
    each ranked anomalous value is paired with every complement value of the
    original descriptor (category order). A substitution is kept only if it
    strictly lowers the score — pass ``unconditional=True`` to keep every
    substitution regardless — and one that empties the subgroup is always
    reverted. The stopping rule is checked on entry and after every retained
    substitution: empirical p above ``alpha``, or, when ``score_threshold`` is
    given, score at or below that bound.
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

    applied: list[SubstitutionOutcome] = []
    done = stopped(panel.score, p_value)  # not anomalous to begin with: apply nothing

    # Queue of features in relevance order; each with its ranked values and
    # the complement values of the original descriptor.
    queue: list[tuple[str, int, list[int], list[int]]] = []
    for name in dict.fromkeys(e.feature for e in ranking):
        feature_idx = schema.feature_index(name)
        original = result.descriptor.values_for(feature_idx)
        if original is None:
            continue
        ranked_values = [
            schema.value_index(feature_idx, e.value)
            for e in ranking
            if e.feature == name
        ]
        complement = sorted(set(range(schema.cardinality(feature_idx))) - set(original))
        queue.append((name, feature_idx, ranked_values, complement))

    for name, feature_idx, ranked_values, complement in queue:
        if done:
            break
        cats = schema.features[feature_idx][1]
        for v in ranked_values:
            if done:
                break
            for v_new in complement:
                current_values = current.values_for(feature_idx) or ()
                if not unconditional and v not in current_values:
                    break  # this value was already substituted away
                new_values = sorted(set(current_values) - {v} | {v_new})
                if tuple(new_values) == current_values:
                    continue  # no-op pair
                candidate = SubstitutionCandidate(
                    feature=name,
                    from_values=(cats[v],),
                    to_value=cats[v_new],
                    resulting_descriptor=current.with_feature(feature_idx, new_values),
                )
                outcome, new_panel, new_effects = _score_substitution(
                    dataset, candidate, panel.score, effects, alpha, null_scores
                )
                if outcome.empty:
                    continue  # emptied the subgroup; revert
                if not unconditional and not new_panel.score < panel.score:
                    continue
                applied.append(outcome)
                current, panel, effects = candidate.resulting_descriptor, new_panel, new_effects
                p_value, at_floor = outcome.new_p, outcome.p_at_floor
                if stopped(panel.score, p_value):
                    done = True
                    break
                if not unconditional:
                    break  # value v substituted; move to the next ranked value

    return GreedyResult(
        current, panel, effects, p_value, at_floor, tuple(applied), done
    )
