from __future__ import annotations

from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from scipy.stats import binomtest

from oracles import membership_mask
from subscan.errors import ContractError
from subscan.postdiscovery import (
    GreedyResult,
    RelevanceConfig,
    RelevanceEntry,
    cross_substitute_greedy,
    enumerate_substitutions,
    order_relevance_entries,
    rank_feature_relevance,
    relevance_stats,
    single_substitution_sweep,
)
from subscan.scan import ScanConfig, ScanResult, evaluate, scan
from subscan.scoring import ScorePanel, bernoulli_score, odds_ratio
from subscan.significance import BootstrapConfig, null_score_distribution, p_from_null_scores
from subscan.tabular import (
    CategoryCounter,
    Dataset,
    Schema,
    SubsetDescriptor,
    SyntheticSpec,
    generate_synthetic,
)

from conftest import make_recovery_cohort

SURVEY_SCHEMA = Schema(
    (
        ("Gender", ("Female", "Male")),
        ("Race", ("Black", "White", "Brown")),
        ("Smoking", ("Yes", "No")),
        ("Weight", ("Low", "Mid", "High")),
    )
)
SURVEY_DESCRIPTOR = SubsetDescriptor.from_labels(
    SURVEY_SCHEMA,
    {"Gender": ["Female"], "Race": ["Black", "White"], "Smoking": ["Yes"], "Weight": ["High"]},
)


def small_bootstrap(seed: int = 5) -> BootstrapConfig:
    return BootstrapConfig(n_replicates=30, scan_config=ScanConfig(n_restarts=4, seed=seed))


def discovery(seed: int):
    dataset, _ = make_recovery_cohort(seed=seed)
    result = scan(dataset, ScanConfig(n_restarts=10, seed=1000 + seed))
    return dataset, result


def wide_feature_discovery():
    """A cohort whose planted feature has 40 categories, past the counter's 32-bit
    word, with its planted descriptor as the scan result."""
    planted = SubsetDescriptor.from_dict({0: range(8), 1: [0, 1]})
    dataset, _ = generate_synthetic(SyntheticSpec(
        n_records=6000, cardinalities=(40, 4, 3), base_rate=0.05, planted=planted,
        odds_multiplier=4.0, seed=3,
    ))
    return dataset, ScanResult(planted, *evaluate(dataset, planted), 0)


def record_level(dataset: Dataset, descriptor: SubsetDescriptor):
    """(panel, effects) of the descriptor from a per-record membership mask."""
    mask = membership_mask(dataset, descriptor)
    n_subset, n_positive = int(mask.sum()), int(dataset.outcomes[mask].sum())
    if n_subset == 0:
        return ScorePanel(0.0, 1.0, 0, 0, dataset.global_mean, 0.0), None
    panel = bernoulli_score(n_positive, n_subset, dataset.global_mean)
    if n_subset == dataset.n_records:
        return panel, None
    c = dataset.n_positive - n_positive
    return panel, odds_ratio(n_positive, n_subset - n_positive, c,
                             dataset.n_records - n_subset - c)


class TestRelevanceStats:
    def test_health_cohort_arithmetic(self):
        # marginal mean 0.057 against reference 1.0 and global mean 0.0389
        subset_dev, global_dev, ratio = relevance_stats(0.057, 1.0, 0.0389)
        assert subset_dev == pytest.approx(-0.943)
        assert global_dev == pytest.approx(0.0181)
        assert ratio == pytest.approx(-52.21, rel=0.01)

    def test_zero_global_deviation_is_undefined(self):
        _, global_dev, ratio = relevance_stats(0.04, 1.0, 0.04)
        assert global_dev == 0.0
        assert ratio is None


def entry(feature, value, ratio, global_dev=0.1):
    return RelevanceEntry(
        feature=feature, value=value, e_value=0.05, subset_deviation=0.0,
        global_deviation=global_dev, deviation_ratio=ratio, rank=0,
    )


class TestOrdering:
    def test_negatives_descending_then_positives_descending(self):
        ratios = [-92.95, 798.75, -52.21, 15293.85, -91.96, -62.27, -92.20, -78.06, -91.79]
        entries = [entry("f", f"v{i}", r) for i, r in enumerate(ratios)]
        ordered = order_relevance_entries(entries, "deviation_ratio")
        assert [e.deviation_ratio for e in ordered] == [
            -52.21, -62.27, -78.06, -91.79, -91.96, -92.20, -92.95, 15293.85, 798.75
        ]
        assert [e.rank for e in ordered] == list(range(1, 10))

    def test_undefined_ratio_ranks_last(self):
        entries = [entry("f", "a", None), entry("f", "b", -3.0), entry("f", "c", 2.0)]
        ordered = order_relevance_entries(entries, "deviation_ratio")
        assert [e.value for e in ordered] == ["b", "c", "a"]

    def test_global_deviation_mode_sorts_descending(self):
        entries = [
            entry("f", "a", None, global_dev=0.01),
            entry("f", "b", None, global_dev=0.20),
            entry("f", "c", None, global_dev=0.05),
        ]
        ordered = order_relevance_entries(entries, "global_deviation")
        assert [e.value for e in ordered] == ["b", "c", "a"]


class TestRankFeatureRelevance:
    def test_empty_descriptor_rejected(self, tiny_dataset):
        fake = ScanResult(
            SubsetDescriptor(), bernoulli_score(3, 10, 0.3), None, 0
        )
        with pytest.raises(ContractError):
            rank_feature_relevance(tiny_dataset, fake)

    def test_descriptor_empty_once_normalized_rejected(self):
        # "a" has one category, so {"a": ["x"]} constrains nothing
        dataset = Dataset(Schema((("a", ("x",)), ("b", ("u", "v")))),
                          [[0, 0], [0, 1], [0, 0], [0, 1]], [1, 0, 0, 1])
        descriptor = SubsetDescriptor.from_labels(dataset.schema, {"a": ["x"]})
        fake = ScanResult(descriptor, bernoulli_score(2, 4, 0.5), None, 0)
        with pytest.raises(ContractError, match="constrains no feature"):
            rank_feature_relevance(dataset, fake)

    def test_one_entry_per_constrained_value(self):
        dataset, result = discovery(seed=2)
        entries = rank_feature_relevance(dataset, result)
        pairs = {(e.feature, e.value) for e in entries}
        expected = {
            (dataset.schema.features[f][0], dataset.schema.features[f][1][v])
            for f, vs in result.descriptor.constraints
            for v in vs
        }
        assert pairs == expected
        assert [e.rank for e in entries] == list(range(1, len(entries) + 1))
        for e in entries:
            if e.deviation_ratio is not None:
                assert e.deviation_ratio == e.subset_deviation / e.global_deviation

    def test_e_value_is_marginal_over_whole_dataset(self):
        dataset, result = discovery(seed=3)
        for e in rank_feature_relevance(dataset, result):
            f = dataset.schema.feature_index(e.feature)
            v = dataset.schema.value_index(f, e.value)
            hits = dataset.rows[:, f] == v
            assert e.e_value == pytest.approx(dataset.outcomes[hits].mean())

    def test_unity_mode_reference(self):
        dataset, result = discovery(seed=4)
        entries = rank_feature_relevance(
            dataset, result, RelevanceConfig(reference_expectation="unity")
        )
        for e in entries:
            assert e.subset_deviation == pytest.approx(e.e_value - 1.0)

    def test_planted_values_rank_highest_in_global_deviation_mode(self):
        dataset, result = discovery(seed=6)
        entries = rank_feature_relevance(
            dataset, result, RelevanceConfig(ranking_mode="global_deviation")
        )
        assert {(e.feature, e.value) for e in entries[:2]} == {("f0", "v0"), ("f1", "v0")}

    def test_top_k_selection(self):
        dataset, result = discovery(seed=7)
        entries = rank_feature_relevance(
            dataset, result, RelevanceConfig(top_k=1)
        )
        assert len(entries) == 1
        assert entries[0].rank == 1

    def test_threshold_selection(self):
        dataset, result = discovery(seed=8)
        config = RelevanceConfig(ranking_mode="global_deviation", threshold=0.0)
        entries = rank_feature_relevance(dataset, result, config)
        assert entries, "planted values deviate above the global mean"
        assert all(e.global_deviation > 0.0 for e in entries)

    def test_selection_rule_exclusivity(self):
        with pytest.raises(ContractError, match="mutually exclusive"):
            RelevanceConfig(top_k=2, threshold=0.1)
        for k in (0, -1):
            with pytest.raises(ContractError, match="top_k"):
                RelevanceConfig(top_k=k)

    def test_value_at_global_mean_flagged_undefined_and_ranked_last(self):
        # both values of feature b sit exactly at the global mean (undefined
        # ratio); the defined entry for feature a must outrank them
        schema = Schema((("a", ("x", "y")), ("b", ("p", "q"))))
        rows = [[0, 0], [0, 1], [1, 0], [1, 1]] * 2
        outcomes = [1, 1, 0, 0, 1, 1, 0, 0]
        dataset = Dataset(schema, rows, outcomes)
        descriptor = SubsetDescriptor.from_dict({0: [0], 1: [0, 1]})
        mask = membership_mask(dataset, descriptor)
        panel = bernoulli_score(
            int(dataset.outcomes[mask].sum()), int(mask.sum()), dataset.global_mean
        )
        result = ScanResult(descriptor, panel, None, 0)
        entries = rank_feature_relevance(dataset, result)
        by_value = {e.value: e for e in entries}
        for value in ("p", "q"):
            assert by_value[value].e_value == dataset.global_mean
            assert by_value[value].deviation_ratio is None
            assert by_value[value].rank >= 2
        assert by_value["x"].deviation_ratio is not None
        assert by_value["x"].rank == 1

    def test_relabeling_invariance(self):
        dataset, result = discovery(seed=9)
        baseline = rank_feature_relevance(dataset, result)
        renamed = Schema(
            tuple(
                (f"feat_{name}", tuple(f"cat_{c}" for c in cats))
                for name, cats in dataset.schema.features
            )
        )
        relabeled = Dataset(renamed, dataset.rows, dataset.outcomes)
        again = rank_feature_relevance(relabeled, ScanResult(
            result.descriptor, result.panel, result.effects, result.restart_index
        ))
        assert [(e.rank, e.e_value, e.deviation_ratio) for e in baseline] == [
            (e.rank, e.e_value, e.deviation_ratio) for e in again
        ]


class TestEnumerateSubstitutions:
    def test_survey_fixture_yields_exactly_seven(self):
        candidates = enumerate_substitutions(SURVEY_DESCRIPTOR, SURVEY_SCHEMA)
        listed = [(c.feature, c.from_values, c.to_value) for c in candidates]
        assert listed == [
            ("Gender", ("Female",), "Male"),
            ("Race", ("Black",), "Brown"),
            ("Race", ("White",), "Brown"),
            ("Race", ("Black", "White"), "Brown"),
            ("Smoking", ("Yes",), "No"),
            ("Weight", ("High",), "Low"),
            ("Weight", ("High",), "Mid"),
        ]

    def test_resulting_descriptors_swap_values(self):
        candidates = enumerate_substitutions(SURVEY_DESCRIPTOR, SURVEY_SCHEMA)
        race_collapse = candidates[3]
        assert race_collapse.resulting_descriptor.to_labels(SURVEY_SCHEMA)["Race"] == ["Brown"]
        weight_swap = candidates[5]
        assert weight_swap.resulting_descriptor.to_labels(SURVEY_SCHEMA)["Weight"] == ["Low"]

    def test_full_complement_feature_contributes_nothing(self):
        schema = Schema((("a", ("x", "y")), ("b", ("p", "q"))))
        descriptor = SubsetDescriptor.from_dict({0: [0, 1], 1: [0]})
        candidates = enumerate_substitutions(descriptor, schema)
        assert [(c.feature, c.to_value) for c in candidates] == [("b", "q")]

    def test_binary_single_value_gives_one_candidate(self):
        schema = Schema((("a", ("x", "y")),))
        candidates = enumerate_substitutions(SubsetDescriptor.from_dict({0: [0]}), schema)
        assert len(candidates) == 1

    def test_empty_descriptor_gives_none(self):
        assert enumerate_substitutions(SubsetDescriptor(), SURVEY_SCHEMA) == []


class TestSweep:
    def test_planted_value_substitutions_decrease_score(self):
        for seed in (1, 2, 3):
            dataset, result = discovery(seed=seed)
            boot = small_bootstrap(seed)
            nulls = null_score_distribution(dataset, boot)
            ranking = rank_feature_relevance(dataset, result)
            outcomes = single_substitution_sweep(
                dataset, result, ranking, 0.05, boot, null_scores=nulls
            )
            assert outcomes
            for o in outcomes:
                assert o.old_score == result.panel.score
                if not o.empty:
                    assert o.new_score < o.old_score

    def test_outcomes_recomputable_from_descriptor(self):
        # the second cohort's 40-category feature takes the counter's np.take branch
        for dataset, result in (discovery(seed=5), wide_feature_discovery()):
            boot = small_bootstrap()
            nulls = null_score_distribution(dataset, boot)
            ranking = rank_feature_relevance(dataset, result)
            outcomes = single_substitution_sweep(
                dataset, result, ranking, 0.05, boot, null_scores=nulls
            )
            assert outcomes
            for o in outcomes:
                descriptor = o.candidate.resulting_descriptor
                panel, effects = record_level(dataset, descriptor)
                assert o.empty == (panel.n_subset == 0)
                assert (o.new_score, o.new_or) == (panel.score, effects and effects.odds_ratio)
                assert evaluate(dataset, descriptor) == (panel, effects)

    def test_ordered_by_relevance_then_enumeration(self):
        dataset, result = discovery(seed=7)
        boot = small_bootstrap()
        nulls = null_score_distribution(dataset, boot)
        ranking = rank_feature_relevance(dataset, result)
        outcomes = single_substitution_sweep(
            dataset, result, ranking, 0.05, boot, null_scores=nulls
        )
        ranks = {(e.feature, e.value): e.rank for e in ranking}
        seen = [min(ranks[(o.candidate.feature, v)] for v in o.candidate.from_values)
                for o in outcomes]
        assert seen == sorted(seen)

    def test_empty_subset_substitution_flagged(self):
        # no record carries (a=y, b=p), so swapping a: x->y empties the subgroup
        schema = Schema((("a", ("x", "y")), ("b", ("p", "q"))))
        rows = [[0, 0]] * 6 + [[0, 1]] * 6 + [[1, 1]] * 12
        outcomes = [1, 1, 1, 1, 0, 0] + [0] * 6 + [0] * 10 + [1, 1]
        dataset = Dataset(schema, rows, outcomes)
        descriptor = SubsetDescriptor.from_dict({0: [0], 1: [0]})
        mask = membership_mask(dataset, descriptor)
        panel = bernoulli_score(
            int(dataset.outcomes[mask].sum()), int(mask.sum()), dataset.global_mean
        )
        result = ScanResult(descriptor, panel, None, 0)
        boot = BootstrapConfig(n_replicates=10, scan_config=ScanConfig(n_restarts=2, seed=1))
        ranking = rank_feature_relevance(dataset, result)
        outcomes_list = single_substitution_sweep(dataset, result, ranking, 0.05, boot)
        flagged = [o for o in outcomes_list if o.candidate.feature == "a"]
        assert len(flagged) == 1
        assert flagged[0].empty
        assert flagged[0].new_score == 0.0
        assert flagged[0].new_or is None and flagged[0].new_p is None


class TestGreedy:
    def test_already_insignificant_input_returned_unchanged(self):
        dataset, result = discovery(seed=1)
        boot = small_bootstrap()
        high = np.full(30, result.panel.score + 1.0)  # every null beats the observed
        ranking = rank_feature_relevance(dataset, result)
        g = cross_substitute_greedy(
            dataset, result, ranking, 0.05, boot, null_scores=high
        )
        assert g.denormalized
        assert g.applied == ()
        assert g.descriptor == result.descriptor

    def test_empty_ranking_returns_input(self):
        dataset, result = discovery(seed=2)
        boot = small_bootstrap()
        nulls = null_score_distribution(dataset, boot)
        g = cross_substitute_greedy(dataset, result, [], 0.05, boot, null_scores=nulls)
        assert g.descriptor == result.descriptor
        assert g.applied == ()
        assert not g.denormalized

    def test_trace_is_strictly_decreasing(self):
        dataset, result = discovery(seed=3)
        boot = small_bootstrap()
        nulls = null_score_distribution(dataset, boot)
        ranking = rank_feature_relevance(dataset, result)
        g = cross_substitute_greedy(dataset, result, ranking, 0.05, boot, null_scores=nulls)
        scores = [result.panel.score] + [a.new_score for a in g.applied]
        assert all(b < a for a, b in zip(scores, scores[1:]))
        for a, b in zip(g.applied, g.applied[1:]):
            assert b.old_score == a.new_score

    def test_denormalizes_planted_cohort(self):
        for seed in (1, 2):
            dataset, result = discovery(seed=seed)
            boot = small_bootstrap(seed)
            nulls = null_score_distribution(dataset, boot)
            ranking = rank_feature_relevance(dataset, result)
            g = cross_substitute_greedy(
                dataset, result, ranking, 0.05, boot, null_scores=nulls
            )
            assert g.denormalized
            assert g.p_value > 0.05
            mask = membership_mask(dataset, g.descriptor)
            k, n = int(dataset.outcomes[mask].sum()), int(mask.sum())
            assert binomtest(k, n, dataset.global_mean).pvalue >= 0.05

    def test_final_panel_matches_descriptor(self):
        dataset, result = discovery(seed=4)
        boot = small_bootstrap()
        nulls = null_score_distribution(dataset, boot)
        ranking = rank_feature_relevance(dataset, result)
        g = cross_substitute_greedy(dataset, result, ranking, 0.05, boot, null_scores=nulls)
        mask = membership_mask(dataset, g.descriptor)
        again = bernoulli_score(
            int(dataset.outcomes[mask].sum()), int(mask.sum()), dataset.global_mean
        )
        assert again == g.panel
        assert g.effects is not None
        assert g.p_value == p_from_null_scores(g.panel.score, nulls)[0]

    def test_score_threshold_stopping_rule(self):
        dataset, result = discovery(seed=5)
        boot = small_bootstrap()
        nulls = null_score_distribution(dataset, boot)
        ranking = rank_feature_relevance(dataset, result)
        g = cross_substitute_greedy(
            dataset, result, ranking, 0.05, boot,
            score_threshold=result.panel.score + 1.0, null_scores=nulls,
        )
        assert g.denormalized and g.applied == ()  # already at or below the bound

    def test_unconditional_mode_applies_every_pair(self):
        dataset, result = discovery(seed=7)
        boot = small_bootstrap()
        nulls = null_score_distribution(dataset, boot)
        ranking = rank_feature_relevance(dataset, result)
        g = cross_substitute_greedy(
            dataset, result, ranking, 0.05, boot,
            unconditional=True, null_scores=nulls,
        )
        assert isinstance(g, GreedyResult)
        assert g.applied  # substitutions accumulate without the descent filter

    def test_a_move_that_empties_the_subgroup_is_reverted(self):
        schema = Schema((("f0", ("v0", "v1", "v2")), ("f1", ("v0", "v1"))))
        rows = [[0, 0]] * 20 + [[1, 1]] * 20 + [[2, 0]] * 20 + [[0, 1]] * 20
        outcomes = [1] * 15 + [0] * 45 + [1] * 2 + [0] * 18
        dataset = Dataset(schema, rows, outcomes)
        start = SubsetDescriptor.from_dict({0: [0], 1: [0]})
        result = ScanResult(start, *evaluate(dataset, start), 0)
        # f0: v0 -> v1 leaves no record (no row is v1, v0) and is not kept; v0 -> v2 is
        g = cross_substitute_greedy(dataset, result, [entry("f0", "v0", -1.0)], 0.05,
                                    small_bootstrap(), null_scores=np.ones(30))
        assert [o.candidate.to_value for o in g.applied] == ["v2"]
        assert g.descriptor == SubsetDescriptor.from_dict({0: [2], 1: [0]}) and g.denormalized

    @pytest.mark.parametrize("cohort", ["recovery", "wide_feature"])
    def test_unconditional_outcomes_match_record_level(self, cohort):
        """Every applied move is scored on the walk's counter after the moves
        before it: a counter that missed one of them would score against a
        stale subgroup."""
        dataset, result = discovery(seed=7) if cohort == "recovery" else wide_feature_discovery()
        boot = small_bootstrap()
        nulls = null_score_distribution(dataset, boot)
        ranking = rank_feature_relevance(dataset, result)
        g = cross_substitute_greedy(
            dataset, result, ranking, 0.05, boot,
            unconditional=True, score_threshold=-1.0, null_scores=nulls,
        )
        assert len(g.applied) >= 2
        for o in g.applied:
            panel, effects = record_level(dataset, o.candidate.resulting_descriptor)
            assert (o.new_score, o.new_or) == (panel.score, effects and effects.odds_ratio)
        assert (g.panel, g.effects) == record_level(dataset, g.descriptor)


def counts_calls(fn, *args, **kwargs):
    """(``fn(*args, **kwargs)``, the features ``CategoryCounter.counts`` counted in call order)."""
    counted = []
    real = CategoryCounter.counts

    def spy(self, feature):
        counted.append(feature)
        return real(self, feature)

    with mock.patch.object(CategoryCounter, "counts", spy):
        return fn(*args, **kwargs), counted


def test_sweep_counts_each_constrained_feature_once():
    """The sweep sums every candidate from one table per constrained feature:
    a per-candidate count over the cells would call ``counts`` once per candidate."""
    dataset, result = wide_feature_discovery()
    ranking = rank_feature_relevance(dataset, result)
    outcomes, counted = counts_calls(
        single_substitution_sweep,
        dataset, result, ranking, 0.05, small_bootstrap(), null_scores=np.zeros(19),
    )
    assert len(outcomes) > 100
    assert len(counted) == len(set(counted))
    assert set(counted) <= {f for f, _ in result.descriptor.constraints}


def test_greedy_counts_each_walked_feature_once():
    """A feature's moves form one block and ``counts`` ignores that feature's own
    mask, so the walk counts once per feature, not once per attempted move."""
    dataset, result = wide_feature_discovery()
    ranking = rank_feature_relevance(dataset, result)
    g, counted = counts_calls(
        cross_substitute_greedy,
        dataset, result, ranking, 0.05, small_bootstrap(),
        unconditional=True, score_threshold=-1.0, null_scores=np.zeros(19),
    )
    walked = [dataset.schema.feature_index(o.candidate.feature) for o in g.applied]
    assert len(walked) > 2 * len(set(walked))  # several moves per feature
    assert counted == list(dict.fromkeys(walked))


# Pinned outputs of the sweep and the greedy walk. The expectations are literal
# values: the sweep's candidate order, and for each greedy mode every applied
# substitution as (feature, from_values, to_value, new score as float.hex), the
# stopping flag and the final descriptor. A negative score_threshold never
# fires, so those walks run through every move.
WIDE_SPEC = dict(cardinalities=(4, 5, 3), base_rate=0.05,
                 planted=SubsetDescriptor.from_dict({0: [0, 1], 1: [0, 1, 2]}),
                 odds_multiplier=4.0)


def pin_observation(kind: str, seed: int) -> dict:
    if kind == "recovery":
        dataset, result = discovery(seed)
    else:
        dataset, _ = generate_synthetic(SyntheticSpec(n_records=4000, seed=seed, **WIDE_SPEC))
        result = scan(dataset, ScanConfig(n_restarts=10, seed=1000 + seed))
    boot = small_bootstrap(seed)
    nulls = null_score_distribution(dataset, boot)
    schema = dataset.schema
    ranking = rank_feature_relevance(dataset, result)
    # reversed, plus an entry for a value outside the descriptor
    feature, values = result.descriptor.constraints[-1]
    name, cats = schema.features[feature]
    outside = next(c for v, c in enumerate(cats) if v not in values)
    reordered = ranking[::-1] + [replace(ranking[0], feature=name, value=outside)]

    def walk(ranking=ranking, alpha=0.05, **kw):
        g = cross_substitute_greedy(dataset, result, ranking, alpha, boot, null_scores=nulls, **kw)
        moves = [(o.candidate.feature, o.candidate.from_values, o.candidate.to_value,
                  o.new_score.hex()) for o in g.applied]
        return moves, g.denormalized, g.descriptor.to_labels(schema)

    sweep = single_substitution_sweep(dataset, result, ranking, 0.05, boot, null_scores=nulls)
    return {
        "descriptor": result.descriptor.to_labels(schema),
        "sweep": [(o.candidate.feature, o.candidate.from_values, o.candidate.to_value)
                  for o in sweep],
        "default": walk(),
        "unconditional": walk(unconditional=True),
        "threshold": walk(score_threshold=result.panel.score / 2),
        "exhaust": walk(score_threshold=-1.0),
        "alpha": walk(alpha=0.5),
        "reordered": walk(reordered),
        "reordered_exhaust": walk(reordered, score_threshold=-1.0),
        "reordered_exhaust_unconditional": walk(reordered, unconditional=True,
                                                score_threshold=-1.0),
    }


PINNED = {
    ("recovery", 1): {
        "descriptor": {"f0": ["v0"], "f1": ["v0"]},
        "sweep": [
            ("f1", ("v0",), "v1"),
            ("f1", ("v0",), "v2"),
            ("f0", ("v0",), "v1"),
        ],
        "default": ([
            ("f1", ("v0",), "v1", "0x0.0p+0"),
        ], True, {"f0": ["v0"], "f1": ["v1"]}),
        "unconditional": ([
            ("f1", ("v0",), "v1", "0x0.0p+0"),
        ], True, {"f0": ["v0"], "f1": ["v1"]}),
        "threshold": ([
            ("f1", ("v0",), "v1", "0x0.0p+0"),
        ], True, {"f0": ["v0"], "f1": ["v1"]}),
        "exhaust": ([
            ("f1", ("v0",), "v1", "0x0.0p+0"),
        ], False, {"f0": ["v0"], "f1": ["v1"]}),
        "alpha": ([
            ("f1", ("v0",), "v1", "0x0.0p+0"),
        ], True, {"f0": ["v0"], "f1": ["v1"]}),
        "reordered": ([
            ("f0", ("v0",), "v1", "0x0.0p+0"),
        ], True, {"f0": ["v1"], "f1": ["v0"]}),
        "reordered_exhaust": ([
            ("f0", ("v0",), "v1", "0x0.0p+0"),
        ], False, {"f0": ["v1"], "f1": ["v0"]}),
        "reordered_exhaust_unconditional": ([
            ("f0", ("v0",), "v1", "0x0.0p+0"),
            ("f1", ("v0",), "v1", "0x0.0p+0"),
            ("f1", ("v0",), "v2", "0x0.0p+0"),
            ("f1", ("v1",), "v2", "0x0.0p+0"),
        ], False, {"f0": ["v1"], "f1": ["v2"]}),
    },
    ("recovery", 2): {
        "descriptor": {"f0": ["v0"], "f1": ["v0"]},
        "sweep": [
            ("f1", ("v0",), "v1"),
            ("f1", ("v0",), "v2"),
            ("f0", ("v0",), "v1"),
        ],
        "default": ([
            ("f1", ("v0",), "v1", "0x0.0p+0"),
        ], True, {"f0": ["v0"], "f1": ["v1"]}),
        "unconditional": ([
            ("f1", ("v0",), "v1", "0x0.0p+0"),
        ], True, {"f0": ["v0"], "f1": ["v1"]}),
        "threshold": ([
            ("f1", ("v0",), "v1", "0x0.0p+0"),
        ], True, {"f0": ["v0"], "f1": ["v1"]}),
        "exhaust": ([
            ("f1", ("v0",), "v1", "0x0.0p+0"),
        ], False, {"f0": ["v0"], "f1": ["v1"]}),
        "alpha": ([
            ("f1", ("v0",), "v1", "0x0.0p+0"),
        ], True, {"f0": ["v0"], "f1": ["v1"]}),
        "reordered": ([
            ("f0", ("v0",), "v1", "0x0.0p+0"),
        ], True, {"f0": ["v1"], "f1": ["v0"]}),
        "reordered_exhaust": ([
            ("f0", ("v0",), "v1", "0x0.0p+0"),
        ], False, {"f0": ["v1"], "f1": ["v0"]}),
        "reordered_exhaust_unconditional": ([
            ("f0", ("v0",), "v1", "0x0.0p+0"),
            ("f1", ("v0",), "v1", "0x0.0p+0"),
            ("f1", ("v0",), "v2", "0x0.0p+0"),
            ("f1", ("v1",), "v2", "0x0.0p+0"),
        ], False, {"f0": ["v1"], "f1": ["v2"]}),
    },
    ("recovery", 3): {
        "descriptor": {"f0": ["v0"], "f1": ["v0"]},
        "sweep": [
            ("f1", ("v0",), "v1"),
            ("f1", ("v0",), "v2"),
            ("f0", ("v0",), "v1"),
        ],
        "default": ([
            ("f1", ("v0",), "v1", "0x0.0p+0"),
        ], True, {"f0": ["v0"], "f1": ["v1"]}),
        "unconditional": ([
            ("f1", ("v0",), "v1", "0x0.0p+0"),
        ], True, {"f0": ["v0"], "f1": ["v1"]}),
        "threshold": ([
            ("f1", ("v0",), "v1", "0x0.0p+0"),
        ], True, {"f0": ["v0"], "f1": ["v1"]}),
        "exhaust": ([
            ("f1", ("v0",), "v1", "0x0.0p+0"),
        ], False, {"f0": ["v0"], "f1": ["v1"]}),
        "alpha": ([
            ("f1", ("v0",), "v1", "0x0.0p+0"),
        ], True, {"f0": ["v0"], "f1": ["v1"]}),
        "reordered": ([
            ("f0", ("v0",), "v1", "0x0.0p+0"),
        ], True, {"f0": ["v1"], "f1": ["v0"]}),
        "reordered_exhaust": ([
            ("f0", ("v0",), "v1", "0x0.0p+0"),
        ], False, {"f0": ["v1"], "f1": ["v0"]}),
        "reordered_exhaust_unconditional": ([
            ("f0", ("v0",), "v1", "0x0.0p+0"),
            ("f1", ("v0",), "v1", "0x0.0p+0"),
            ("f1", ("v0",), "v2", "0x0.0p+0"),
            ("f1", ("v1",), "v2", "0x0.0p+0"),
        ], False, {"f0": ["v1"], "f1": ["v2"]}),
    },
    ("wide", 0): {
        "descriptor": {"f0": ["v0", "v1"], "f1": ["v0", "v1", "v2"]},
        "sweep": [
            ("f0", ("v0",), "v2"),
            ("f0", ("v0",), "v3"),
            ("f0", ("v0", "v1"), "v2"),
            ("f0", ("v0", "v1"), "v3"),
            ("f1", ("v0",), "v3"),
            ("f1", ("v0",), "v4"),
            ("f1", ("v0", "v1", "v2"), "v3"),
            ("f1", ("v0", "v1", "v2"), "v4"),
            ("f0", ("v1",), "v2"),
            ("f0", ("v1",), "v3"),
            ("f1", ("v1",), "v3"),
            ("f1", ("v1",), "v4"),
            ("f1", ("v2",), "v3"),
            ("f1", ("v2",), "v4"),
        ],
        "default": ([
            ("f0", ("v0",), "v2", "0x1.95f1899caf130p+1"),
        ], True, {"f0": ["v1", "v2"], "f1": ["v0", "v1", "v2"]}),
        "unconditional": ([
            ("f0", ("v0",), "v2", "0x1.95f1899caf130p+1"),
        ], True, {"f0": ["v1", "v2"], "f1": ["v0", "v1", "v2"]}),
        "threshold": ([
            ("f0", ("v0",), "v2", "0x1.95f1899caf130p+1"),
        ], True, {"f0": ["v1", "v2"], "f1": ["v0", "v1", "v2"]}),
        "exhaust": ([
            ("f0", ("v0",), "v2", "0x1.95f1899caf130p+1"),
            ("f0", ("v1",), "v2", "0x0.0p+0"),
        ], False, {"f0": ["v2"], "f1": ["v0", "v1", "v2"]}),
        "alpha": ([
            ("f0", ("v0",), "v2", "0x1.95f1899caf130p+1"),
        ], True, {"f0": ["v1", "v2"], "f1": ["v0", "v1", "v2"]}),
        "reordered": ([
            ("f1", ("v2",), "v3", "0x1.958a7b2d5d490p+4"),
            ("f1", ("v1",), "v3", "0x1.a8e327b696230p+3"),
            ("f1", ("v0",), "v3", "0x0.0p+0"),
        ], True, {"f0": ["v0", "v1"], "f1": ["v3"]}),
        "reordered_exhaust": ([
            ("f1", ("v2",), "v3", "0x1.958a7b2d5d490p+4"),
            ("f1", ("v1",), "v3", "0x1.a8e327b696230p+3"),
            ("f1", ("v0",), "v3", "0x0.0p+0"),
        ], False, {"f0": ["v0", "v1"], "f1": ["v3"]}),
        "reordered_exhaust_unconditional": ([
            ("f1", ("v2",), "v3", "0x1.958a7b2d5d490p+4"),
            ("f1", ("v2",), "v4", "0x1.a6ef41021cf80p+3"),
            ("f1", ("v1",), "v3", "0x1.109f3278ed028p+2"),
            ("f1", ("v0",), "v3", "0x0.0p+0"),
            ("f1", ("v3",), "v4", "0x0.0p+0"),
            ("f0", ("v1",), "v2", "0x0.0p+0"),
            ("f0", ("v1",), "v3", "0x0.0p+0"),
            ("f0", ("v0",), "v2", "0x0.0p+0"),
        ], False, {"f0": ["v2", "v3"], "f1": ["v4"]}),
    },
    ("wide", 1): {
        "descriptor": {"f0": ["v0", "v1"], "f1": ["v0", "v1", "v2"]},
        "sweep": [
            ("f0", ("v0",), "v2"),
            ("f0", ("v0",), "v3"),
            ("f0", ("v0", "v1"), "v2"),
            ("f0", ("v0", "v1"), "v3"),
            ("f0", ("v1",), "v2"),
            ("f0", ("v1",), "v3"),
            ("f1", ("v2",), "v3"),
            ("f1", ("v2",), "v4"),
            ("f1", ("v0", "v1", "v2"), "v3"),
            ("f1", ("v0", "v1", "v2"), "v4"),
            ("f1", ("v0",), "v3"),
            ("f1", ("v0",), "v4"),
            ("f1", ("v1",), "v3"),
            ("f1", ("v1",), "v4"),
        ],
        "default": ([
            ("f0", ("v0",), "v2", "0x1.a50e0fdc83818p+2"),
        ], True, {"f0": ["v1", "v2"], "f1": ["v0", "v1", "v2"]}),
        "unconditional": ([
            ("f0", ("v0",), "v2", "0x1.a50e0fdc83818p+2"),
        ], True, {"f0": ["v1", "v2"], "f1": ["v0", "v1", "v2"]}),
        "threshold": ([
            ("f0", ("v0",), "v2", "0x1.a50e0fdc83818p+2"),
        ], True, {"f0": ["v1", "v2"], "f1": ["v0", "v1", "v2"]}),
        "exhaust": ([
            ("f0", ("v0",), "v2", "0x1.a50e0fdc83818p+2"),
            ("f0", ("v1",), "v2", "0x0.0p+0"),
        ], False, {"f0": ["v2"], "f1": ["v0", "v1", "v2"]}),
        "alpha": ([
            ("f0", ("v0",), "v2", "0x1.a50e0fdc83818p+2"),
            ("f0", ("v1",), "v2", "0x0.0p+0"),
        ], True, {"f0": ["v2"], "f1": ["v0", "v1", "v2"]}),
        "reordered": ([
            ("f1", ("v1",), "v3", "0x1.0a292a0524624p+4"),
            ("f1", ("v0",), "v3", "0x1.ec2c42f2251e0p+1"),
        ], True, {"f0": ["v0", "v1"], "f1": ["v2", "v3"]}),
        "reordered_exhaust": ([
            ("f1", ("v1",), "v3", "0x1.0a292a0524624p+4"),
            ("f1", ("v0",), "v3", "0x1.ec2c42f2251e0p+1"),
            ("f1", ("v2",), "v3", "0x0.0p+0"),
        ], False, {"f0": ["v0", "v1"], "f1": ["v3"]}),
        "reordered_exhaust_unconditional": ([
            ("f1", ("v1",), "v3", "0x1.0a292a0524624p+4"),
            ("f1", ("v1",), "v4", "0x1.2608f1450e58cp+3"),
            ("f1", ("v0",), "v3", "0x1.ca69ab81b6580p-1"),
            ("f1", ("v2",), "v3", "0x0.0p+0"),
            ("f1", ("v3",), "v4", "0x0.0p+0"),
            ("f0", ("v1",), "v2", "0x0.0p+0"),
            ("f0", ("v1",), "v3", "0x0.0p+0"),
            ("f0", ("v0",), "v2", "0x0.0p+0"),
        ], False, {"f0": ["v2", "v3"], "f1": ["v4"]}),
    },
    ("wide", 2): {
        "descriptor": {"f0": ["v0", "v1"], "f1": ["v0", "v1", "v2"]},
        "sweep": [
            ("f0", ("v1",), "v2"),
            ("f0", ("v1",), "v3"),
            ("f0", ("v0", "v1"), "v2"),
            ("f0", ("v0", "v1"), "v3"),
            ("f1", ("v1",), "v3"),
            ("f1", ("v1",), "v4"),
            ("f1", ("v0", "v1", "v2"), "v3"),
            ("f1", ("v0", "v1", "v2"), "v4"),
            ("f0", ("v0",), "v2"),
            ("f0", ("v0",), "v3"),
            ("f1", ("v2",), "v3"),
            ("f1", ("v2",), "v4"),
            ("f1", ("v0",), "v3"),
            ("f1", ("v0",), "v4"),
        ],
        "default": ([
            ("f0", ("v1",), "v2", "0x1.b5980e4532ce8p+1"),
        ], True, {"f0": ["v0", "v2"], "f1": ["v0", "v1", "v2"]}),
        "unconditional": ([
            ("f0", ("v1",), "v2", "0x1.b5980e4532ce8p+1"),
        ], True, {"f0": ["v0", "v2"], "f1": ["v0", "v1", "v2"]}),
        "threshold": ([
            ("f0", ("v1",), "v2", "0x1.b5980e4532ce8p+1"),
        ], True, {"f0": ["v0", "v2"], "f1": ["v0", "v1", "v2"]}),
        "exhaust": ([
            ("f0", ("v1",), "v2", "0x1.b5980e4532ce8p+1"),
            ("f0", ("v0",), "v2", "0x0.0p+0"),
        ], False, {"f0": ["v2"], "f1": ["v0", "v1", "v2"]}),
        "alpha": ([
            ("f0", ("v1",), "v2", "0x1.b5980e4532ce8p+1"),
        ], True, {"f0": ["v0", "v2"], "f1": ["v0", "v1", "v2"]}),
        "reordered": ([
            ("f1", ("v0",), "v3", "0x1.35aebfff17da8p+4"),
            ("f1", ("v2",), "v3", "0x1.60f4f34061b68p+2"),
        ], True, {"f0": ["v0", "v1"], "f1": ["v1", "v3"]}),
        "reordered_exhaust": ([
            ("f1", ("v0",), "v3", "0x1.35aebfff17da8p+4"),
            ("f1", ("v2",), "v3", "0x1.60f4f34061b68p+2"),
            ("f1", ("v1",), "v3", "0x0.0p+0"),
        ], False, {"f0": ["v0", "v1"], "f1": ["v3"]}),
        "reordered_exhaust_unconditional": ([
            ("f1", ("v0",), "v3", "0x1.35aebfff17da8p+4"),
            ("f1", ("v0",), "v4", "0x1.0f3f1203fb1b8p+3"),
            ("f1", ("v2",), "v3", "0x1.10c981d452880p-1"),
            ("f1", ("v1",), "v3", "0x0.0p+0"),
            ("f1", ("v3",), "v4", "0x0.0p+0"),
            ("f0", ("v0",), "v2", "0x0.0p+0"),
            ("f0", ("v0",), "v3", "0x0.0p+0"),
            ("f0", ("v1",), "v2", "0x0.0p+0"),
        ], False, {"f0": ["v2", "v3"], "f1": ["v4"]}),
    },
}


@pytest.mark.parametrize("cohort", list(PINNED))
def test_post_discovery_outputs_pinned(cohort):
    assert pin_observation(*cohort) == PINNED[cohort]
