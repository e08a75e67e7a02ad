from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import golden_section_max_q, numeric_max_score, objective
from subscan.errors import ContractError
from subscan.scoring import (
    EffectMeasures,
    bernoulli_score,
    odds_ratio,
    optimal_q,
    score_array,
)


class TestOptimalQ:
    def test_null_rate_gives_one(self):
        assert optimal_q(1, 10, 0.1) == 1.0

    def test_below_null_rate_clamps_to_one(self):
        assert optimal_q(1, 50, 0.1) == 1.0

    def test_zero_positives_clamps_to_one(self):
        assert optimal_q(0, 10, 0.1) == 1.0

    def test_known_value_against_numeric_maximizer(self):
        q = optimal_q(5, 10, 0.1)
        assert q == 9.0
        q_numeric = golden_section_max_q(5, 10, 0.1)
        assert abs(q - q_numeric) / q <= 1e-6

    def test_all_positive_returns_infinity(self):
        assert optimal_q(10, 10, 0.1) == math.inf

    def test_bad_global_mean_rejected(self):
        for mu in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ContractError):
                optimal_q(3, 10, mu)

    def test_bad_counts_rejected(self):
        with pytest.raises(ContractError):
            optimal_q(11, 10, 0.1)
        with pytest.raises(ContractError):
            optimal_q(-1, 10, 0.1)
        with pytest.raises(ContractError):
            optimal_q(0, 0, 0.1)


class TestBernoulliScore:
    def test_full_dataset_scores_zero(self):
        # a subset whose rate equals the global mean is not anomalous at all
        panel = bernoulli_score(10, 100, 0.1)
        assert panel.score == 0.0
        assert panel.q_mle == 1.0

    def test_rate_equal_to_mean_scores_exactly_zero(self):
        # 26/27 is not representable; the null decision must still be exact
        panel = bernoulli_score(26, 27, 26 / 27)
        assert panel.score == 0.0
        assert panel.q_mle == 1.0

    def test_known_value(self):
        panel = bernoulli_score(5, 10, 0.1)
        expected = 5 * math.log(9.0) - 10 * math.log(1.8)
        assert panel.score == pytest.approx(expected, rel=1e-12)
        assert panel.score == pytest.approx(5.108256237659907, rel=1e-12)
        assert panel.score == pytest.approx(numeric_max_score(5, 10, 0.1), rel=1e-9)

    def test_all_positive_uses_analytic_limit(self):
        panel = bernoulli_score(7, 7, 0.2)
        assert panel.score == pytest.approx(-7 * math.log(0.2), rel=1e-12)
        assert panel.q_mle == math.inf
        # the limit dominates any finite q
        assert panel.score > objective(1e9, 7, 7, 0.2)

    def test_panel_reproducible_from_counts(self):
        panel = bernoulli_score(17, 60, 0.13)
        again = bernoulli_score(panel.n_positive, panel.n_subset, panel.global_mean).score
        assert abs(again - panel.score) <= 1e-9
        assert panel.subset_mean == 17 / 60

    def test_monotone_in_positives_above_null(self):
        scores = [bernoulli_score(c, 50, 0.1).score for c in range(5, 51)]
        assert all(b >= a for a, b in zip(scores, scores[1:]))

    def test_additive_for_equal_rate_unions(self):
        one = bernoulli_score(12, 40, 0.07).score
        union = bernoulli_score(24, 80, 0.07).score
        assert union == pytest.approx(2 * one, rel=1e-9)

    @given(
        st.integers(1, 500),
        st.integers(0, 500),
        st.floats(0.01, 0.99),
    )
    @settings(max_examples=200)
    def test_zero_exactly_at_or_below_null(self, n_subset, n_positive, mu):
        n_positive = min(n_positive, n_subset)
        if n_positive / n_subset <= mu:
            assert bernoulli_score(n_positive, n_subset, mu).score == 0.0

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=100, deadline=None)
    def test_closed_form_matches_numeric_maximization(self, seed):
        rng = np.random.default_rng(seed)
        n_subset = int(rng.integers(1, 2000))
        n_positive = int(rng.integers(0, n_subset + 1))
        mu = float(rng.uniform(0.01, 0.95))
        score = bernoulli_score(n_positive, n_subset, mu).score
        oracle = numeric_max_score(n_positive, n_subset, mu)
        assert score == pytest.approx(oracle, rel=1e-6, abs=1e-9)

    def test_score_array_matches_scalar_bitwise(self):
        pos = np.array([0.0, 3.0, 5.0, 10.0, 0.0])
        tot = np.array([10.0, 10.0, 10.0, 10.0, 0.0])
        arr = score_array(pos, tot, 0.1)
        for i in range(4):
            assert arr[i] == bernoulli_score(pos[i], tot[i], 0.1).score
        assert arr[4] == 0.0  # empty subsets score zero in the vectorized path


class TestOddsRatio:
    def test_equal_odds_gives_one(self):
        m = odds_ratio(10, 90, 30, 270)
        assert m.odds_ratio == pytest.approx(1.0)
        assert m.ci_low < 1.0 < m.ci_high

    def test_hand_arithmetic(self):
        m = odds_ratio(20, 80, 10, 890)
        assert m.odds_ratio == pytest.approx((20 / 80) / (10 / 890), rel=1e-12)
        assert m.odds_ratio == pytest.approx(22.25, rel=1e-12)
        se = math.sqrt(1 / 20 + 1 / 80 + 1 / 10 + 1 / 890)
        assert m.ci_low == pytest.approx(22.25 * math.exp(-1.96 * se), rel=1e-12)
        assert m.ci_high == pytest.approx(22.25 * math.exp(1.96 * se), rel=1e-12)
        assert m.subset_rate == 0.2
        assert m.complement_rate == pytest.approx(10 / 900)

    def test_rates_at_cohort_scale(self):
        # 6% subset rate vs 3% complement rate at a ~337k-record scale lands
        # near an odds ratio of 2.09 with a tight interval around it
        n_subset, n_comp = 135_115, 201_963
        a = round(0.06 * n_subset)
        c = round(0.03 * n_comp)
        m = odds_ratio(a, n_subset - a, c, n_comp - c)
        assert m.odds_ratio == pytest.approx(2.09, rel=0.02)
        assert m.ci_low < m.odds_ratio < m.ci_high
        assert m.ci_high - m.ci_low < 0.2

    def test_zero_cell_continuity_correction(self):
        m = odds_ratio(0, 50, 10, 40)
        expected = (0.5 / 50.5) / (10.5 / 40.5)
        assert m.odds_ratio == pytest.approx(expected, rel=1e-12)
        assert m.ci_low <= m.odds_ratio <= m.ci_high
        assert m.subset_rate == 0.0

    def test_empty_margins_rejected(self):
        with pytest.raises(ContractError):
            odds_ratio(0, 0, 5, 5)
        with pytest.raises(ContractError):
            odds_ratio(5, 5, 0, 0)
        with pytest.raises(ContractError):
            odds_ratio(-1, 5, 5, 5)

    def test_interval_must_bracket_ratio(self):
        with pytest.raises(ContractError):
            EffectMeasures(2.0, 2.5, 3.0, 0.1, 0.05)
