from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subscan.errors import ContractError, DegenerateDataError
from subscan.scan import ScanConfig, scan
from subscan.significance import (
    BootstrapConfig,
    _replicate_score,
    null_score_distribution,
    p_from_null_scores,
)
from subscan.tabular import Dataset, Schema

from conftest import make_recovery_cohort


def small_config(replicates: int = 20, seed: int = 1) -> BootstrapConfig:
    return BootstrapConfig(
        n_replicates=replicates,
        seed=seed,
        scan_config=ScanConfig(n_restarts=3, seed=0),
    )


class TestPFromNullScores:
    def test_observed_zero_gives_one(self):
        nulls = np.array([0.0, 1.5, 3.2])
        p, at_floor = p_from_null_scores(0.0, nulls)
        assert p == 1.0
        assert not at_floor

    def test_floor_when_nothing_exceeds(self):
        p, at_floor = p_from_null_scores(10.0, np.array([1.0] * 50))
        assert p == 1 / 51
        assert round(p, 6) == 0.019608
        assert at_floor

    def test_negative_observed_rejected(self):
        with pytest.raises(ContractError):
            p_from_null_scores(-0.1, np.array([1.0]))

    @given(
        st.lists(st.floats(0, 100, allow_nan=False), min_size=1, max_size=60),
        st.floats(0, 100),
        st.floats(0, 100),
    )
    @settings(max_examples=200)
    def test_floor_and_monotonicity(self, nulls, s1, s2):
        arr = np.asarray(nulls)
        p1, _ = p_from_null_scores(s1, arr)
        p2, _ = p_from_null_scores(s2, arr)
        assert p1 >= 1 / (len(nulls) + 1)
        if s1 <= s2:
            assert p1 >= p2


class TestEmpiricalPValue:
    def test_zero_score_floors_at_one(self):
        dataset, _ = make_recovery_cohort(seed=2, n_records=300)
        p, at_floor = p_from_null_scores(0.0, null_score_distribution(dataset, small_config()))
        assert p == 1.0
        assert not at_floor

    def test_planted_signal_hits_floor_r99(self):
        dataset, _ = make_recovery_cohort(seed=4)
        observed = scan(dataset, ScanConfig(n_restarts=10, seed=7)).panel.score
        config = BootstrapConfig(
            n_replicates=99, seed=5, scan_config=ScanConfig(n_restarts=10, seed=7)
        )
        nulls = null_score_distribution(dataset, config)
        p, at_floor = p_from_null_scores(observed, nulls)
        assert max(nulls) < observed  # zero exceedances
        assert p == 1 / 100
        assert at_floor

    def test_floor_matches_fifty_replicate_default(self):
        dataset, _ = make_recovery_cohort(seed=7)
        observed = scan(dataset, ScanConfig(n_restarts=10, seed=3)).panel.score
        config = BootstrapConfig(seed=8, scan_config=ScanConfig(n_restarts=5, seed=3))
        assert config.n_replicates == 50
        p, _ = p_from_null_scores(observed, null_score_distribution(dataset, config))
        assert p == pytest.approx(1 / 51)
        assert round(p, 6) == 0.019608

    def test_deterministic_and_worker_independent(self):
        dataset, _ = make_recovery_cohort(seed=9, n_records=400)
        config = small_config(replicates=12, seed=77)
        a = null_score_distribution(dataset, config, workers=1)
        b = null_score_distribution(dataset, config, workers=3)
        c = null_score_distribution(dataset, config, workers=1)
        assert np.array_equal(a, b)
        assert np.array_equal(a, c)

    def test_scan_seed_does_not_move_the_null_sample(self):
        # each replicate replaces scan_config.seed with its own stream
        dataset, _ = make_recovery_cohort(seed=9, n_records=400)
        config = small_config(replicates=6, seed=77)
        reseeded = replace(config, scan_config=replace(config.scan_config, seed=12345))
        assert np.array_equal(
            null_score_distribution(dataset, config),
            null_score_distribution(dataset, reseeded),
        )

    def test_replicate_count_respected(self):
        dataset, _ = make_recovery_cohort(seed=12, n_records=300)
        assert len(null_score_distribution(dataset, small_config(replicates=7))) == 7

    def test_negative_observed_rejected(self):
        dataset, _ = make_recovery_cohort(seed=1, n_records=300)
        with pytest.raises(ContractError):
            p_from_null_scores(-1.0, null_score_distribution(dataset, small_config()))

    def test_replicate_config_validation(self):
        with pytest.raises(ContractError):
            BootstrapConfig(n_replicates=0)


class TestDegenerateRedraw:
    def test_degenerate_draws_are_redrawn(self):
        # two records at mean 0.5: half of all draws are degenerate, so the
        # redraw loop must kick in and still produce a deterministic score
        schema = Schema((("a", ("x", "y")),))
        dataset = Dataset(schema, [[0], [1]], [1, 0])
        config = small_config(replicates=1, seed=13)
        score = _replicate_score(dataset, config, 0)
        assert score == _replicate_score(dataset, config, 0)

    def test_exhausted_redraws_raise(self):
        schema = Schema((("a", ("x", "y")),))
        dataset = Dataset(schema, [[0], [1]], [1, 0])
        config = small_config(replicates=1, seed=13)
        # find a replicate whose first draw is degenerate, then forbid redraws
        for rep in range(50):
            seq = np.random.SeedSequence([config.seed, rep, 0])
            outcome_seq, _ = seq.spawn(2)
            y = (np.random.default_rng(outcome_seq).random(2) < 0.5).astype(int)
            if y.sum() in (0, 2):
                with pytest.raises(DegenerateDataError):
                    _replicate_score(dataset, config, rep, max_redraws=1)
                return
        pytest.fail("no degenerate first draw found among 50 replicates")
