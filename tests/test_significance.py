from __future__ import annotations

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import record_drawn_cell_sums
from subscan import significance
from subscan.errors import ContractError, DegenerateDataError
from subscan.scan import ScanConfig, scan
from subscan.significance import (
    BootstrapConfig,
    _replicate_score,
    null_score_distribution,
    p_from_null_scores,
)
from subscan.tabular import Dataset, Schema, SubsetDescriptor, SyntheticSpec, generate_synthetic

from conftest import make_recovery_cohort, random_dataset


def small_config(replicates: int = 20, seed: int = 1) -> BootstrapConfig:
    return BootstrapConfig(
        n_replicates=replicates,
        scan_config=ScanConfig(n_restarts=3, seed=seed),
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

    def test_nan_observed_rejected(self):
        # no null score is >= NaN, so it would get the floor p-value
        with pytest.raises(ContractError, match="observed_score"):
            p_from_null_scores(float("nan"), np.array([1.0, 2.0, 3.0]))

    def test_nan_null_score_rejected(self):
        # a NaN replicate would never count as exceeding the observed score
        with pytest.raises(ContractError, match="NaN"):
            p_from_null_scores(2.0, np.array([1.0, float("nan"), 3.0]))

    def test_empty_null_sample_rejected(self):
        # no replicate would give p = 1 and mark it "at the floor"
        with pytest.raises(ContractError, match="at least one replicate"):
            p_from_null_scores(1.0, np.array([]))

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
        config = BootstrapConfig(n_replicates=99, scan_config=ScanConfig(n_restarts=10, seed=5))
        nulls = null_score_distribution(dataset, config)
        p, at_floor = p_from_null_scores(observed, nulls)
        assert max(nulls) < observed  # zero exceedances
        assert p == 1 / 100
        assert at_floor

    def test_floor_matches_fifty_replicate_default(self):
        dataset, _ = make_recovery_cohort(seed=7)
        observed = scan(dataset, ScanConfig(n_restarts=10, seed=3)).panel.score
        config = BootstrapConfig(scan_config=ScanConfig(n_restarts=5, seed=8))
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

    def test_a_sample_is_the_prefix_of_a_larger_one(self):
        # replicate i's streams derive from (scan_config.seed, i) only
        dataset, _ = make_recovery_cohort(seed=9, n_records=400)
        config = small_config(replicates=6, seed=77)
        doubled = replace(config, n_replicates=12)
        small = null_score_distribution(dataset, config)
        large = null_score_distribution(dataset, doubled)
        assert [s.hex() for s in large[:6].tolist()] == [s.hex() for s in small.tolist()]

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

    def test_exhausted_redraws_raise(self, monkeypatch):
        schema = Schema((("a", ("x", "y")),))
        dataset = Dataset(schema, [[0], [1]], [1, 0])
        config = small_config(replicates=1, seed=13)
        # find a replicate whose first draw is degenerate, then forbid redraws
        for rep in range(50):
            seq = np.random.SeedSequence([config.scan_config.seed, rep, 0])
            outcome_seq, _ = seq.spawn(2)
            rng = np.random.default_rng(outcome_seq)
            positives = dataset.drawn_cell_sums(rng, dataset.global_mean)
            if positives.sum() in (0, 2):
                monkeypatch.setattr(significance, "_MAX_REDRAWS", 1)
                with pytest.raises(DegenerateDataError):
                    _replicate_score(dataset, config, rep)
                return
        pytest.fail("no degenerate first draw found among 50 replicates")


def test_null_score_distribution_refuses_fewer_than_one_worker():
    dataset, _ = make_recovery_cohort(seed=1, n_records=200)
    with pytest.raises(ContractError, match="workers must be >= 1"):
        null_score_distribution(dataset, small_config(replicates=2), workers=0)


def replicate_peak(dataset: Dataset) -> int:
    """The ``tracemalloc`` peak, in bytes, of one replicate's draw and 1-restart search."""
    config = BootstrapConfig(n_replicates=1, scan_config=ScanConfig(n_restarts=1))
    _replicate_score(dataset, config, 1)  # numpy's first-call allocations are not the draw's
    tracemalloc.start()
    try:
        _replicate_score(dataset, config, 0)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestReplicateDraw:
    """A replicate draws its positives per cell, under the law of a draw per record."""

    def test_per_cell_draw_matches_per_record_draw(self):
        # 2,000 records of 24 cells, 4,000 replicates each way. Both draw each
        # cell's count as Binomial(n, mu), so each cell's mean and variance
        # agree within 5 standard errors of their difference, taken from that
        # law's second and fourth central moments
        dataset = random_dataset(np.random.default_rng(3), 2_000, (3, 4, 2), 0.3)
        n, mu, reps = dataset.cells.n, dataset.global_mean, 4_000
        rng = np.random.default_rng(17)
        per_cell = np.array([dataset.drawn_cell_sums(rng, mu) for _ in range(reps)])
        per_record = np.array([record_drawn_cell_sums(dataset, rng, mu) for _ in range(reps)])
        assert len(n) == 24 and per_cell.dtype == np.float64
        assert (per_cell == np.round(per_cell)).all() and (0 <= per_cell).all() and (per_cell <= n).all()
        var = n * mu * (1 - mu)
        fourth = var * (1 + 3 * (n - 2) * mu * (1 - mu))
        assert (abs(per_cell.mean(0) - per_record.mean(0)) < 5 * np.sqrt(2 * var / reps)).all()
        assert (abs(per_cell.var(0, ddof=1) - per_record.var(0, ddof=1))
                < 5 * np.sqrt(2 * (fourth - var**2) / reps)).all()

    def test_replicate_memory_is_per_cell(self):
        # 1M records of 5,040 cells: a replicate holds cell-sized arrays, under
        # 0.25 MiB, where a 65,536-record block of float64 draws took 0.5 MiB
        planted = SubsetDescriptor.from_dict({0: [0, 1], 1: [0]})
        spec = SyntheticSpec(1_000_000, (7, 2, 5, 6, 3, 4), 0.05, planted, 3.0, 4)
        dataset, _ = generate_synthetic(spec)
        assert len(dataset.cells.n) == 5_040
        assert replicate_peak(dataset) < 0.25 * 2**20

    def test_replicate_holds_no_record_sized_array(self):
        # 400k records of 8 four-category features (65,408 cells): a draw of
        # N float64s and an N-byte mask would take 3.6 MB; a replicate holds
        # its cell-sized arrays, under 2 MiB
        planted = SubsetDescriptor.from_dict({0: [0, 1], 1: [0, 1]})
        dataset, _ = generate_synthetic(SyntheticSpec(400_000, (4,) * 8, 0.05, planted, 3.0, 4))
        assert replicate_peak(dataset) < 2 * 2**20
