from __future__ import annotations

import importlib
import os
import pickle
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    BudgetError,
    StepAudit,
    best_category_subset_score,
    exhaustive_scan,
    membership_mask,
    record_run_restart,
)
from subscan.errors import DegenerateDataError
from subscan.scan import ScanConfig, best_prefix, parallel_map, scan
from subscan.scoring import bernoulli_score
from subscan.significance import BootstrapConfig, _replicate_score, null_score_distribution
from subscan.tabular import Dataset, Schema, SubsetDescriptor

from conftest import make_recovery_cohort, random_dataset


def concentrated_dataset() -> Dataset:
    """All positives sit on (color=red); everything else is noise-free zeros."""
    schema = Schema((("color", ("red", "blue")), ("size", ("s", "m", "l"))))
    rows = [[c, s] for c in range(2) for s in range(3)] * 8
    outcomes = [1 if r[0] == 0 else 0 for r in rows]
    return Dataset(schema, rows, outcomes)


class TestScan:
    def test_concentrated_signal_recovered(self, audit_steps):
        ds = concentrated_dataset()
        result = scan(ds, ScanConfig(n_restarts=8, seed=2))
        assert audit_steps.audited > 0
        assert result.descriptor == SubsetDescriptor.from_dict({0: [0]})
        oracle = exhaustive_scan(ds)
        assert result.panel.score == pytest.approx(oracle.panel.score, rel=1e-12)

    def test_every_restart_converges_to_same_optimum_picks_lowest_index(self):
        result = scan(concentrated_dataset(), ScanConfig(n_restarts=6, seed=4))
        assert result.restart_index == 0

    def test_planted_descriptor_recovered(self):
        dataset, planted = make_recovery_cohort(seed=17)
        result = scan(dataset, ScanConfig(n_restarts=10, seed=99))
        assert result.descriptor == planted

    def test_deterministic_given_seed(self):
        dataset, _ = make_recovery_cohort(seed=3, n_records=600)
        config = ScanConfig(n_restarts=6, seed=42)
        assert scan(dataset, config) == scan(dataset, config)

    def test_worker_count_does_not_change_result(self):
        dataset, _ = make_recovery_cohort(seed=8, n_records=600)
        config = ScanConfig(n_restarts=6, seed=11)
        assert scan(dataset, config, workers=1) == scan(dataset, config, workers=3)

    def test_shuffled_feature_order_is_deterministic(self):
        dataset, _ = make_recovery_cohort(seed=21, n_records=600)
        config = ScanConfig(n_restarts=6, seed=5, feature_order="shuffled")
        assert scan(dataset, config) == scan(dataset, config)

    def test_panel_matches_membership_recount(self):
        dataset, _ = make_recovery_cohort(seed=31, n_records=800)
        result = scan(dataset, ScanConfig(n_restarts=5, seed=1))
        mask = membership_mask(dataset, result.descriptor)
        panel = bernoulli_score(
            int(dataset.outcomes[mask].sum()), int(mask.sum()), dataset.global_mean
        )
        assert panel == result.panel

    def test_descriptor_never_carries_vacuous_constraint(self):
        for seed in range(5):
            ds = random_dataset(np.random.default_rng(seed), 150, (2, 3, 4))
            result = scan(ds, ScanConfig(n_restarts=5, seed=seed))
            for f, vs in result.descriptor.constraints:
                assert len(vs) < ds.schema.cardinality(f)

    def test_step_validation_passes_on_random_data(self, audit_steps):
        for seed in range(10):
            ds = random_dataset(np.random.default_rng(seed + 100), 120, (3, 4, 2))
            scan(ds, ScanConfig(n_restarts=4, seed=seed))
        assert audit_steps.audited > 0

    def test_degenerate_outcomes_rejected(self):
        schema = Schema((("a", ("x", "y")),))
        all_zero = Dataset(schema, [[0], [1]], [0, 0])
        all_one = Dataset(schema, [[0], [1]], [1, 1])
        for ds in (all_zero, all_one):
            with pytest.raises(DegenerateDataError):
                scan(ds, ScanConfig(n_restarts=1, seed=0))
            with pytest.raises(DegenerateDataError):
                exhaustive_scan(ds)

    def test_config_validation(self):
        with pytest.raises(Exception):
            ScanConfig(n_restarts=0)
        with pytest.raises(Exception):
            ScanConfig(max_passes=0)
        with pytest.raises(Exception):
            ScanConfig(feature_order="sideways")


@st.composite
def category_counts(draw):
    """Per-category (counts, positives) of one feature, zero-count categories included."""
    cardinality = draw(st.integers(1, 8))
    counts = draw(st.lists(st.integers(0, 60), min_size=cardinality, max_size=cardinality))
    positives = [draw(st.integers(0, c)) for c in counts]
    return np.array(counts, dtype=np.int64), np.array(positives, dtype=np.int64)


@dataclass
class PoolRecord:
    sizes: list[int] = field(default_factory=list)     # max_workers of each pool
    payloads: list[bytes] = field(default_factory=list)  # pickled (fn, tasks) of each map


@pytest.fixture
def serial_pool(monkeypatch) -> PoolRecord:
    """Swap the process pool for an in-process map that records what each pool receives.

    The initializer runs in process, as it would in each real worker.
    """
    record = PoolRecord()

    class SerialPool:
        def __init__(self, max_workers: int, initializer=None, initargs=()) -> None:
            record.sizes.append(max_workers)
            if initializer is not None:
                initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc) -> None:
            return None

        def map(self, fn, tasks, chunksize=1):
            tasks = list(tasks)
            record.payloads.append(pickle.dumps((fn, tasks)))
            return map(fn, tasks)

    monkeypatch.setattr(importlib.import_module("subscan.scan"), "ProcessPoolExecutor",
                        SerialPool)
    return record


@pytest.fixture
def pool_sizes(serial_pool) -> list[int]:
    """The max_workers of each pool started under ``serial_pool``."""
    return serial_pool.sizes


class TestParallelMap:
    @pytest.mark.parametrize("cpus, expected", [(64, 3), (2, 2)])
    def test_pool_size_is_capped(self, monkeypatch, pool_sizes, cpus, expected):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        assert parallel_map(abs, range(-1, 2), workers=10_000) == [1, 0, 1]
        assert pool_sizes == [expected]

    def test_one_cpu_or_one_task_runs_in_process(self, monkeypatch, pool_sizes):
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert parallel_map(abs, [-2, 3], workers=8) == [2, 3]
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        assert parallel_map(abs, [-2], workers=8) == [2]
        assert pool_sizes == []

    def test_tasks_do_not_carry_the_task_function(self, monkeypatch, serial_pool):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        dataset = random_dataset(np.random.default_rng(0), 50_000, (3, 4, 5, 2, 6, 3, 4))
        config = BootstrapConfig(n_replicates=2, scan_config=ScanConfig(n_restarts=1))
        fn = partial(_replicate_score, dataset, config)
        assert len(pickle.dumps(fn)) > 1_000_000  # the dataset rides in the partial
        assert parallel_map(fn, range(2), workers=2) == [fn(0), fn(1)]
        assert serial_pool.sizes == [2]
        assert [len(p) < 1024 for p in serial_pool.payloads] == [True]


@st.composite
def sparse_datasets(draw) -> Dataset:
    """Small datasets in which some categories never occur (zero-count categories)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    n_records = draw(st.integers(20, 120))
    cards = draw(st.lists(st.integers(1, 5), min_size=1, max_size=4))
    used = [draw(st.integers(1, card)) for card in cards]
    schema = Schema(tuple(
        (f"f{z}", tuple(f"v{h}" for h in range(card))) for z, card in enumerate(cards)
    ))
    rows = np.column_stack([rng.integers(0, k, size=n_records) for k in used])
    y = np.zeros(n_records, dtype=np.int8)
    y[rng.choice(n_records, size=draw(st.integers(1, n_records - 1)), replace=False)] = 1
    return Dataset(schema, rows, y)


def with_record_engine(fn, *args, **kwargs):
    """``fn(*args, **kwargs)`` with every restart run on per-record masks."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(importlib.import_module("subscan.scan"), "_run_restart",
                      record_run_restart)
        return fn(*args, **kwargs)


class TestCellEngine:
    """The cell-table engine reproduces the per-record engine it replaced."""

    @given(sparse_datasets(), st.integers(0, 2**16), st.sampled_from(["fixed", "shuffled"]))
    @settings(max_examples=60, deadline=None)
    def test_scan_matches_record_engine(self, dataset, seed, order):
        config = ScanConfig(n_restarts=4, seed=seed, feature_order=order)
        cells = scan(dataset, config)
        records = with_record_engine(scan, dataset, config)
        assert cells.descriptor == records.descriptor
        assert cells.panel.score == records.panel.score
        assert cells.restart_index == records.restart_index
        assert cells == records

    def test_null_distribution_matches_record_engine(self):
        """Each null score is the record engine's scan of a full Dataset that
        carries the replicate's outcomes, drawn here from the replicate's stream."""
        dataset = random_dataset(np.random.default_rng(5), 600, (3, 4, 2, 5), 0.1)
        config = BootstrapConfig(
            n_replicates=6, seed=2, scan_config=ScanConfig(n_restarts=3, seed=0)
        )
        records = []
        for r in range(config.n_replicates):
            outcome_seq, scan_seq = np.random.SeedSequence([config.seed, r, 0]).spawn(2)
            draws = np.random.default_rng(outcome_seq).random(dataset.n_records)
            replicate = Dataset(dataset.schema, dataset.rows, draws < dataset.global_mean)
            assert 0 < replicate.n_positive < replicate.n_records  # no redraw needed
            rep_config = replace(config.scan_config, seed=int(scan_seq.generate_state(1)[0]))
            records.append(with_record_engine(scan, replicate, rep_config).panel.score)
        assert null_score_distribution(dataset, config).tolist() == records


class TestBestPrefix:
    @given(category_counts(), st.floats(0.01, 0.99, exclude_min=True, exclude_max=True))
    @settings(max_examples=300, deadline=None)
    def test_matches_subset_enumeration(self, counts_positives, mu):
        counts, positives = counts_positives
        included, score = best_prefix(counts, positives, mu)
        assert included.dtype == bool and included.shape == counts.shape
        assert included.any()
        own = bernoulli_score_of(counts, positives, included, mu)
        assert score == pytest.approx(own, rel=1e-12, abs=1e-12)
        oracle = best_category_subset_score(counts, positives, mu)
        assert score >= oracle - 1e-9 * abs(oracle) - 1e-12
        assert score <= oracle + 1e-6 * abs(oracle) + 1e-9

    def test_audit_rejects_a_wrong_step(self):
        def first_category_only(counts, positives, mu):
            included = np.zeros(len(counts), dtype=bool)
            included[0] = True
            _, score = best_prefix(counts[:1], positives[:1], mu)
            return included, score

        # category 1 carries most positives, so keeping category 0 alone is wrong
        counts, positives = np.array([10, 10, 10]), np.array([0, 9, 1])
        audit = StepAudit(first_category_only)
        with pytest.raises(AssertionError, match="missed the optimal value subset"):
            audit(counts, positives, 0.3)
        assert audit.audited == 0

    def test_audit_rejects_a_misreported_score(self):
        def inflated(counts, positives, mu):
            included, score = best_prefix(counts, positives, mu)
            return included, score + 1.0

        with pytest.raises(AssertionError, match="reported"):
            StepAudit(inflated)(np.array([10, 10]), np.array([8, 1]), 0.3)


def bernoulli_score_of(counts, positives, included, mu) -> float:
    n_subset = int(counts[included].sum())
    if n_subset == 0:
        return 0.0
    return bernoulli_score(int(positives[included].sum()), n_subset, mu).score


class TestExhaustive:
    def test_single_binary_feature(self):
        schema = Schema((("a", ("x", "y")),))
        ds = Dataset(schema, [[0]] * 10 + [[1]] * 10, [1] * 6 + [0] * 4 + [0] * 10)
        result = exhaustive_scan(ds)
        assert result.descriptor == SubsetDescriptor.from_dict({0: [0]})

    def test_budget_refusal(self):
        ds = random_dataset(np.random.default_rng(0), 50, (4, 4, 4))
        with pytest.raises(BudgetError):
            exhaustive_scan(ds, limit=1000)

    def test_scan_never_beats_exhaustive(self):
        for seed in range(10):
            ds = random_dataset(np.random.default_rng(seed), 150, (3, 3, 3))
            best = exhaustive_scan(ds)
            found = scan(ds, ScanConfig(n_restarts=20, seed=seed))
            assert found.panel.score <= best.panel.score + 1e-9
            assert found.panel.score == pytest.approx(best.panel.score, rel=1e-9)

    def test_tie_break_prefers_fewer_constraints(self):
        # all positives on a=x; {a:x} and any {a:x, b:...} superset-scoring
        # variants cannot tie it, but the single constraint must come out clean
        schema = Schema((("a", ("x", "y")), ("b", ("p", "q"))))
        rows = [[0, 0], [0, 1], [1, 0], [1, 1]] * 6
        outcomes = [1, 1, 0, 0] * 6
        result = exhaustive_scan(Dataset(schema, rows, outcomes))
        assert result.descriptor == SubsetDescriptor.from_dict({0: [0]})

    def test_exact_tie_resolves_lexicographically(self):
        # positives exactly on cells (x,p) and (y,q): both double-constraint
        # cells carry identical counts, so their scores tie bit for bit and
        # the lexicographically first descriptor must win
        schema = Schema((("a", ("x", "y")), ("b", ("p", "q"))))
        rows = [[0, 0], [0, 1], [1, 0], [1, 1]] * 6
        outcomes = [1, 0, 0, 1] * 6
        result = exhaustive_scan(Dataset(schema, rows, outcomes))
        assert result.descriptor == SubsetDescriptor.from_dict({0: [0], 1: [0]})
