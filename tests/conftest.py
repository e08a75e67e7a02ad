from __future__ import annotations

import importlib

import pytest

# the experiment scripts' own cohort helpers, so that the tests run the scripts' code
from null_calibration import null_dataset as random_dataset
from oracles import StepAudit
from recovery_experiment import value_set as descriptor_value_set
from subscan.scan import ScanConfig
from subscan.tabular import (
    Dataset,
    Schema,
    SubsetDescriptor,
    SyntheticSpec,
    generate_synthetic,
)

# Planted-cohort geometry used across recovery, substitution, and greedy tests:
# two constrained features (one binary, one ternary) and three single-category
# fillers. Single-value constraints leave the in-sample optimum no room to
# shave categories off, so exact descriptor recovery is the expected outcome.
RECOVERY_CARDS = (2, 3, 1, 1, 1)
RECOVERY_PLANTED = SubsetDescriptor.from_dict({0: [0], 1: [0]})


def recovery_spec(seed: int, n_records: int = 2000) -> SyntheticSpec:
    return SyntheticSpec(
        n_records=n_records,
        cardinalities=RECOVERY_CARDS,
        base_rate=0.05,
        planted=RECOVERY_PLANTED,
        odds_multiplier=3.0,
        seed=seed,
    )


def make_recovery_cohort(seed: int, n_records: int = 2000):
    return generate_synthetic(recovery_spec(seed, n_records))


@pytest.fixture
def tiny_dataset() -> Dataset:
    schema = Schema((("color", ("red", "blue")), ("size", ("s", "m", "l"))))
    rows = [
        [0, 0], [0, 1], [0, 2], [1, 0], [1, 1],
        [1, 2], [0, 0], [1, 1], [0, 2], [1, 0],
    ]
    outcomes = [1, 1, 0, 0, 0, 0, 1, 0, 0, 0]
    return Dataset(schema, rows, outcomes)


@pytest.fixture
def fast_scan_config() -> ScanConfig:
    return ScanConfig(n_restarts=5, seed=123)


@pytest.fixture
def audit_steps(monkeypatch) -> StepAudit:
    """Audit every feature step of scan() in this test against subset enumeration.

    The package attribute ``subscan.scan`` is the scan function, which shadows
    the submodule, so the module is looked up by name. Only in-process
    restarts are audited (workers=1).
    """
    module = importlib.import_module("subscan.scan")
    audit = StepAudit(module.best_prefix)
    monkeypatch.setattr(module, "best_prefix", audit)
    return audit
