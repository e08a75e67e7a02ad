"""Empirical significance of scan scores via parametric bootstrap.

Each replicate redraws every outcome independently as Bernoulli(global mean)
with the feature table fixed and sums the draws per cell (distinct feature
pattern): the search reads outcomes only through these counts, so a replicate
is a vector of per-cell positives, not a second dataset. It reruns every
restart of the search (so the null distribution reflects the same maximization
that produced the observed score) and records the best score. The p-value is

    p = (1 + #{replicate score >= observed}) / (1 + n_replicates)

whose floor 1/(R+1) is reported explicitly through ``at_floor`` so a run of
identical floor values is not misread as insensitivity.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from .errors import ContractError, DegenerateDataError
from .scan import ScanConfig, _search, parallel_map
from .tabular import Dataset

_MAX_REDRAWS = 100  # attempts before giving up on an all-0/all-1 replicate


@dataclass(frozen=True)
class BootstrapConfig:
    """Replicate count, seed, and the scan configuration reused per replicate.

    Each replicate runs ``scan_config`` with its seed replaced by a stream of
    its own, derived from (``seed``, replicate index), so ``scan_config.seed``
    does not affect the null sample.
    """

    n_replicates: int = 50
    seed: int = 0
    scan_config: ScanConfig = field(default_factory=ScanConfig)

    def __post_init__(self) -> None:
        if self.n_replicates < 1:
            raise ContractError("n_replicates must be >= 1")
        if self.seed < 0:
            raise ContractError("seed must be a non-negative integer")


def _replicate_score(
    dataset: Dataset,
    config: BootstrapConfig,
    replicate_index: int,
    max_redraws: int = _MAX_REDRAWS,
) -> float:
    """Best restart score of one null replicate; degenerate draws are redrawn."""
    cells = dataset.cells
    for attempt in range(max_redraws):
        seq = np.random.SeedSequence([config.seed, replicate_index, attempt])
        outcome_seq, scan_seq = seq.spawn(2)
        rng = np.random.default_rng(outcome_seq)
        positive = rng.random(dataset.n_records) < dataset.global_mean
        positives = np.bincount(cells.index[positive], minlength=len(cells.n))
        if 0 < positives.sum() < dataset.n_records:  # else degenerate: redraw
            rep_config = replace(config.scan_config, seed=int(scan_seq.generate_state(1)[0]))
            return _search(dataset, positives, rep_config, workers=1)[1][0]
    raise DegenerateDataError(
        f"replicate {replicate_index} drew degenerate outcomes "
        f"{max_redraws} times in a row"
    )


def null_score_distribution(
    dataset: Dataset, config: BootstrapConfig, *, workers: int = 1
) -> np.ndarray:
    """Replicate max-score sample under the null; deterministic given the seed.

    Replicate streams derive from (seed, replicate index), so results do not
    depend on the worker count.
    """
    scores = parallel_map(
        partial(_replicate_score, dataset, config), range(config.n_replicates), workers
    )
    return np.asarray(scores, dtype=np.float64)


def p_from_null_scores(
    observed_score: float, null_scores: np.ndarray
) -> tuple[float, bool]:
    """(empirical p, at-floor flag) of an observed score against null scores."""
    if observed_score < 0:
        raise ContractError("observed_score must be >= 0")
    exceed = int(np.count_nonzero(np.asarray(null_scores) >= observed_score))
    p = (1 + exceed) / (1 + len(null_scores))
    return p, exceed == 0
