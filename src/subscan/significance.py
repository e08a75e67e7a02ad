"""Empirical significance of scan scores via parametric bootstrap.

Each replicate redraws every outcome independently as Bernoulli(global mean)
with the feature table fixed. The search reads outcomes only through their
sums per cell (distinct feature pattern), and a cell's sum of n such draws is
Binomial(n, global mean), so a replicate draws one count per cell
(``Dataset.drawn_cell_sums``): a vector of per-cell positives, not a second
dataset, at O(cells) whatever the record count.
It reruns every restart of the search (so the null distribution reflects the
same maximization that produced the observed score) and records the best
score. The p-value is

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
    """Replicate count and the scan configuration reused per replicate.

    Replicate i runs ``scan_config`` on outcomes drawn from a stream derived
    from (``scan_config.seed``, i), with the seed of its restarts replaced by
    a second stream derived from the same pair. A null seed other than the
    observed scan's is a ``scan_config`` with that seed.
    """

    n_replicates: int = 50
    scan_config: ScanConfig = field(default_factory=ScanConfig)

    def __post_init__(self) -> None:
        if self.n_replicates < 1:
            raise ContractError("n_replicates must be >= 1")


def _replicate_score(dataset: Dataset, config: BootstrapConfig, replicate_index: int) -> float:
    """Best restart score of one null replicate; degenerate draws are redrawn."""
    for attempt in range(_MAX_REDRAWS):
        seq = np.random.SeedSequence([config.scan_config.seed, replicate_index, attempt])
        outcome_seq, scan_seq = seq.spawn(2)
        rng = np.random.default_rng(outcome_seq)
        positives = dataset.drawn_cell_sums(rng, dataset.global_mean)
        if 0 < positives.sum() < dataset.n_records:  # else degenerate: redraw
            rep_config = replace(config.scan_config, seed=int(scan_seq.generate_state(1)[0]))
            return _search(dataset, positives, rep_config, workers=1)[1][0]
    raise DegenerateDataError(
        f"replicate {replicate_index} drew degenerate outcomes "
        f"{_MAX_REDRAWS} times in a row"
    )


def null_score_distribution(
    dataset: Dataset, config: BootstrapConfig, *, workers: int = 1
) -> np.ndarray:
    """Replicate max-score sample under the null; deterministic given the seed.

    Replicate streams derive from (``scan_config.seed``, replicate index), so
    results do not depend on the worker count, and the first R replicates of
    a larger sample are the sample of R.
    """
    scores = parallel_map(
        partial(_replicate_score, dataset, config), range(config.n_replicates), workers
    )
    return np.asarray(scores, dtype=np.float64)


def p_from_null_scores(
    observed_score: float, null_scores: np.ndarray
) -> tuple[float, bool]:
    """(empirical p, at-floor flag) of an observed score against null scores.

    A NaN score is refused, observed or null: it compares false with every
    score, so an observed NaN would get the floor p-value and a null NaN
    would never count as exceeding.
    """
    if not observed_score >= 0:
        raise ContractError(f"observed_score must be a number >= 0, got {observed_score}")
    null_scores = np.asarray(null_scores)
    if np.isnan(null_scores).any():
        raise ContractError("null_scores must not hold NaN")
    if len(null_scores) == 0:  # p would be 1 from no replicate, and "at the floor"
        raise ContractError("null_scores must hold at least one replicate score")
    exceed = int(np.count_nonzero(null_scores >= observed_score))
    p = (1 + exceed) / (1 + len(null_scores))
    return p, exceed == 0
