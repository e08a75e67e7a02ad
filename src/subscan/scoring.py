"""Bernoulli likelihood-ratio scan score and odds-ratio effect measures.

The score of a subset holding C positives among N_S records, against a global
outcome mean mu, is

    score = max over q >= 1 of  C*log(q) - N_S*log(1 - mu + q*mu)

where q multiplies the baseline outcome odds mu/(1-mu) inside the subset. The
maximizer has the closed form q* = C*(1-mu) / (mu*(N_S-C)), clamped at 1; an
all-positive subset (C == N_S) takes the q -> infinity limit -N_S*log(mu).
q* and the score are stated twice, with the same float operations in the
same order, so the two give the same bits: ``score_list`` over Python floats,
for ``bernoulli_score``, the scan's start score and every feature step of up
to 16 categories, and ``unguarded_score_array`` over numpy arrays, for the
steps of wider features.

Natural logarithms throughout; any other base rescales every score by the same
constant and cannot change which subset ranks highest.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import ContractError

Z_95 = 1.96  # two-sided 95% normal quantile used for odds-ratio intervals


def unguarded_score_array(
    pos: np.ndarray, tot: np.ndarray, mu: float
) -> tuple[np.ndarray, np.ndarray]:
    """(q*, score) of exact integer counts, for a caller that holds the error state.

    The counts are numpy arrays or scalars, float64 or int (a Python float
    would raise on an empty subset). q* is inf for an all-positive subset, and
    an empty subset scores 0. The caller must run it under
    ``np.errstate(divide="ignore", invalid="ignore")``: the scores of empty and
    all-positive subsets pass through a division by zero before they take
    their defined values.
    """
    at_or_below_null = pos / tot <= mu  # same division as subset rates
    q = (pos * (1.0 - mu)) / (mu * (tot - pos))
    q = np.where(at_or_below_null, 1.0, np.maximum(q, 1.0))
    score = pos * np.log(q) - tot * np.log(1.0 - mu + q * mu)
    full = pos == tot
    score = np.where(full, -tot * math.log(mu), score)
    return q, np.maximum(score, 0.0)


def score_list(
    pos: Sequence[float], tot: Sequence[float], mu: float
) -> tuple[list[float], list[float]]:
    """(q*, score) of exact integer counts in Python floats: ``unguarded_score_array``'s bits.

    Every float operation is the array statement's, in its order, and Python
    floats are IEEE doubles like numpy's, so each q* and score is the same
    bits. All 2k logarithms go through one ``np.log`` call, because
    ``math.log`` rounds differently from it on some inputs; the all-positive
    limit takes the array statement's ``math.log(mu)``. An empty or
    all-positive subset takes its value without dividing by zero: score 0
    with q* nan (empty), or q* inf.
    """
    q = []
    for c, n in zip(pos, tot):
        if c == n:
            q.append(math.inf if n else math.nan)
        elif c / n <= mu:  # same division as subset rates
            q.append(1.0)
        else:
            q.append(max((c * (1.0 - mu)) / (mu * (n - c)), 1.0))
    logs = np.log(q + [1.0 - mu + x * mu for x in q]).tolist()
    log_mu = math.log(mu)
    scores = []
    for c, n, log_q, log_r in zip(pos, tot, logs, logs[len(q):]):
        s = -n * log_mu if c == n else c * log_q - n * log_r
        scores.append(0.0 if s <= 0.0 else s)  # np.maximum(s, 0.0), a NaN kept
    return q, scores


@dataclass(frozen=True)
class ScorePanel:
    """Score and the counts it was computed from."""

    score: float
    q_mle: float
    n_subset: int
    n_positive: int
    global_mean: float
    subset_mean: float

    def __post_init__(self) -> None:
        if not 0 <= self.n_positive <= self.n_subset:
            raise ContractError("n_positive must lie in [0, n_subset]")


def bernoulli_score(n_positive: int, n_subset: int, global_mean: float) -> ScorePanel:
    """Score a subset from its counts; see the module docstring for the formula.

    The score and ``q_mle`` come from ``score_list``, so the score is the
    scan's score of the same counts, bit for bit. Rejects counts and
    means outside their domains.
    """
    if not 0.0 < global_mean < 1.0:
        raise ContractError(f"global_mean must lie in (0, 1), got {global_mean}")
    if n_subset < 1:
        raise ContractError(f"n_subset must be >= 1, got {n_subset}")
    if not 0 <= n_positive <= n_subset:
        raise ContractError(
            f"n_positive must lie in [0, n_subset], got {n_positive} of {n_subset}"
        )
    mu = float(global_mean)
    (q,), (score,) = score_list([float(n_positive)], [float(n_subset)], mu)
    return ScorePanel(
        score=score,
        q_mle=q,
        n_subset=int(n_subset),
        n_positive=int(n_positive),
        global_mean=mu,
        subset_mean=float(n_positive) / float(n_subset),
    )


@dataclass(frozen=True)
class EffectMeasures:
    """Odds ratio of the subset against its complement, with a 95% interval."""

    odds_ratio: float
    ci_low: float
    ci_high: float
    subset_rate: float
    complement_rate: float

    def __post_init__(self) -> None:
        if not self.ci_low <= self.odds_ratio <= self.ci_high:
            raise ContractError("confidence interval must bracket the odds ratio")


def odds_ratio(a: int, b: int, c: int, d: int) -> EffectMeasures:
    """2x2 odds ratio: (subset positives a, subset negatives b) vs complement (c, d).

    The 95% interval uses the log-normal approximation
    exp(ln OR +/- 1.96*sqrt(1/a + 1/b + 1/c + 1/d)). Any zero cell triggers the
    Haldane-Anscombe correction: 0.5 added to all four cells for both the
    ratio and its interval.
    """
    if min(a, b, c, d) < 0:
        raise ContractError("cell counts must be non-negative")
    if a + b < 1:
        raise ContractError("subset is empty; odds ratio undefined")
    if c + d < 1:
        raise ContractError("complement is empty; odds ratio undefined")
    subset_rate = a / (a + b)
    complement_rate = c / (c + d)
    if min(a, b, c, d) == 0:
        aa, bb, cc, dd = a + 0.5, b + 0.5, c + 0.5, d + 0.5
    else:
        aa, bb, cc, dd = float(a), float(b), float(c), float(d)
    ratio = (aa / bb) / (cc / dd)
    se = math.sqrt(1.0 / aa + 1.0 / bb + 1.0 / cc + 1.0 / dd)
    log_or = math.log(ratio)
    return EffectMeasures(
        odds_ratio=ratio,
        ci_low=math.exp(log_or - Z_95 * se),
        ci_high=math.exp(log_or + Z_95 * se),
        subset_rate=subset_rate,
        complement_rate=complement_rate,
    )
