"""Anomalous-subgroup discovery and post-discovery analysis for categorical tables.

Find the subgroup of a discrete tabular dataset whose binary-outcome rate most
exceeds the global mean under a Bernoulli likelihood-ratio score, assess its
significance with a parametric bootstrap, rank which feature values drive the
anomalousness, and search for the smallest cross-substitutions of feature
values that destroy it.
"""

from .errors import (
    ContractError,
    DegenerateDataError,
    LoadError,
    SubscanError,
)
from .postdiscovery import (
    GreedyResult,
    RelevanceConfig,
    RelevanceEntry,
    SubstitutionCandidate,
    SubstitutionOutcome,
    cross_substitute_greedy,
    enumerate_substitutions,
    rank_feature_relevance,
    single_substitution_sweep,
)
from .scan import ScanConfig, ScanResult, evaluate, scan
from .scoring import (
    EffectMeasures,
    ScorePanel,
    bernoulli_score,
    odds_ratio,
    optimal_q,
)
from .significance import (
    BootstrapConfig,
    PValueResult,
    empirical_p_value,
    null_score_distribution,
    p_from_null_scores,
)
from .tabular import (
    Dataset,
    Schema,
    SubsetDescriptor,
    SyntheticSpec,
    category_counts,
    generate_synthetic,
    load_csv,
    membership,
    membership_mask,
    subset_counts,
    write_csv,
)

__version__ = "0.1.0"

__all__ = [
    "BootstrapConfig",
    "ContractError",
    "Dataset",
    "DegenerateDataError",
    "EffectMeasures",
    "GreedyResult",
    "LoadError",
    "PValueResult",
    "RelevanceConfig",
    "RelevanceEntry",
    "ScanConfig",
    "ScanResult",
    "Schema",
    "ScorePanel",
    "SubscanError",
    "SubsetDescriptor",
    "SubstitutionCandidate",
    "SubstitutionOutcome",
    "SyntheticSpec",
    "bernoulli_score",
    "category_counts",
    "cross_substitute_greedy",
    "empirical_p_value",
    "enumerate_substitutions",
    "evaluate",
    "generate_synthetic",
    "load_csv",
    "membership",
    "membership_mask",
    "null_score_distribution",
    "odds_ratio",
    "optimal_q",
    "p_from_null_scores",
    "rank_feature_relevance",
    "scan",
    "single_substitution_sweep",
    "subset_counts",
    "write_csv",
]
