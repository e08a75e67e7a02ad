"""Anomalous-subgroup discovery and post-discovery analysis for categorical tables.

Find the subgroup of a discrete tabular dataset whose binary-outcome rate most
exceeds the global mean under a Bernoulli likelihood-ratio score, assess its
significance with a parametric bootstrap, rank which feature values drive the
anomalousness, and search for the smallest cross-substitutions of feature
values that destroy it.
"""

__version__ = "0.1.0"  # bound before the submodules load, so any of them can import it

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
)
from .significance import (
    BootstrapConfig,
    null_score_distribution,
    p_from_null_scores,
)
from .tabular import (
    Dataset,
    Schema,
    SubsetDescriptor,
    SyntheticSpec,
    generate_synthetic,
    load_csv,
    write_csv,
)
