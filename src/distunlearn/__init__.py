"""Distributional unlearning toolkit.

Given samples from a distribution to forget and one to preserve, this
package computes which and how many points to delete, the achievable
removal/preservation trade-off frontier, finite-sample guarantee bounds for
random and selective deletion, and the downstream predictive impact of the
edit.
"""

from .bounds import (
    BudgetResult,
    GuaranteeBound,
    bound_random,
    bound_selective,
    budget_random,
    budget_selective,
    deviation_terms,
)
from .data_io import (
    LabeledDataset,
    TextCorpus,
    TfidfConfig,
    TfidfVectorizer,
    downsample_p2,
    load_features_csv,
    load_text_tsv,
    read_schema_file,
    split_stratified,
    write_text_tsv,
)
from .downstream import (
    ClassifierModel,
    FiniteJoint,
    Metrics,
    check_prop2,
    evaluate,
    logloss_decomposition,
    predict,
    predict_proba,
    train_logistic,
)
from .frontier import (
    ExpFamilySpec,
    TradeoffPoint,
    bernoulli_family,
    frontier_expfamily,
    frontier_gaussian,
    gaussian_family,
)
from .gaussian import (
    GaussianModel,
    g_folded,
    g_inverse,
    kl_gaussian,
    pooled_mle,
)
from .mechanisms import (
    RemovalPlan,
    ScoredSample,
    ScoringParams,
    apply_plan,
    plan_from_scores,
    random_removal,
    score_features,
    selective_removal_gaussian,
)
from .sweep import (
    PipelineConfig,
    SweepConfig,
    SweepResult,
    budget_to_reach,
    emit,
    half_target_budget,
    run_dataset_sweep,
    run_gaussian_sweep,
    saving,
)
from .synthetic import two_cluster_corpus

__version__ = "0.1.0"
