"""Distributional unlearning toolkit.

Given samples from a distribution to forget and one to preserve, this
package computes which and how many points to delete, the achievable
removal/preservation trade-off frontier, finite-sample guarantee bounds for
random and selective deletion, and the downstream predictive impact of the
edit.

Names are imported on first use, so ``import distunlearn`` loads no
submodule: the bound and frontier functions load numpy alone, while the
sweep, scoring and data functions load scipy.sparse.
"""

from importlib import import_module

__version__ = "0.1.0"

# submodule -> the names the package exports from it
_EXPORTS = {
    "bounds": ("BudgetResult", "GuaranteeBound", "bound_random", "bound_selective",
               "budget_random", "budget_selective"),
    "data_io": ("LabeledDataset", "TextCorpus", "TfidfConfig", "TfidfVectorizer",
                "downsample_p2", "load_features_csv", "load_text_tsv", "read_schema_file",
                "split_stratified", "write_text_tsv"),
    "downstream": ("ClassifierModel", "FiniteJoint", "Metrics", "evaluate",
                   "logloss_decomposition", "predict_proba", "train_logistic"),
    "frontier": ("ExpFamilySpec", "TradeoffPoint", "bernoulli_family", "frontier_expfamily",
                 "frontier_gaussian", "gaussian_family"),
    "gaussian": ("GaussianModel", "g_folded", "g_inverse", "kl_gaussian", "pooled_mle"),
    "mechanisms": ("RemovalPlan", "ScoringParams", "apply_plan", "plan_from_scores",
                   "random_removal", "score_features", "selective_removal_gaussian"),
    "sweep": ("PipelineConfig", "SweepConfig", "SweepResult", "budget_to_reach", "emit",
              "half_target_budget", "run_dataset_sweep", "run_gaussian_sweep", "saving"),
    "synthetic": ("two_cluster_corpus",),
}
_SUBMODULES = ("bounds", "cli", "data_io", "downstream", "frontier", "gaussian", "mechanisms",
               "rng", "stopwords", "sweep", "synthetic", "writer")
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF) + list(_SUBMODULES)


def __getattr__(name: str):
    if name in _SUBMODULES:
        value = import_module(f".{name}", __name__)
    elif name in _MODULE_OF:
        value = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
