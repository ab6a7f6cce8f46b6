"""Experiment engine: budget sweeps, target-budget analysis, and emission.

A sweep runs one cell per (rule, budget fraction, seed).  Every random
choice in a cell comes from a sub-stream derived from the master seed and
the cell coordinates (see :mod:`distunlearn.rng`):

    samples / split / featurization : (master, "samples"|"split", seed)
    plan                            : (master, "plan", rule, budget_idx, seed)
    p2 downsampling                 : (master, "downsample", rule, budget_idx, seed)

Classifier training draws no randomness.  Within one (seed, rule), each
budget's fit starts from the previous budget's optimum when both training
sets have the same classes, and from zero otherwise; every fit still
iterates to ``tol``, so each metric is that of an optimum to within ``tol``.

Ranked rules rank each seed's forget rows once, and every budget's plan is
a prefix of that ranking.  Random plans still draw one permutation per
budget from the plan sub-stream above.

Sampling and splitting deliberately ignore the rule and budget so that
budget-0 cells coincide across rules for a shared seed.

The Gaussian sweep emits ``alpha`` (divergence from the forget model) and
``epsilon`` (divergence from the preserve model) per cell, plus the derived
decreasing metric ``alpha_remaining`` = alpha at full deletion minus alpha,
for the same rule and seed, whenever the grid contains budget 1.0.  Removal
divergence grows with the budget, so the half-target analysis runs on
``alpha_remaining``; its half-initial crossing is the budget where alpha
passes the midpoint between its no-deletion and full-deletion levels.
"""

from __future__ import annotations

import csv
import json
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import rng as rnglib
from .data_io import (
    LabeledDataset,
    P1,
    P2,
    TextCorpus,
    TfidfConfig,
    TfidfVectorizer,
    downsample_p2,
    split_row_positions,
    split_stratified,
)
from .downstream import evaluate, train_logistic
from .gaussian import GaussianModel, kl_gaussian, pooled_mle
from .mechanisms import (
    FEATURE_RULES,
    RemovalPlan,
    ScoringParams,
    apply_plan,
    plan_from_scores,
    random_removal,
    score_features,
    selective_removal_gaussian,
)

__all__ = [
    "SweepConfig",
    "PipelineConfig",
    "CellResult",
    "CellAggregate",
    "SweepResult",
    "run_gaussian_sweep",
    "run_dataset_sweep",
    "half_target_budget",
    "budget_to_reach",
    "saving",
    "emit",
    "derive_seed",
]

GAUSSIAN_RULES = ("random", "selective-gaussian")


def derive_seed(master_seed: int, *labels) -> int:
    """A 63-bit integer seed for the sub-stream named by ``labels``."""
    state = rnglib.subseed(master_seed, *labels).generate_state(2, np.uint64)
    return int(state[0] >> 1)


@dataclass(frozen=True)
class SweepConfig:
    """Grid of a sweep: which rules, budget fractions, and seeds to run."""

    rules: tuple[str, ...]
    budget_fractions: tuple[float, ...]
    seeds: tuple[int, ...]
    master_seed: int = 0
    scoring: ScoringParams = field(default_factory=ScoringParams)

    def __post_init__(self):
        rules = tuple(self.rules)
        budgets = tuple(float(b) for b in self.budget_fractions)
        seeds = tuple(int(s) for s in self.seeds)
        if not rules:
            raise ValueError("need at least one rule")
        if not seeds:
            raise ValueError("need at least one seed")
        if not budgets:
            raise ValueError("need at least one budget fraction")
        if any(not 0.0 <= b <= 1.0 for b in budgets):
            raise ValueError("budget fractions must lie in [0, 1]")
        if list(budgets) != sorted(budgets):
            raise ValueError("budget fractions must be sorted ascending")
        if len(set(budgets)) != len(budgets):
            raise ValueError("budget fractions must be distinct")
        object.__setattr__(self, "rules", rules)
        object.__setattr__(self, "budget_fractions", budgets)
        object.__setattr__(self, "seeds", seeds)


@dataclass(frozen=True)
class PipelineConfig:
    """Featurize/split/downsample/train settings for dataset sweeps."""

    tfidf: TfidfConfig = field(default_factory=TfidfConfig)
    train_fraction: float = 0.7
    downsample_ratio: float = 5.0
    l2_strength: float = 1.0
    max_iter: int = 500
    tol: float = 1e-6
    p1_label: int = 1


@dataclass(frozen=True)
class CellResult:
    rule: str
    budget_fraction: float
    seed: int
    metrics: dict[str, float]
    failed: bool = False
    failure_reason: str | None = None


@dataclass(frozen=True)
class CellAggregate:
    mean: float
    stderr: float
    n_seeds: int
    n_failed: int


@dataclass
class SweepResult:
    """All cells of one sweep plus per-(rule, budget) aggregation."""

    rows: list[CellResult]
    metric_names: tuple[str, ...]

    def cell(self, rule: str, budget: float, seed: int) -> CellResult:
        for row in self.rows:
            if row.rule == rule and row.budget_fraction == budget and row.seed == seed:
                return row
        raise KeyError((rule, budget, seed))

    def n_failed(self) -> int:
        return sum(row.failed for row in self.rows)

    def aggregate(self, metric: str) -> dict[tuple[str, float], CellAggregate]:
        """Seed mean and standard error per (rule, budget); failed cells are
        excluded from the statistics and counted."""
        groups: dict[tuple[str, float], list[float]] = {}
        failed: dict[tuple[str, float], int] = {}
        for row in self.rows:
            key = (row.rule, row.budget_fraction)
            failed.setdefault(key, 0)
            groups.setdefault(key, [])
            if row.failed or metric not in row.metrics:
                failed[key] += 1
                continue
            value = row.metrics[metric]
            if value is None or (isinstance(value, float) and math.isnan(value)):
                failed[key] += 1
                continue
            groups[key].append(float(value))
        out = {}
        for key, values in groups.items():
            if not values:
                continue
            arr = np.asarray(values)
            stderr = float(arr.std(ddof=1) / math.sqrt(arr.size)) if arr.size > 1 else 0.0
            out[key] = CellAggregate(mean=float(arr.mean()), stderr=stderr,
                                     n_seeds=arr.size, n_failed=failed[key])
        return out


def _budget_plans(config: SweepConfig, rule: str, n1: int, seed: int,
                  ranked: np.ndarray | None):
    """Yield ``(budget_idx, budget, f, removed)`` for every budget of a
    (rule, seed): a fresh random draw per budget for ``random``, else the
    first f rows of the seed's ``ranked`` forget rows."""
    for b_idx, budget in enumerate(config.budget_fractions):
        f = int(round(budget * n1))
        if rule == "random":
            removed = random_removal(
                n1, f, derive_seed(config.master_seed, "plan", rule, b_idx, seed)
            ).removed_indices
        else:
            removed = ranked[:f]
        yield b_idx, budget, f, removed


# ---------------------------------------------------------------------------
# Gaussian sweep
# ---------------------------------------------------------------------------


def run_gaussian_sweep(mu2: float, n1: int, n2: int, config: SweepConfig) -> SweepResult:
    """Synthetic univariate sweep: sample, delete, refit, measure divergences.

    The forget distribution is N(0, 1) and the preserve distribution
    N(mu2, 1); each cell deletes round(budget * n1) forget samples with its
    rule, refits the pooled mean at fixed unit variance, and records
    alpha = KL(p1 || fit) and epsilon = KL(p2 || fit).
    """
    if not math.isfinite(mu2):
        raise ValueError("mu2 must be finite")
    if n1 < 1 or n2 < 1:
        raise ValueError("need n1 >= 1 and n2 >= 1")
    for rule in config.rules:
        if rule not in GAUSSIAN_RULES:
            raise ValueError(f"gaussian sweep supports rules {GAUSSIAN_RULES}, got {rule!r}")
    p1_true = GaussianModel.univariate(0.0, 1.0)
    p2_true = GaussianModel.univariate(mu2, 1.0)

    has_full = config.budget_fractions[-1] == 1.0  # budgets ascend
    rows = []
    for seed in sorted(set(config.seeds)):
        gen = rnglib.generator(config.master_seed, "samples", seed)
        x1 = gen.normal(0.0, 1.0, n1)
        x2 = gen.normal(mu2, 1.0, n2)
        for rule in config.rules:
            ranked = (selective_removal_gaussian(x1, x2, n1).removed_indices
                      if rule == "selective-gaussian" else None)
            cells = []
            for _, budget, f, removed in _budget_plans(config, rule, n1, seed, ranked):
                fit = pooled_mle(np.delete(x1, removed), x2, 1.0)
                metrics = {"alpha": kl_gaussian(p1_true, fit),
                           "epsilon": kl_gaussian(p2_true, fit), "f": float(f)}
                cells.append(CellResult(rule, budget, seed, metrics))
            if has_full:  # the last cell deleted every forget sample
                full = cells[-1].metrics["alpha"]
                for cell in cells:
                    cell.metrics["alpha_remaining"] = full - cell.metrics["alpha"]
            rows += cells
    metric_names = ("alpha", "epsilon", "f") + (("alpha_remaining",) if has_full else ())
    return SweepResult(rows=rows, metric_names=metric_names)


# ---------------------------------------------------------------------------
# dataset sweep
# ---------------------------------------------------------------------------


def _prepare_seed_text(corpus: TextCorpus, pipeline: PipelineConfig, split_seed: int,
                       vec: TfidfVectorizer):
    labels = np.asarray(corpus.labels, dtype=int)
    group = np.where(labels == pipeline.p1_label, P1, P2)
    train_pos, val_pos = split_row_positions(group, labels, pipeline.train_fraction, split_seed)
    texts = np.asarray(corpus.texts, dtype=object)
    ids = np.asarray(corpus.ids, dtype=object)
    x_train = vec.fit_transform(texts[train_pos])
    x_val = vec.transform(texts[val_pos])
    train = LabeledDataset(features=x_train, labels=labels[train_pos],
                           group=group[train_pos], row_ids=ids[train_pos])
    val = LabeledDataset(features=x_val, labels=labels[val_pos],
                         group=group[val_pos], row_ids=ids[val_pos])
    return train, val


def run_dataset_sweep(source: TextCorpus | LabeledDataset, pipeline: PipelineConfig,
                      config: SweepConfig) -> SweepResult:
    """Full pipeline sweep over (rule, budget, seed) cells.

    Text corpora are stratified-split on the raw documents, featurized with
    TF-IDF fitted on the train split only (each document is tokenized once
    per sweep), scored, edited, downsampled, retrained, and evaluated on the
    untouched validation split.  Featurized datasets skip the TF-IDF step.
    A failing cell (for example a single-class training set at extreme
    budgets) is recorded with its reason, never silently dropped.
    """
    for rule in config.rules:
        if rule not in FEATURE_RULES:
            raise ValueError(f"dataset sweep supports rules {FEATURE_RULES}, got {rule!r}")

    vec = TfidfVectorizer(pipeline.tfidf)
    rows = []
    for seed in sorted(set(config.seeds)):
        split_seed = derive_seed(config.master_seed, "split", seed)
        if isinstance(source, TextCorpus):
            train, val = _prepare_seed_text(source, pipeline, split_seed, vec)
        else:
            train, val = split_stratified(source, pipeline.train_fraction, split_seed)
        p1_pos = train.p1_positions()
        p2_pos = train.p2_positions()
        n1_train = p1_pos.size
        for rule in config.rules:
            ranked = None
            if rule != "random":
                try:
                    scored = score_features(train.features[p1_pos],
                                            train.features[p2_pos],
                                            rule, config.scoring)
                    ranked = plan_from_scores(scored, rule, n1_train).removed_indices
                except ValueError as exc:
                    rows += [CellResult(rule=rule, budget_fraction=budget, seed=seed,
                                        metrics={}, failed=True,
                                        failure_reason=f"scoring failed: {exc}")
                             for budget in config.budget_fractions]
                    continue
            model = None  # the chain's last fit, which warm-starts the next
            for b_idx, budget, f, removed in _budget_plans(config, rule, n1_train, seed, ranked):
                try:
                    edited = apply_plan(train, RemovalPlan(rule=rule, budget_f=f,
                                                           removed_indices=removed))
                    reduced = downsample_p2(
                        edited, pipeline.downsample_ratio,
                        derive_seed(config.master_seed, "downsample", rule, b_idx, seed))
                    warm = model is not None and np.array_equal(
                        model.classes, np.unique(reduced.labels))
                    model = train_logistic(reduced, pipeline.l2_strength,
                                           max_iter=pipeline.max_iter, tol=pipeline.tol,
                                           init=model if warm else None)
                    metrics_obj = evaluate(model, val, positive_label=pipeline.p1_label)
                    metrics = {
                        "recall_p1": metrics_obj.recall_p1,
                        "macro_f1_p2": metrics_obj.macro_f1_p2,
                        "logloss": metrics_obj.logloss,
                        "f": float(f),
                    }
                    for cls, acc in metrics_obj.accuracy_per_class.items():
                        metrics[f"acc_class_{cls}"] = acc
                    rows.append(CellResult(rule=rule, budget_fraction=budget,
                                           seed=seed, metrics=metrics))
                except ValueError as exc:
                    rows.append(CellResult(rule=rule, budget_fraction=budget, seed=seed,
                                           metrics={}, failed=True,
                                           failure_reason=str(exc)))
    names = sorted({name for row in rows for name in row.metrics})
    return SweepResult(rows=rows, metric_names=tuple(names))


# ---------------------------------------------------------------------------
# target-budget analysis
# ---------------------------------------------------------------------------


def budget_to_reach(result: SweepResult, rule: str, metric: str, target: float,
                    direction: str = "down") -> float | None:
    """Smallest budget whose seed-mean metric crosses ``target``.

    ``direction="down"`` looks for mean <= target, ``"up"`` for mean >=
    target.  Linear interpolation refines between the bracketing swept
    budgets; None means the target is never reached.
    """
    if direction not in ("down", "up"):
        raise ValueError("direction must be 'down' or 'up'")
    agg = result.aggregate(metric)
    budgets = sorted(b for (r, b) in agg if r == rule)
    if not budgets:
        raise ValueError(f"no cells for rule {rule!r} with metric {metric!r}")
    sign = 1.0 if direction == "down" else -1.0
    previous: tuple[float, float] | None = None
    for b in budgets:
        mean = agg[(rule, b)].mean
        if sign * (mean - target) <= 0.0:
            if previous is None:
                return b
            b_prev, m_prev = previous
            denom = m_prev - mean
            if denom == 0.0:
                return b
            frac = (m_prev - target) / denom
            return b_prev + (b - b_prev) * frac
        previous = (b, mean)
    return None


def half_target_budget(result: SweepResult, rule: str, metric: str) -> float | None:
    """Smallest budget at which the seed-mean metric falls to half its
    budget-0 value (linear interpolation between swept budgets); None when
    no swept budget qualifies."""
    agg = result.aggregate(metric)
    if (rule, 0.0) not in agg:
        raise ValueError(
            f"missing budget-0 cell for rule {rule!r}: the initial value is undefined"
        )
    initial = agg[(rule, 0.0)].mean
    return budget_to_reach(result, rule, metric, 0.5 * initial, direction="down")


def saving(result: SweepResult, baseline_rule: str, rule: str, metric: str) -> float | None:
    """Relative budget reduction of ``rule`` versus ``baseline_rule``:
    1 - half_target(rule) / half_target(baseline).  None when either rule
    never reaches its half target or the baseline's budget is zero."""
    base = half_target_budget(result, baseline_rule, metric)
    ours = half_target_budget(result, rule, metric)
    if base is None or ours is None:
        return None
    if base == 0.0:
        warnings.warn("baseline half-target budget is zero; saving undefined")
        return None
    return 1.0 - ours / base


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------


def _format_value(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return f"{value:.17g}"
    return str(value)


def result_rows(result: SweepResult) -> tuple[list[str], list[dict]]:
    """Flatten a sweep result into (fieldnames, row dicts) in emit order."""
    fields = ["rule", "budget_fraction", "seed", "failed", "failure_reason"]
    fields += list(result.metric_names)
    rows = []
    ordered = sorted(result.rows, key=lambda r: (r.rule, r.budget_fraction, r.seed))
    for row in ordered:
        rec = {
            "rule": row.rule,
            "budget_fraction": row.budget_fraction,
            "seed": row.seed,
            "failed": row.failed,
            "failure_reason": row.failure_reason,
        }
        for name in result.metric_names:
            rec[name] = row.metrics.get(name)
        rows.append(rec)
    return fields, rows


def emit(data, format: str, path, fieldnames: list[str] | None = None) -> None:
    """Write a sweep result or a sequence of row mappings to disk.

    Bit-deterministic: fixed column order and LF line endings.  CSV writes
    floats at 17 significant digits and quotes only fields holding a comma,
    a double quote or a newline (every field of a row holding a carriage
    return).  JSON-lines writes one ``json.dumps`` object
    per row: floats in their shortest round-trip form, non-finite floats as
    ``NaN``, ``Infinity`` and ``-Infinity``.  ``format`` is ``csv`` or
    ``json-lines``.
    """
    if isinstance(data, SweepResult):
        fields, rows = result_rows(data)
    else:
        rows = list(data)
        if fieldnames is not None:
            fields = list(fieldnames)
        elif rows:
            fields = list(rows[0].keys())
        else:
            raise ValueError("emitting an empty row sequence requires explicit fieldnames")
    if format not in ("csv", "json-lines"):
        raise ValueError(f"unknown format {format!r}; use 'csv' or 'json-lines'")
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            if format == "csv":
                writer = csv.writer(fh, lineterminator="\n", quoting=csv.QUOTE_MINIMAL)
                # QUOTE_MINIMAL does not quote a bare carriage return, which
                # readers take for a line end, so such a row is quoted whole.
                quoted = csv.writer(fh, lineterminator="\n", quoting=csv.QUOTE_ALL)
                writer.writerow(fields)
                for row in rows:
                    cells = [_format_value(row.get(name)) for name in fields]
                    (quoted if any("\r" in c for c in cells) else writer).writerow(cells)
            else:
                for row in rows:
                    record = {name: row.get(name) for name in fields}
                    fh.write(json.dumps(record, default=np.generic.item) + "\n")
    except OSError as exc:
        raise OSError(f"failed to write {path}: {exc}") from exc
