"""Experiment engine: budget sweeps, target-budget analysis, and emission.

Both sweeps run one loop over (seed, rule, budget) cells:

1. per seed, draw the samples (Gaussian sweep) or split and featurize the
   dataset (dataset sweep);
2. per (seed, rule), rank the seed's n1 forget rows for deletion once;
   ``random`` ranks by one seeded permutation;
3. per budget b, delete the first f = round(b * n1) ranked rows, so every
   budget's plan is a prefix of that one ranking, then refit and measure;
4. each cell hands a carry to the next budget of its (seed, rule) chain:
   the Gaussian sweep its forget samples gathered once in deletion order,
   the dataset sweep its fit, which warm-starts the next fit when both
   training sets have the same classes.  Every fit still iterates to
   ``tol``, so each metric is that of an optimum to within ``tol``.

A ranking that raises ``ValueError`` fails every budget of its rule with
``scoring failed: <reason>``; any other ``ValueError`` fails its cell
alone.  Failed cells keep their reason and are never dropped.

Every random choice in a cell comes from a sub-stream derived from the
master seed and the cell coordinates (see :mod:`distunlearn.rng`);
classifier training draws none:

    samples / split / featurization : (master, "samples"|"split", seed)
    random deletion order           : (master, "plan", "random", seed)
    p2 downsampling                 : (master, "downsample", rule, budget_idx, seed)

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

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import rng as rnglib
from .data_io import (
    LabeledDataset,
    TextCorpus,
    TfidfConfig,
    TfidfVectorizer,
    downsample_p2,
    forget_tags,
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
from .writer import write_rows

__all__ = [
    "SweepConfig",
    "PipelineConfig",
    "CellResult",
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
DATASET_RULES = ("random",) + FEATURE_RULES


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
        for name, values in (("rules", rules), ("budget fractions", budgets), ("seeds", seeds)):
            if len(set(values)) != len(values):
                raise ValueError(f"{name} must be distinct, got {', '.join(map(str, values))}")
        object.__setattr__(self, "rules", rules)
        object.__setattr__(self, "budget_fractions", budgets)
        object.__setattr__(self, "seeds", tuple(sorted(seeds)))


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

    def __post_init__(self):
        for name, ok, need in (("train_fraction", 0 < self.train_fraction < 1, "lie in (0, 1)"),
                               ("downsample_ratio", self.downsample_ratio > 0, "be > 0"),
                               ("l2_strength", self.l2_strength >= 0, "be >= 0"),
                               ("max_iter", self.max_iter >= 1, "be >= 1"),
                               ("tol", self.tol > 0, "be > 0")):
            if not ok:
                raise ValueError(f"{name} must {need}, got {getattr(self, name)!r}")


@dataclass(frozen=True)
class CellResult:
    """One (rule, budget, seed) cell: its metrics, or why it failed."""

    rule: str
    budget_fraction: float
    seed: int
    metrics: dict[str, float]
    failure_reason: str | None = None

    @property
    def failed(self) -> bool:
        return self.failure_reason is not None


@dataclass
class SweepResult:
    """All cells of one sweep plus per-(rule, budget) seed means."""

    rows: list[CellResult]
    metric_names: tuple[str, ...]

    def cell(self, rule: str, budget: float, seed: int) -> CellResult:
        for row in self.rows:
            if row.rule == rule and row.budget_fraction == budget and row.seed == seed:
                return row
        raise KeyError((rule, budget, seed))

    def n_failed(self) -> int:
        return sum(row.failed for row in self.rows)

    def aggregate(self, metric: str) -> dict[tuple[str, float], float]:
        """Seed mean of ``metric`` per (rule, budget), in row order, over the
        cells that did not fail and hold a value (None and NaN hold none);
        a (rule, budget) with no value is absent."""
        groups: dict[tuple[str, float], list[float]] = {}
        for row in self.rows:
            value = row.metrics.get(metric)
            if row.failed or value is None or math.isnan(value):
                continue
            groups.setdefault((row.rule, row.budget_fraction), []).append(float(value))
        return {key: float(np.mean(values)) for key, values in groups.items()}


def _run_cells(config: SweepConfig, kind: str, known: tuple[str, ...],
               prepare_seed, rank, measure) -> list[CellResult]:
    """The one cell loop of both sweeps (see the module docstring); rows
    come out in (seed, rule, budget) order.

    ``prepare_seed(seed)`` returns ``(data, n1)``, with n1 the seed's forget
    rows; ``rank(data, rule)`` returns a rule's plan of all n1 rows; and
    ``measure(data, rule, seed, b_idx, ranked, f, carry)`` returns the
    cell's metrics and the carry for the next budget (None at the first).
    A failed cell leaves the carry as it was.
    """
    for rule in config.rules:
        if rule not in known:
            raise ValueError(f"{kind} sweep supports rules {known}, got {rule!r}")
    rows = []
    for seed in config.seeds:
        data, n1 = prepare_seed(seed)
        for rule in config.rules:
            try:
                ranked = (random_removal(n1, n1, derive_seed(config.master_seed, "plan",
                                                             "random", seed))
                          if rule == "random" else rank(data, rule)).removed_indices
            except ValueError as exc:
                rows += [CellResult(rule, budget, seed, {}, f"scoring failed: {exc}")
                         for budget in config.budget_fractions]
                continue
            carry = None
            for b_idx, budget in enumerate(config.budget_fractions):
                f = int(round(budget * n1))
                try:
                    metrics, carry = measure(data, rule, seed, b_idx, ranked, f, carry)
                    rows.append(CellResult(rule, budget, seed, metrics))
                except ValueError as exc:
                    rows.append(CellResult(rule, budget, seed, {}, str(exc)))
    return rows


# ---------------------------------------------------------------------------
# Gaussian sweep
# ---------------------------------------------------------------------------


def run_gaussian_sweep(mu2: float, n1: int, n2: int, config: SweepConfig) -> SweepResult:
    """Synthetic univariate sweep: sample, delete, refit, measure divergences.

    The forget distribution is N(0, 1) and the preserve distribution
    N(mu2, 1); each cell deletes round(budget * n1) forget samples with its
    rule, refits the pooled mean at fixed unit variance, and records
    alpha = KL(p1 || fit) and epsilon = KL(p2 || fit).

    Each (rule, seed) gathers its forget samples once into deletion order,
    so budget f refits on the view of the rows after the first f, which are
    exactly the rows its plan keeps.  Those survivors are summed in deletion
    order; budget 0 refits on the samples in sampled order, so budget-0
    cells are identical across rules.
    """
    if not math.isfinite(mu2):
        raise ValueError("mu2 must be finite")
    if n1 < 1 or n2 < 1:
        raise ValueError("need n1 >= 1 and n2 >= 1")
    p1_true = GaussianModel.univariate(0.0, 1.0)
    p2_true = GaussianModel.univariate(mu2, 1.0)

    def prepare_seed(seed):
        gen = rnglib.generator(config.master_seed, "samples", seed)
        return (gen.normal(0.0, 1.0, n1), gen.normal(mu2, 1.0, n2)), n1

    def measure(data, rule, seed, b_idx, ranked, f, in_order):
        x1, x2 = data
        if in_order is None:
            in_order = x1[ranked]  # deletion order: budget f keeps in_order[f:]
        fit = pooled_mle(in_order[f:] if f else x1, x2, 1.0)
        return {"alpha": kl_gaussian(p1_true, fit), "epsilon": kl_gaussian(p2_true, fit),
                "f": float(f)}, in_order

    rows = _run_cells(config, "gaussian", GAUSSIAN_RULES, prepare_seed,
                      lambda data, rule: selective_removal_gaussian(*data, n1), measure)
    has_full = config.budget_fractions[-1] == 1.0  # budgets ascend
    if has_full:  # each chain's last cell deleted every forget sample
        n_budgets = len(config.budget_fractions)
        for start in range(0, len(rows), n_budgets):
            chain = rows[start:start + n_budgets]
            full = chain[-1].metrics["alpha"]
            for cell in chain:
                cell.metrics["alpha_remaining"] = full - cell.metrics["alpha"]
    metric_names = ("alpha", "epsilon", "f") + (("alpha_remaining",) if has_full else ())
    return SweepResult(rows=rows, metric_names=metric_names)


# ---------------------------------------------------------------------------
# dataset sweep
# ---------------------------------------------------------------------------


def run_dataset_sweep(source: TextCorpus | LabeledDataset, pipeline: PipelineConfig,
                      config: SweepConfig) -> SweepResult:
    """Full pipeline sweep over (rule, budget, seed) cells.

    Text corpora are stratified-split on the raw documents, featurized with
    TF-IDF fitted on the train split only (each document is tokenized once
    per sweep), scored, edited, downsampled, retrained, and evaluated on the
    untouched validation split.  Featurized datasets skip the TF-IDF step.
    A failing cell (for example a single-class training set at extreme
    budgets) is recorded with its reason, never silently dropped.  A source
    with fewer than 2 forget rows (group P1) labelled ``p1_label`` is
    rejected before any seed runs: the split would keep them all in train,
    and no cell could measure ``recall_p1``.
    """
    vec = TfidfVectorizer(pipeline.tfidf)
    labels, group = forget_tags(source, pipeline.p1_label, min_rows=2)
    if isinstance(source, TextCorpus):
        texts = np.asarray(source.texts, dtype=object)
        ids = np.asarray(source.ids, dtype=object)

    def prepare_seed(seed):
        split_seed = derive_seed(config.master_seed, "split", seed)
        if isinstance(source, TextCorpus):
            train_pos, val_pos = split_row_positions(group, labels, pipeline.train_fraction,
                                                     split_seed)
            x_train = vec.fit_transform(texts[train_pos])  # fitted on the train split only
            train, val = (LabeledDataset(features=x, labels=labels[pos], group=group[pos],
                                         row_ids=ids[pos])
                          for x, pos in ((x_train, train_pos),
                                         (vec.transform(texts[val_pos]), val_pos)))
        else:
            train, val = split_stratified(source, pipeline.train_fraction, split_seed)
        p1_pos = train.p1_positions()
        return (train, val, p1_pos, train.p2_positions()), p1_pos.size

    def rank(data, rule):
        train, _, p1_pos, p2_pos = data
        scored = score_features(train.features[p1_pos], train.features[p2_pos], rule,
                                config.scoring)
        return plan_from_scores(scored, rule, p1_pos.size)

    def measure(data, rule, seed, b_idx, ranked, f, model):
        train, val, _, _ = data
        edited = apply_plan(train, RemovalPlan(rule=rule, removed_indices=ranked[:f]))
        reduced = downsample_p2(edited, pipeline.downsample_ratio,
                                derive_seed(config.master_seed, "downsample", rule, b_idx, seed))
        # the chain's last fit warm-starts this one when the classes agree
        warm = model is not None and np.array_equal(model.classes, np.unique(reduced.labels))
        model = train_logistic(reduced, pipeline.l2_strength, max_iter=pipeline.max_iter,
                               tol=pipeline.tol, init=model if warm else None)
        metrics = evaluate(model, val, positive_label=pipeline.p1_label)
        metrics["f"] = float(f)
        return metrics, model

    rows = _run_cells(config, "dataset", DATASET_RULES, prepare_seed, rank, measure)
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
        mean = agg[(rule, b)]
        if sign * (mean - target) <= 0.0:
            if previous is None:
                return b
            b_prev, m_prev = previous
            frac = (m_prev - target) / (m_prev - mean)
            return b_prev + (b - b_prev) * frac
        previous = (b, mean)
    return None


def half_target_budget(result: SweepResult, rule: str, metric: str) -> float | None:
    """Smallest budget at which the seed-mean metric falls to half its
    budget-0 value (linear interpolation between swept budgets); None when
    no swept budget qualifies."""
    agg = result.aggregate(metric)
    if (rule, 0.0) not in agg:
        raise ValueError(f"no budget-0 value of {metric!r} for rule {rule!r}: "
                         "the initial value is undefined")
    initial = agg[(rule, 0.0)]
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


def emit(result: SweepResult, format: str, path) -> None:
    """Write a sweep result to disk, one row per cell ordered by (rule,
    budget, seed), through :func:`distunlearn.writer.write_rows`, which
    fixes the bytes."""
    fields = ["rule", "budget_fraction", "seed", "failed", "failure_reason"]
    fields += result.metric_names
    rows = [{"rule": row.rule, "budget_fraction": row.budget_fraction, "seed": row.seed,
             "failed": row.failed, "failure_reason": row.failure_reason, **row.metrics}
            for row in sorted(result.rows, key=lambda r: (r.rule, r.budget_fraction, r.seed))]
    write_rows(rows, format, path, fields)
