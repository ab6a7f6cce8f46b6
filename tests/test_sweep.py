import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distunlearn import rng as rnglib
from distunlearn import sweep
from distunlearn.data_io import (
    LabeledDataset,
    TextCorpus,
    TfidfConfig,
    forget_tags,
    split_row_positions,
    split_stratified,
)
from distunlearn.gaussian import GaussianModel, kl_gaussian, pooled_mle
from distunlearn.mechanisms import ScoringParams, random_removal, selective_removal_gaussian
from distunlearn.sweep import (
    CellResult,
    PipelineConfig,
    SweepConfig,
    SweepResult,
    budget_to_reach,
    derive_seed,
    emit,
    half_target_budget,
    run_dataset_sweep,
    run_gaussian_sweep,
    saving,
)
from distunlearn.synthetic import two_cluster_corpus
from distunlearn.writer import write_rows


def small_gaussian_config(**kw):
    defaults = dict(rules=("random", "selective-gaussian"),
                    budget_fractions=(0.0, 0.25, 0.5, 0.75, 1.0),
                    seeds=(0, 1, 2), master_seed=0)
    defaults.update(kw)
    return SweepConfig(**defaults)


def fabricated_result(metric_by_budget, rule="r", metric="m", seeds=(0,)):
    rows = []
    for budget, value in metric_by_budget.items():
        for seed in seeds:
            rows.append(CellResult(rule=rule, budget_fraction=budget, seed=seed,
                                   metrics={metric: value}))
    return SweepResult(rows=rows, metric_names=(metric,))


class TestSweepConfig:
    def test_validates_budget_order(self):
        with pytest.raises(ValueError, match="ascending"):
            SweepConfig(rules=("random",), budget_fractions=(0.5, 0.1), seeds=(0,))

    def test_validates_budget_range(self):
        with pytest.raises(ValueError):
            SweepConfig(rules=("random",), budget_fractions=(0.0, 1.5), seeds=(0,))

    def test_requires_rules_and_seeds(self):
        with pytest.raises(ValueError):
            SweepConfig(rules=(), budget_fractions=(0.0,), seeds=(0,))
        with pytest.raises(ValueError):
            SweepConfig(rules=("random",), budget_fractions=(0.0,), seeds=())

    def test_rejects_repeated_rules_seeds_and_budgets(self):
        for kw, name in ((dict(rules=("random", "random")), "rules"),
                         (dict(seeds=(0, 0, 1)), "seeds"),
                         (dict(budget_fractions=(0.0, 0.5, 0.5)), "budget fractions")):
            with pytest.raises(ValueError, match=f"{name} must be distinct"):
                small_gaussian_config(**kw)

    def test_stores_seeds_sorted(self):
        assert small_gaussian_config(seeds=(3, 1, 2)).seeds == (1, 2, 3)


class TestRunGaussianSweep:
    def test_full_deletion_fits_preserve_samples_only(self):
        config = small_gaussian_config(budget_fractions=(1.0,), seeds=(0,))
        result = run_gaussian_sweep(2.0, 500, 4000, config)
        for row in result.rows:
            # with all forget samples gone the fit tracks the preserve side
            assert row.metrics["epsilon"] < 0.01

    def test_epsilon_shrinks_with_preserve_sample_size(self):
        config = small_gaussian_config(rules=("random",), budget_fractions=(1.0,),
                                       seeds=tuple(range(10)))
        eps_small = np.mean([r.metrics["epsilon"]
                             for r in run_gaussian_sweep(0.5, 100, 100, config).rows])
        eps_large = np.mean([r.metrics["epsilon"]
                             for r in run_gaussian_sweep(0.5, 100, 10000, config).rows])
        assert eps_large < eps_small

    def test_zero_budget_identical_across_rules(self):
        config = small_gaussian_config(budget_fractions=(0.0, 0.5, 1.0))
        result = run_gaussian_sweep(0.5, 200, 200, config)
        for seed in config.seeds:
            a = result.cell("random", 0.0, seed).metrics["alpha"]
            b = result.cell("selective-gaussian", 0.0, seed).metrics["alpha"]
            assert a == b

    def test_deterministic_rerun(self):
        config = small_gaussian_config()
        r1 = run_gaussian_sweep(0.5, 300, 300, config)
        r2 = run_gaussian_sweep(0.5, 300, 300, config)
        assert r1.rows == r2.rows

    def test_alpha_remaining_derived_only_with_full_budget(self):
        with_full = run_gaussian_sweep(0.5, 100, 100, small_gaussian_config())
        assert "alpha_remaining" in with_full.metric_names
        row = with_full.cell("random", 1.0, 0)
        assert row.metrics["alpha_remaining"] == 0.0
        without = run_gaussian_sweep(
            0.5, 100, 100, small_gaussian_config(budget_fractions=(0.0, 0.5)))
        assert "alpha_remaining" not in without.metric_names

    def test_rejects_unknown_rule(self):
        config = small_gaussian_config(rules=("cos-mu2",))
        with pytest.raises(ValueError, match="supports rules"):
            run_gaussian_sweep(0.5, 100, 100, config)

    @staticmethod
    def reference_cells(mu2, n, config, refit):
        """Expected rows from a plan built from scratch for every cell;
        ``refit(x1, x2, plan, full)`` gives the cell's fit, where ``full`` is
        the from-scratch plan at f = n."""
        p1, p2 = GaussianModel.univariate(0.0, 1.0), GaussianModel.univariate(mu2, 1.0)
        expected = []
        for seed in config.seeds:
            gen = rnglib.generator(config.master_seed, "samples", seed)
            x1, x2 = gen.normal(0.0, 1.0, n), gen.normal(mu2, 1.0, n)
            for rule in config.rules:
                def plan_for(f):
                    if rule == "random":
                        return random_removal(
                            n, f, derive_seed(config.master_seed, "plan", rule, seed))
                    return selective_removal_gaussian(x1, x2, f)

                full = plan_for(n)
                cells = []
                for budget in config.budget_fractions:
                    f = int(round(budget * n))
                    plan = plan_for(f)
                    # every plan is the first f rows of the full plan
                    assert np.array_equal(plan.removed_indices, full.removed_indices[:f])
                    fit = refit(x1, x2, plan, full)
                    cells.append((budget, kl_gaussian(p1, fit), kl_gaussian(p2, fit), f))
                full = cells[-1][1]
                expected += [CellResult(rule=rule, budget_fraction=budget, seed=seed,
                                        metrics={"alpha": alpha, "epsilon": eps, "f": float(f),
                                                 "alpha_remaining": full - alpha})
                             for budget, alpha, eps, f in cells]
        return expected

    def test_matches_per_cell_reference(self):
        # Budget f refits on the rows its plan keeps, summed in deletion
        # order; budget 0 refits on the samples in sampled order.
        def refit(x1, x2, plan, full):
            f = plan.removed_indices.size
            return pooled_mle(x1[full.removed_indices[f:]] if f else x1, x2, 1.0)

        mu2, n = 0.5, 500
        config = small_gaussian_config(budget_fractions=(0.0, 0.1, 0.25, 0.5, 0.9, 1.0))
        expected = self.reference_cells(mu2, n, config, refit)
        assert run_gaussian_sweep(mu2, n, n, config).rows == expected

    def test_agrees_with_refit_in_sampled_order(self):
        # Summing the survivors in another order moves only the last bits.
        def refit(x1, x2, plan, full):
            return pooled_mle(np.delete(x1, plan.removed_indices), x2, 1.0)

        mu2, n = 0.5, 500
        config = small_gaussian_config(budget_fractions=(0.0, 0.1, 0.25, 0.5, 0.9, 1.0))
        expected = self.reference_cells(mu2, n, config, refit)
        rows = run_gaussian_sweep(mu2, n, n, config).rows
        assert [(r.rule, r.budget_fraction, r.seed) for r in rows] == \
            [(r.rule, r.budget_fraction, r.seed) for r in expected]
        for row, ref in zip(rows, expected):
            if row.budget_fraction in (0.0, 1.0):  # the same rows, in the same order
                assert row == ref
                continue
            assert row.metrics.keys() == ref.metrics.keys()
            for name in ("alpha", "epsilon", "f"):
                assert row.metrics[name] == pytest.approx(ref.metrics[name], rel=1e-13, abs=0)
            # alpha_remaining = alpha at full deletion (exact) minus alpha
            assert row.metrics["alpha_remaining"] == pytest.approx(
                ref.metrics["alpha_remaining"], rel=0, abs=1e-13 * ref.metrics["alpha"])

    def test_part_of_the_budget_grid_reproduces_its_cells(self):
        # Plans are prefixes of one ranking per (rule, seed), so a cell
        # does not depend on which other budgets the grid holds.
        full = small_gaussian_config(budget_fractions=tuple(round(0.05 * i, 2) for i in range(21)))
        part = small_gaussian_config(budget_fractions=(0.0, 0.5, 1.0))
        full_rows = run_gaussian_sweep(0.5, 400, 300, full)
        part_rows = run_gaussian_sweep(0.5, 400, 300, part).rows
        assert {row.rule for row in part_rows} == {"random", "selective-gaussian"}
        assert part_rows == [full_rows.cell(row.rule, row.budget_fraction, row.seed)
                             for row in part_rows]


def feature_dataset_with_mixed_labels(n1=30, n2=90, seed=0):
    """Forget/preserve tags cut across labels, so even full forget-side
    deletion leaves two classes to train on."""
    gen = np.random.default_rng(seed)
    feats = np.vstack([
        gen.normal(1.5, 1.0, size=(n1, 4)),
        gen.normal(-1.5, 1.0, size=(n2, 4)),
    ])
    labels = np.concatenate([
        (gen.random(n1) < 0.8).astype(int),
        (gen.random(n2) < 0.2).astype(int),
    ])
    group = np.array(["P1"] * n1 + ["P2"] * n2)
    return LabeledDataset(features=feats, labels=labels, group=group,
                          row_ids=np.arange(n1 + n2).astype(str))


class TestRunDatasetSweep:
    def test_zero_budget_identical_across_rules(self):
        corpus = two_cluster_corpus(n_p1=40, n_p2=160, seed=3)
        config = SweepConfig(rules=("random", "cos-mu2", "lr-cos"),
                             budget_fractions=(0.0,), seeds=(0, 1), master_seed=1)
        pipeline = PipelineConfig(tfidf=TfidfConfig(max_features=500, ngram_max=1),
                                  l2_strength=1e-3, max_iter=150)
        result = run_dataset_sweep(corpus, pipeline, config)
        for seed in (0, 1):
            values = {rule: result.cell(rule, 0.0, seed).metrics["recall_p1"]
                      for rule in config.rules}
            assert len(set(values.values())) == 1

    def test_full_budget_evaluation_still_defined(self):
        ds = feature_dataset_with_mixed_labels()
        config = SweepConfig(rules=("random",), budget_fractions=(1.0,),
                             seeds=(0,), master_seed=0)
        pipeline = PipelineConfig(l2_strength=1e-3, max_iter=300)
        result = run_dataset_sweep(ds, pipeline, config)
        row = result.rows[0]
        assert not row.failed
        assert row.metrics["recall_p1"] is not None

    def test_single_class_cell_recorded_as_failed(self):
        # labels coincide with groups: full deletion leaves one class
        corpus = two_cluster_corpus(n_p1=30, n_p2=120, seed=5)
        config = SweepConfig(rules=("random",), budget_fractions=(0.0, 1.0),
                             seeds=(0,), master_seed=0)
        pipeline = PipelineConfig(tfidf=TfidfConfig(max_features=300, ngram_max=1),
                                  l2_strength=1e-3, max_iter=100)
        result = run_dataset_sweep(corpus, pipeline, config)
        full = result.cell("random", 1.0, 0)
        assert full.failed
        assert "single class" in full.failure_reason
        assert not result.cell("random", 0.0, 0).failed

    def test_zero_norm_warning_reaches_the_caller(self):
        ds = feature_dataset_with_mixed_labels()
        features = ds.features.copy()
        features[:10] = 0.0  # a third of the forget rows, so some land in train
        ds = LabeledDataset(features=features, labels=ds.labels, group=ds.group,
                            row_ids=ds.row_ids)
        config = SweepConfig(rules=("cos-mu2",), budget_fractions=(0.0, 0.5),
                             seeds=(0,), master_seed=0)
        with pytest.warns(UserWarning, match="zero-norm"):
            result = run_dataset_sweep(ds, PipelineConfig(l2_strength=1e-3, max_iter=300), config)
        assert result.n_failed() == 0

    def test_scoring_failure_fails_every_budget_of_that_rule(self):
        ds = feature_dataset_with_mixed_labels()
        config = SweepConfig(rules=("random", "knn-ratio"), budget_fractions=(0.0, 0.5, 1.0),
                             seeds=(0, 1), master_seed=0, scoring=ScoringParams(k=10**6))
        result = run_dataset_sweep(ds, PipelineConfig(l2_strength=1e-3, max_iter=300), config)
        assert len(result.rows) == 12
        for row in result.rows:
            if row.rule == "knn-ratio":
                assert row.failed and row.metrics == {}
                assert row.failure_reason.startswith(f"scoring failed: k={10**6} ")
            else:
                assert not row.failed and row.metrics["recall_p1"] is not None

    @staticmethod
    def record_warm_starts(monkeypatch, cold=False):
        """Route the sweep's training through a wrapper that records whether
        each fit got a warm start; ``cold=True`` also drops it."""
        original = sweep.train_logistic
        warm = []

        def train(*args, init=None, **kwargs):
            warm.append(init is not None)
            return original(*args, init=None if cold else init, **kwargs)

        monkeypatch.setattr(sweep, "train_logistic", train)
        return warm

    def test_warm_and_cold_chains_agree(self, monkeypatch):
        # the criterion-11 text fixture
        corpus = two_cluster_corpus(n_p1=40, n_p2=160, seed=2)
        config = SweepConfig(rules=("random", "lr-cos"), budget_fractions=(0.0, 0.5),
                             seeds=(0, 1), master_seed=11)
        pipeline = PipelineConfig(tfidf=TfidfConfig(max_features=400, ngram_max=1),
                                  l2_strength=1e-3, max_iter=120)
        with monkeypatch.context() as patch:
            warm_starts = self.record_warm_starts(patch)
            warm = run_dataset_sweep(corpus, pipeline, config)
        # each (seed, rule) chain starts from zero, then from its last optimum
        assert warm_starts == [False, True] * 4
        self.record_warm_starts(monkeypatch, cold=True)
        cold = run_dataset_sweep(corpus, pipeline, config)
        assert len(warm.rows) == len(cold.rows) == 8
        # Both fits stop at gradient norm <= tol (1e-6 here), so log-loss
        # agrees to the order of tol; the largest gap measured is 1.8e-6.
        for a, b in zip(warm.rows, cold.rows):
            assert (a.rule, a.budget_fraction, a.seed) == (b.rule, b.budget_fraction, b.seed)
            assert a.metrics["recall_p1"] == b.metrics["recall_p1"]
            assert a.metrics["macro_f1_p2"] == b.metrics["macro_f1_p2"]
            assert abs(a.metrics["logloss"] - b.metrics["logloss"]) <= 10 * pipeline.tol

    def test_class_change_restarts_from_zero(self, monkeypatch):
        # class 2 occurs only among forget rows, so full deletion drops it
        ds = feature_dataset_with_mixed_labels()
        labels = ds.labels.copy()
        labels[:30:3] = 2
        ds = LabeledDataset(features=ds.features, labels=labels, group=ds.group,
                            row_ids=ds.row_ids)
        config = SweepConfig(rules=("random",), budget_fractions=(0.0, 0.5, 1.0),
                             seeds=(0,), master_seed=0)
        warm_starts = self.record_warm_starts(monkeypatch)
        result = run_dataset_sweep(ds, PipelineConfig(l2_strength=1e-3, max_iter=300), config)
        assert result.n_failed() == 0
        assert warm_starts == [False, True, False]

    @pytest.mark.parametrize("source", [
        TextCorpus(ids=("a", "b"), labels=(1, 0), texts=("red fox", "blue whale")),
        LabeledDataset(features=np.eye(2), labels=[1, 0], group=["P1", "P2"],
                       row_ids=["a", "b"]),
    ])
    def test_two_row_source_names_the_empty_validation_split(self, source):
        # every stratum has one row, so every row goes to train
        with pytest.warns(UserWarning, match="stratum"):
            with pytest.raises(ValueError, match="validation split is empty"):
                if isinstance(source, TextCorpus):
                    labels, group = forget_tags(source, 1)
                    split_row_positions(group, labels, 0.7, 0)
                else:
                    split_stratified(source, 0.7, 0)

    def test_source_without_forget_rows_rejected(self):
        config = SweepConfig(rules=("random",), budget_fractions=(0.0,), seeds=(0,))
        corpus = two_cluster_corpus(n_p1=30, n_p2=120, seed=7)
        with pytest.raises(ValueError, match=r"^0 forget row\(s\) carry pipeline.p1_label=5, "
                                             r"need at least 2; the labels present are "
                                             r"\[0, 1\]$"):
            run_dataset_sweep(corpus, PipelineConfig(p1_label=5), config)
        # a lone forget document would go to train, leaving recall_p1 undefined
        lone = two_cluster_corpus(n_p1=1, n_p2=120, seed=7)
        with pytest.raises(ValueError, match=r"^1 forget row\(s\) carry pipeline.p1_label=1"):
            run_dataset_sweep(lone, PipelineConfig(), config)
        ds = feature_dataset_with_mixed_labels()
        preserve_only = ds.subset(ds.p2_positions())
        with pytest.raises(ValueError, match=r"^0 forget row\(s\) carry pipeline.p1_label=1"):
            run_dataset_sweep(preserve_only, PipelineConfig(), config)

    def test_deterministic_rerun(self):
        corpus = two_cluster_corpus(n_p1=30, n_p2=120, seed=7)
        config = SweepConfig(rules=("random", "lr-cos"),
                             budget_fractions=(0.0, 0.5), seeds=(0, 1), master_seed=3)
        pipeline = PipelineConfig(tfidf=TfidfConfig(max_features=300, ngram_max=1),
                                  l2_strength=1e-3, max_iter=100)
        a = run_dataset_sweep(corpus, pipeline, config)
        b = run_dataset_sweep(corpus, pipeline, config)
        assert a.rows == b.rows


@pytest.mark.parametrize("call, match", [
    (lambda: SweepConfig(rules=("random",), budget_fractions=(), seeds=(0,)),
     "at least one budget fraction"),
    (lambda: run_gaussian_sweep(float("inf"), 10, 10, small_gaussian_config()),
     "mu2 must be finite"),
    (lambda: budget_to_reach(fabricated_result({0.0: 1.0}), "r", "m", 0.5, "sideways"),
     "direction must be 'down' or 'up'"),
    (lambda: budget_to_reach(fabricated_result({0.0: 1.0}), "other", "m", 0.5),
     "no cells for rule 'other' with metric 'm'"),
])
def test_sweep_inputs_rejected(call, match):
    with pytest.raises(ValueError, match=match):
        call()


class TestBudgetAnalysis:
    def test_constant_metric_not_reached(self):
        result = fabricated_result({0.0: 1.0, 0.5: 1.0, 1.0: 1.0})
        assert half_target_budget(result, "r", "m") is None

    def test_exact_halving_at_swept_point(self):
        result = fabricated_result({0.0: 1.0, 0.4: 0.5, 0.8: 0.2})
        assert half_target_budget(result, "r", "m") == pytest.approx(0.4)

    def test_linear_interpolation_between_points(self):
        result = fabricated_result({0.0: 1.0, 0.5: 0.75, 1.0: 0.25})
        # target 0.5 crossed between 0.5 and 1.0: 0.5 + 0.5 * (0.25/0.5)
        assert half_target_budget(result, "r", "m") == pytest.approx(0.75)

    def test_missing_budget_zero_rejected(self):
        result = fabricated_result({0.5: 1.0, 1.0: 0.2})
        with pytest.raises(ValueError, match="budget-0"):
            half_target_budget(result, "r", "m")

    def test_missing_budget_zero_names_the_metric(self):
        result = fabricated_result({0.0: None, 0.5: 1.0})
        with pytest.raises(ValueError, match="no budget-0 value of 'm' for rule 'r'"):
            half_target_budget(result, "r", "m")

    def test_budget_to_reach_up_direction(self):
        result = fabricated_result({0.0: 0.0, 0.5: 0.2, 1.0: 0.6})
        assert budget_to_reach(result, "r", "m", 0.4, "up") == pytest.approx(0.75)

    def test_refining_grid_never_moves_crossing_later_by_more_than_a_step(self):
        def metric(b):
            return max(0.0, 1.0 - 1.3 * b)

        coarse_grid = [0.0, 0.2, 0.4, 0.6, 0.8, 1.0]
        fine_grid = [round(0.1 * i, 2) for i in range(11)]
        coarse = fabricated_result({b: metric(b) for b in coarse_grid})
        fine = fabricated_result({b: metric(b) for b in fine_grid})
        hc = half_target_budget(coarse, "r", "m")
        hf = half_target_budget(fine, "r", "m")
        assert hf <= hc + 0.2 + 1e-12

    def test_saving_identical_rules_is_zero(self):
        result = fabricated_result({0.0: 1.0, 0.5: 0.4, 1.0: 0.1})
        assert saving(result, "r", "r", "m") == pytest.approx(0.0)

    def test_saving_reference_ratio(self):
        rows = []
        for budget, value in {0.0: 1.0, 0.18: 0.5, 0.65: 0.5, 1.0: 0.1}.items():
            rows.append(CellResult(rule="fast", budget_fraction=budget, seed=0,
                                   metrics={"m": value if budget != 0.65 else 0.4}))
        # fast rule halves at 0.18; slow rule halves at 0.65
        slow = {0.0: 1.0, 0.18: 0.9, 0.65: 0.5, 1.0: 0.1}
        for budget, value in slow.items():
            rows.append(CellResult(rule="slow", budget_fraction=budget, seed=0,
                                   metrics={"m": value}))
        result = SweepResult(rows=rows, metric_names=("m",))
        value = saving(result, "slow", "fast", "m")
        assert value == pytest.approx(1.0 - 0.18 / 0.65, abs=1e-12)

    def test_budget_to_reach_at_first_swept_budget(self):
        result = fabricated_result({0.2: 1.0, 0.6: 0.5})
        assert budget_to_reach(result, "r", "m", 1.5) == 0.2
        assert budget_to_reach(result, "r", "m", 0.2, "up") == 0.2

    def test_saving_undefined_for_zero_baseline_budget(self):
        # The baseline's metric starts at 0, so budget 0 meets its half target.
        rows = fabricated_result({0.0: 0.0, 1.0: 0.0}, rule="base").rows
        rows += fabricated_result({0.0: 1.0, 1.0: 0.2}).rows
        result = SweepResult(rows=rows, metric_names=("m",))
        with pytest.warns(UserWarning, match="baseline half-target budget is zero"):
            assert saving(result, "base", "r", "m") is None

    def test_cell_missing_raises_key_error(self):
        result = fabricated_result({0.0: 1.0})
        assert result.cell("r", 0.0, 0).metrics == {"m": 1.0}
        for coords in (("r", 0.5, 0), ("r", 0.0, 1), ("q", 0.0, 0)):
            with pytest.raises(KeyError):
                result.cell(*coords)

    def test_saving_undefined_when_not_reached(self):
        result = fabricated_result({0.0: 1.0, 1.0: 0.9})
        assert saving(result, "r", "r", "m") is None

    def test_failed_cells_excluded_from_aggregates(self):
        rows = [
            CellResult(rule="r", budget_fraction=0.0, seed=0, metrics={"m": 1.0}),
            CellResult(rule="r", budget_fraction=0.0, seed=1, metrics={},
                       failure_reason="boom"),
        ]
        result = SweepResult(rows=rows, metric_names=("m",))
        assert result.rows[1].failed and not result.rows[0].failed
        agg = result.aggregate("m")
        assert agg == {("r", 0.0): 1.0}
        assert type(agg[("r", 0.0)]) is float

    def test_aggregate_skips_none_and_nan_values(self):
        # recall_p1 is None when a validation slice has no positive row.
        rows = [
            CellResult(rule="r", budget_fraction=0.0, seed=0, metrics={"m": 0.25}),
            CellResult(rule="r", budget_fraction=0.0, seed=1, metrics={"m": None}),
            CellResult(rule="r", budget_fraction=0.0, seed=2, metrics={"m": float("nan")}),
            CellResult(rule="r", budget_fraction=0.0, seed=3, metrics={"m": 0.75}),
            CellResult(rule="r", budget_fraction=0.5, seed=0, metrics={"m": None}),
            CellResult(rule="r", budget_fraction=0.5, seed=1, metrics={"m": np.nan}),
            CellResult(rule="r", budget_fraction=1.0, seed=0, metrics={}),
        ]
        result = SweepResult(rows=rows, metric_names=("m",))
        assert result.n_failed() == 0
        assert result.aggregate("m") == {("r", 0.0): 0.5}


class TestEmit:
    def test_csv_round_trip(self, tmp_path):
        config = small_gaussian_config(seeds=(0,), budget_fractions=(0.0, 1.0))
        result = run_gaussian_sweep(0.5, 50, 50, config)
        path = tmp_path / "out.csv"
        emit(result, "csv", path)
        lines = path.read_text().splitlines()
        header = lines[0].split(",")
        assert header[:3] == ["rule", "budget_fraction", "seed"]
        first = dict(zip(header, lines[1].split(",")))
        row = result.cell(first["rule"], float(first["budget_fraction"]), int(first["seed"]))
        assert float(first["alpha"]) == row.metrics["alpha"]

    def test_csv_quotes_awkward_failure_reason(self, tmp_path):
        reason = 'k=11 out of range: need 1 <= k <= min(|p1|-1, |p2|) = 10\nsee "k"'
        result = SweepResult(
            rows=[CellResult(rule="knn-ratio", budget_fraction=0.5, seed=0, metrics={},
                             failure_reason=reason),
                  CellResult(rule="random", budget_fraction=0.5, seed=0, metrics={"m": 0.25})],
            metric_names=("m",))
        path = tmp_path / "out.csv"
        emit(result, "csv", path)
        with open(path, newline="", encoding="utf-8") as fh:
            parsed = list(csv.reader(fh))
        assert parsed == [
            ["rule", "budget_fraction", "seed", "failed", "failure_reason", "m"],
            ["knn-ratio", "0.5", "0", "true", reason, ""],
            ["random", "0.5", "0", "false", "", "0.25"],
        ]
        assert path.read_text().endswith("\nrandom,0.5,0,false,,0.25\n")

    def test_reruns_byte_identical(self, tmp_path):
        config = small_gaussian_config()
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        emit(run_gaussian_sweep(0.5, 100, 100, config), "csv", a)
        emit(run_gaussian_sweep(0.5, 100, 100, config), "csv", b)
        assert a.read_bytes() == b.read_bytes()

    def test_empty_rows_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_rows([], "csv", path, ["x", "y"])
        assert path.read_text() == "x,y\n"

    def test_json_lines(self, tmp_path):
        import json

        path = tmp_path / "out.jsonl"
        write_rows([{"a": 1.5, "b": "text", "c": None, "d": True}], "json-lines", path,
                   ["a", "b", "c", "d"])
        record = json.loads(path.read_text().splitlines()[0])
        assert record == {"a": 1.5, "b": "text", "c": None, "d": True}

    @given(st.lists(st.one_of(st.none(), st.booleans(), st.integers(), st.floats(),
                              st.text(), st.booleans().map(np.bool_),
                              st.integers(-2**63, 2**63 - 1).map(np.int64),
                              st.floats().map(np.float64), st.floats(width=32).map(np.float32)),
                    min_size=1, max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_round_trip_both_formats(self, tmp_path_factory, values):
        import json

        fields = [f"c{i}" for i in range(len(values))]
        expected = [v.item() if isinstance(v, np.generic) else v for v in values]
        directory = tmp_path_factory.mktemp("emit")
        write_rows([dict(zip(fields, values))], "json-lines", directory / "out.jsonl", fields)
        write_rows([dict(zip(fields, values))], "csv", directory / "out.csv", fields)
        lines = (directory / "out.jsonl").read_text(encoding="utf-8").splitlines()
        assert len(lines) == 1
        record = json.loads(lines[0])
        assert list(record) == fields
        with open(directory / "out.csv", newline="", encoding="utf-8") as fh:
            header, cells = list(csv.reader(fh))
        assert header == fields
        for want, got, cell in zip(expected, record.values(), cells):
            # CSV carries no types: each column is read as its writer's type.
            if want is None:
                from_csv = None if cell == "" else cell
            elif isinstance(want, bool):
                from_csv = {"true": True, "false": False}.get(cell, cell)
            else:
                from_csv = type(want)(cell)
            for parsed in (got, from_csv):
                assert type(parsed) is type(want)
                assert parsed == want or (want != want and parsed != parsed)

    def test_seventeen_digit_floats(self, tmp_path):
        value = 0.1234567890123456789
        path = tmp_path / "out.csv"
        write_rows([{"x": value}], "csv", path, ["x"])
        parsed = float(path.read_text().splitlines()[1])
        assert parsed == value

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown format"):
            write_rows([{"x": 1}], "parquet", tmp_path / "o", ["x"])
