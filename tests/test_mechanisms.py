import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from distunlearn import mechanisms
from distunlearn.data_io import LabeledDataset
from distunlearn.mechanisms import (
    FEATURE_RULES,
    RemovalPlan,
    ScoringParams,
    apply_plan,
    plan_from_scores,
    random_removal,
    score_features,
    selective_removal_gaussian,
)


def make_dataset(n1=4, n2=6, d=3, seed=0):
    gen = np.random.default_rng(seed)
    feats = gen.normal(size=(n1 + n2, d))
    labels = np.concatenate([np.ones(n1, dtype=int), np.zeros(n2, dtype=int)])
    group = np.array(["P1"] * n1 + ["P2"] * n2)
    ids = np.array([f"row{i}" for i in range(n1 + n2)], dtype=object)
    return LabeledDataset(features=feats, labels=labels, group=group, row_ids=ids)


class TestRemovalPlan:
    # A plan is checked where it meets a dataset, in apply_plan.
    def test_rejects_duplicate_indices(self):
        plan = RemovalPlan(rule="random", removed_indices=(1, 1))
        with pytest.raises(ValueError, match="distinct"):
            apply_plan(make_dataset(), plan)

    @pytest.mark.parametrize("container", [tuple, np.array])
    @pytest.mark.parametrize("indices, match", [
        ((1, 1), "distinct"),
        ((2, 0, 2), "distinct"),
        ((0, -1), "non-negative"),
        ((2**40, 0), "out of range"),
    ])
    def test_errors_for_tuple_and_array(self, container, indices, match):
        ds = make_dataset(n1=3)
        plan = RemovalPlan(rule="random", removed_indices=container(indices))
        with pytest.raises(ValueError, match=match):
            apply_plan(ds, plan)

    def test_far_out_distinct_indices_accepted(self):
        plan = RemovalPlan(rule="random", removed_indices=(2**40, 0))
        assert plan.removed_indices.tolist() == [2**40, 0]

    def test_indices_are_a_read_only_int64_copy(self):
        source = np.array([4, 2, 7])
        plan = RemovalPlan(rule="random", removed_indices=source)
        source[0] = 0
        assert plan.removed_indices.dtype == np.int64
        assert plan.removed_indices.tolist() == [4, 2, 7]
        with pytest.raises(ValueError, match="read-only"):
            plan.removed_indices[0] = 1


@pytest.mark.parametrize("call, match", [
    (lambda: random_removal(-1, 0, seed=0), "n1 must be >= 0"),
    (lambda: selective_removal_gaussian([1.0, 2.0], [0.0], -1), "f=-1 must satisfy 0 <= f <= 2"),
    (lambda: plan_from_scores(score_features(np.diag([1.0, 2.0, 3.0]), None, "norm"), "norm", 4),
     "f=4 must satisfy 0 <= f <= 3"),
    (lambda: score_features(np.ones((2, 2, 2)), None, "norm"), "must be 2-d"),
    (lambda: score_features(np.eye(2), np.ones((1, 2)), "maha-mu2"),
     "at least 2 preserve-side rows"),
    (lambda: score_features(np.empty((0, 2)), np.eye(2), "cos-mu2"), "features_p1 has no rows"),
    (lambda: score_features(np.eye(2), np.ones((2, 3)), "cos-mu2"), "dimension mismatch"),
    (lambda: score_features(np.eye(3), np.eye(3), "knn-ratio", ScoringParams(k=1, sigma=0.0)),
     "sigma must be positive"),
    (lambda: score_features(np.tile([1.0, 0.0], (3, 1)), np.tile([1.0, 0.0], (3, 1)),
                            "knn-ratio", ScoringParams(k=1)), "median pairwise distance is 0"),
    (lambda: score_features(np.array([[np.nan, 0.0], [1.0, 0.0]]), None, "norm"),
     "non-finite scores"),
    # scoring knobs that no rule can use
    (lambda: ScoringParams(sigma=-1.0), "sigma must be positive and finite, got -1.0"),
    (lambda: ScoringParams(sigma=math.nan), "sigma must be positive and finite, got nan"),
    (lambda: ScoringParams(sigma=math.inf), "sigma must be positive and finite, got inf"),
    (lambda: ScoringParams(ridge_scale=-1.0), "ridge_scale must be >= 0 and finite, got -1.0"),
    (lambda: ScoringParams(ridge_scale=math.nan), "ridge_scale must be >= 0 and finite, got nan"),
    (lambda: ScoringParams(ridge_scale=math.inf), "ridge_scale must be >= 0 and finite, got inf"),
    # a bandwidth so wide that every score is exactly 1; sigma = 1e200
    # squares to inf
    (lambda: score_features(np.array([[0.0], [1.0], [3.0]]), np.array([[0.5], [4.0]]),
                            "knn-ratio", ScoringParams(k=1, sigma=1e150)),
     r"'knn-ratio' cannot rank these rows: .* at sigma=1e\+150"),
    (lambda: score_features(np.array([[0.0], [1.0], [3.0]]), np.array([[0.5], [4.0]]),
                            "knn-ratio", ScoringParams(k=1, sigma=1e200)),
     r"'knn-ratio' cannot rank these rows: .* at sigma=1e\+200"),
])
def test_mechanism_inputs_rejected(call, match):
    with pytest.raises(ValueError, match=match):
        call()


class TestRandomRemoval:
    def test_zero_budget(self):
        assert random_removal(5, 0, seed=7).removed_indices.tolist() == []

    def test_full_deletion(self):
        plan = random_removal(5, 5, seed=7)
        assert sorted(plan.removed_indices) == [0, 1, 2, 3, 4]

    def test_deterministic(self):
        a = random_removal(1000, 100, seed=1)
        b = random_removal(1000, 100, seed=1)
        assert a.rule == b.rule
        assert np.array_equal(a.removed_indices, b.removed_indices)

    def test_seed_changes_selection(self):
        a = random_removal(1000, 100, seed=1)
        b = random_removal(1000, 100, seed=2)
        assert not np.array_equal(a.removed_indices, b.removed_indices)

    def test_rejects_overdraw(self):
        with pytest.raises(ValueError):
            random_removal(5, 6, seed=0)

    def test_plans_are_prefixes_of_the_full_order(self):
        full = random_removal(40, 40, seed=3).removed_indices
        for f in range(41):
            assert np.array_equal(random_removal(40, f, seed=3).removed_indices, full[:f])

    def test_roughly_uniform(self):
        counts = np.zeros(20)
        for seed in range(300):
            for i in random_removal(20, 5, seed=seed).removed_indices:
                counts[i] += 1
        # each index expected 75 times
        assert counts.min() > 40 and counts.max() < 115


class TestSelectiveRemoval:
    def test_farthest_point_removed(self):
        plan = selective_removal_gaussian([0.1, 5.0, -0.2], [0.0, 0.0], 1)
        assert plan.removed_indices == (1,)

    def test_tie_breaks_to_lower_index(self):
        plan = selective_removal_gaussian([1.0, -1.0], [0.0], 1)
        assert plan.removed_indices == (0,)

    def test_against_full_sort_oracle(self):
        gen = np.random.default_rng(42)
        x1 = gen.normal(0, 1, 200)
        x2 = gen.normal(0.5, 1, 50)
        plan = selective_removal_gaussian(x1, x2, 50)
        scores = np.abs(x1 - x2.mean())
        oracle = set(sorted(range(200), key=lambda i: (-scores[i], i))[:50])
        assert set(plan.removed_indices) == oracle

    def test_nested_in_budget(self):
        gen = np.random.default_rng(1)
        x1 = gen.normal(0, 1, 60)
        x2 = gen.normal(1, 1, 30)
        previous = set()
        for f in range(0, 61, 5):
            current = set(selective_removal_gaussian(x1, x2, f).removed_indices)
            assert previous <= current
            previous = current

    def test_empty_p2_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            selective_removal_gaussian([1.0], [], 1)

    def test_rows_of_a_matrix_rejected(self):
        # Raveled, a 5 x 3 matrix would yield indices past its 5 rows.
        x1 = np.arange(15.0).reshape(5, 3)
        with pytest.raises(ValueError, match=r"\(5, 3\)"):
            selective_removal_gaussian(x1, [0.0, 1.0], 4)
        with pytest.raises(ValueError, match=r"\(2, 1\)"):
            selective_removal_gaussian([1.0, 2.0], [[0.0], [1.0]], 1)

    def test_selective_mean_closer_than_random(self):
        # expectation over seeds: surviving selective mean hugs the preserve
        # mean at least as closely as surviving random mean
        gaps_selective, gaps_random = [], []
        for seed in range(200):
            gen = np.random.default_rng(seed)
            x1 = gen.normal(0.0, 1.0, 100)
            x2 = gen.normal(0.5, 1.0, 100)
            mu2_hat = x2.mean()
            f = 40
            sel = selective_removal_gaussian(x1, x2, f)
            kept_sel = np.delete(x1, np.asarray(sel.removed_indices, dtype=int))
            rnd = random_removal(100, f, seed=seed)
            kept_rnd = np.delete(x1, np.asarray(rnd.removed_indices, dtype=int))
            gaps_selective.append(abs(kept_sel.mean() - mu2_hat))
            gaps_random.append(abs(kept_rnd.mean() - mu2_hat))
        assert np.mean(gaps_selective) <= np.mean(gaps_random)


class TestScoreFeatures:
    def test_norm_rule(self):
        rows = np.array([[3.0, 4.0], [0.0, 0.0], [1.0, 0.0]])
        scored = score_features(rows, np.zeros((1, 2)), "norm")
        assert [s.score for s in scored] == [5.0, 0.0, 1.0]

    @pytest.mark.parametrize("rows", [
        np.array([[3.0, 4.0], [0.0, 5.0], [5.0, 0.0]]),  # equal lengths: plans in row order
        np.array([[0.6, 0.8], [1.0, 2.0 ** -52], [0.0, 1.0]]),  # lengths 1 up to rounding
        np.zeros((2, 2)),
    ])
    def test_norm_rejects_rows_of_one_length(self, rows):
        with pytest.raises(ValueError, match="rule 'norm' cannot rank these rows"):
            score_features(rows, None, "norm")

    def test_norm_ranks_lengths_apart_by_more_than_rounding(self):
        scored = score_features(np.array([[1.0], [1.0 + 1e-11]]), None, "norm")
        assert plan_from_scores(scored, "norm", 1).removed_indices.tolist() == [1]

    def test_norm_aliases(self):
        # Each rule has one name; the former aliases of norm are unknown rules.
        rows = np.array([[3.0, 4.0]])
        for alias in ("tfidf-norm", "l2-norm"):
            with pytest.raises(ValueError, match=f"unknown scoring rule '{alias}'; known: .*'norm'"):
                score_features(rows, rows, alias)

    def test_cosine_distance_endpoints(self):
        p1 = np.array([[1.0, 0.0], [-1.0, 0.0]])
        p2 = np.array([[2.0, 0.0], [0.0, 0.0]])
        scored = score_features(p1, p2, "cos-mu2")
        assert scored[0].score == pytest.approx(0.0, abs=1e-12)
        assert scored[1].score == pytest.approx(2.0, abs=1e-12)

    def test_zero_norm_row_flagged(self):
        p1 = np.array([[0.0, 0.0], [1.0, 0.0]])
        p2 = np.array([[1.0, 0.0]])
        with pytest.warns(UserWarning, match="zero-norm"):
            scored = score_features(p1, p2, "cos-mu2")
        assert scored[0].score == 0.0
        assert scored[0].zero_norm
        assert not scored[1].zero_norm

    def test_zero_preserve_mean_flags_every_row_once(self):
        p1 = np.array([[1.0, 0.0], [0.0, 2.0], [0.0, 0.0]])
        with pytest.warns(UserWarning) as record:
            scored = score_features(p1, np.zeros((2, 2)), "cos-mu2")
        assert len(record) == 1 and "3 zero-norm row(s)" in str(record[0].message)
        assert [(s.score, s.zero_norm) for s in scored] == [(0.0, True)] * 3

    def test_lr_cos_prefers_far_from_preserve_close_to_forget(self):
        p1 = np.array([[1.0, 0.0], [0.0, 1.0]])
        p2 = np.array([[0.0, 1.0]])
        scored = score_features(p1, p2, "lr-cos")
        assert scored[0].score > scored[1].score

    def test_knn_ratio_hand_computed(self):
        # query 0.0: own-pool neighbor (self excluded) at distance 1,
        # preserve neighbor at distance 3 -> exp(-1)/exp(-9) = e^8
        p1 = np.array([[0.0], [1.0]])
        p2 = np.array([[3.0]])
        scored = score_features(p1, p2, "knn-ratio", ScoringParams(k=1, sigma=1.0))
        assert scored[0].score == pytest.approx(math.exp(8.0), rel=1e-12)

    def test_knn_k_out_of_range(self):
        p1 = np.zeros((3, 2))
        p2 = np.zeros((2, 2))
        with pytest.raises(ValueError, match="out of range"):
            score_features(p1, p2, "knn-ratio", ScoringParams(k=3))

    @pytest.mark.parametrize("cap", [1, 0, -5])
    def test_knn_bandwidth_cap_below_two_rejected(self, cap):
        gen = np.random.default_rng(0)
        p1, p2 = gen.normal(size=(6, 2)), gen.normal(size=(6, 2))
        with pytest.raises(ValueError, match=f"bandwidth_cap={cap} .*need bandwidth_cap >= 2"):
            score_features(p1, p2, "knn-ratio", ScoringParams(k=2, bandwidth_cap=cap))
        # A given bandwidth needs no estimate, so the cap is not read.
        score_features(p1, p2, "knn-ratio", ScoringParams(k=2, sigma=1.0, bandwidth_cap=cap))

    def test_knn_default_bandwidth_deterministic(self):
        gen = np.random.default_rng(0)
        p1 = gen.normal(size=(20, 3))
        p2 = gen.normal(size=(30, 3))
        a = score_features(p1, p2, "knn-ratio", ScoringParams(k=5))
        b = score_features(p1, p2, "knn-ratio", ScoringParams(k=5))
        assert np.array_equal(a, b)

    @settings(max_examples=200, deadline=None)
    @given(value=st.one_of(st.just(0.0), st.floats(1e-50, 1e50), st.floats(-1e50, -1e-50)),
           dim=st.integers(1, 300), n1=st.integers(3, 12), n2=st.integers(2, 12),
           sparse=st.booleans())
    @example(value=1.0, dim=2, n1=5, n2=5, sparse=False)
    @example(value=0.3, dim=3, n1=5, n2=5, sparse=False)
    @example(value=0.1, dim=2, n1=5, n2=5, sparse=False)
    @example(value=0.7, dim=2000, n1=6, n2=6, sparse=False)
    @example(value=0.7, dim=2000, n1=6, n2=6, sparse=True)
    def test_knn_ratio_rejects_every_pool_of_identical_rows(self, value, dim, n1, n2, sparse):
        # Rounding in the distance expansion leaves identical rows a few
        # d * eps * |x|^2 apart, which the bandwidth must not read as spread.
        p1, p2 = np.full((n1, dim), value), np.full((n2, dim), value)
        if sparse:
            p1, p2 = sp.csr_matrix(p1), sp.csr_matrix(p2)
        with pytest.raises(ValueError, match="degenerate pooled dataset"):
            score_features(p1, p2, "knn-ratio", ScoringParams(k=2))

    def test_mahalanobis_matches_direct_computation(self):
        gen = np.random.default_rng(3)
        p1 = gen.normal(size=(5, 3))
        p2 = gen.normal(size=(50, 3))
        params = ScoringParams(ridge_scale=1e-6)
        scored = score_features(p1, p2, "maha-mu2", params)
        cov = np.cov(p2, rowvar=False)
        cov += 1e-6 * np.trace(cov) / 3 * np.eye(3)
        inv = np.linalg.inv(cov)
        mu2 = p2.mean(axis=0)
        for sample, row in zip(scored, p1):
            expected = math.sqrt((row - mu2) @ inv @ (row - mu2))
            assert sample.score == pytest.approx(expected, rel=1e-9)

    def test_mahalanobis_singular_repaired_by_ridge(self):
        # rank-deficient preserve covariance: ridge keeps it solvable
        p2 = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        p1 = np.array([[1.0, 0.0]])
        scored = score_features(p1, p2, "maha-mu2")
        assert np.isfinite(scored[0].score)

    def test_degenerate_identical_rows_rejected(self):
        p2 = np.ones((3, 2))
        p1 = np.array([[1.0, 0.0]])
        with pytest.raises(ValueError, match="singular|ridge"):
            score_features(p1, p2, "maha-mu2")

    def test_lr_maha_is_difference_of_distances(self):
        gen = np.random.default_rng(5)
        p1 = gen.normal(1.0, 1.0, size=(10, 2))
        p2 = gen.normal(0.0, 1.0, size=(40, 2))
        lr = score_features(p1, p2, "lr-maha")
        to_p2 = score_features(p1, p2, "maha-mu2")
        cov = np.cov(p2, rowvar=False)
        cov += 1e-6 * np.trace(cov) / 2 * np.eye(2)
        inv = np.linalg.inv(cov)
        mu1 = p1.mean(axis=0)
        for s_lr, s_d2, row in zip(lr, to_p2, p1):
            d1 = math.sqrt((row - mu1) @ inv @ (row - mu1))
            assert s_lr.score == pytest.approx(s_d2.score - d1, rel=1e-9, abs=1e-12)

    def test_score_length_matches_p1_rows_for_every_rule(self):
        gen = np.random.default_rng(8)
        p1 = gen.normal(size=(12, 4))
        p2 = gen.normal(size=(25, 4))
        for rule in FEATURE_RULES:
            scored = score_features(p1, p2, rule, ScoringParams(k=4))
            assert len(scored) == 12
            assert scored.score.dtype == np.float64
            assert scored.zero_norm.dtype == np.bool_

    def test_sparse_input_matches_dense(self):
        gen = np.random.default_rng(2)
        p1 = gen.normal(size=(8, 5)) * (gen.random((8, 5)) > 0.5)
        p2 = gen.normal(size=(15, 5)) * (gen.random((15, 5)) > 0.5)
        for rule in ("norm", "cos-mu2", "lr-cos"):
            dense = [s.score for s in score_features(p1, p2, rule)]
            sparse = [s.score for s in
                      score_features(sp.csr_matrix(p1), sp.csr_matrix(p2), rule)]
            assert sparse == pytest.approx(dense, rel=1e-12, abs=1e-12)

    def test_unknown_rule_rejected(self):
        with pytest.raises(ValueError, match="unknown scoring rule"):
            score_features(np.zeros((1, 1)), np.zeros((1, 1)), "entropy")

    def test_empty_p2_rejected_when_needed(self):
        with pytest.raises(ValueError, match="non-empty"):
            score_features(np.ones((2, 2)), np.empty((0, 2)), "cos-mu2")


def dense_squared_distances(a, b):
    """Full (n_a, n_b) squared-distance matrix: the formula the blocks use."""
    a, b = mechanisms._dense(a), mechanisms._dense(b)
    d2 = (np.linalg.norm(a, axis=1) ** 2)[:, None] + (np.linalg.norm(b, axis=1) ** 2)[None, :]
    d2 = d2 - 2.0 * (a @ b.T)
    return np.maximum(d2, 0.0)


def dense_kth_nearest(a, b, k, exclude_self=False):
    d2 = dense_squared_distances(a, b)
    if exclude_self:
        np.fill_diagonal(d2, np.inf)
    return np.sort(d2, axis=1)[:, k - 1]


def dense_median_pairwise(pooled, cap):
    n = pooled.shape[0]
    if n > cap:
        pooled = pooled[np.unique(np.linspace(0, n - 1, cap).round().astype(int))]
        n = pooled.shape[0]
    iu = np.triu_indices(n, k=1)
    if iu[0].size == 0:
        return 1.0
    return float(np.median(np.sqrt(dense_squared_distances(pooled, pooled)[iu])))


class TestDistanceBlocks:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_blocked_matches_dense_reference(self, data):
        # Halves in [-4, 4] keep every product and sum exact, so any
        # difference from the reference comes from the block bookkeeping.
        n1 = data.draw(st.integers(2, 12))
        n2 = data.draw(st.integers(1, 12))
        d = data.draw(st.integers(1, 4))
        halves = st.integers(-8, 8).map(lambda v: v / 2.0)
        x1 = np.array(data.draw(st.lists(halves, min_size=n1 * d, max_size=n1 * d))).reshape(n1, d)
        x2 = np.array(data.draw(st.lists(halves, min_size=n2 * d, max_size=n2 * d))).reshape(n2, d)
        k = data.draw(st.integers(1, min(n1 - 1, n2)))
        cap = data.draw(st.integers(2, n1 + n2 + 2))
        pooled = np.vstack([x1, x2])
        expected = (dense_kth_nearest(x1, x1, k, exclude_self=True),
                    dense_kth_nearest(x1, x2, k), dense_median_pairwise(pooled, cap))
        if data.draw(st.booleans()):
            x1, x2, pooled = sp.csr_matrix(x1), sp.csr_matrix(x2), sp.csr_matrix(pooled)
        # A few rows per block, with a partial last block.
        with mock.patch.object(mechanisms, "_BLOCK_VALUES", data.draw(st.integers(1, 40))):
            own = mechanisms._kth_nearest(x1, x1, k, exclude_self=True)
            cross = mechanisms._kth_nearest(x1, x2, k)
            sigma = mechanisms._median_pairwise_distance(pooled, cap)
        np.testing.assert_allclose(own, expected[0], rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(cross, expected[1], rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(sigma, expected[2], rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("cap, rows", [(9, 2), (8, 2), (3, 1)])
    def test_blocks_cover_rows_within_the_cap(self, cap, rows):
        # One row per block when a single row of 4 distances exceeds the cap.
        a = np.arange(14.0).reshape(7, 2)
        with mock.patch.object(mechanisms, "_BLOCK_VALUES", cap):
            spans = [(lo, hi, block.shape) for lo, hi, block in
                     mechanisms._squared_distance_blocks(a, a[:4])]
        bounds = [(lo, min(lo + rows, 7)) for lo in range(0, 7, rows)]
        assert spans == [(lo, hi, (hi - lo, 4)) for lo, hi in bounds]

    def test_knn_ratio_memory_bounded(self):
        gen = np.random.default_rng(0)
        x1 = gen.normal(size=(3000, 5))
        x2 = gen.normal(0.3, 1.0, size=(3000, 5))
        tracemalloc.start()
        try:
            score_features(x1, x2, "knn-ratio")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # Dense 3000 x 3000 matrices would take 72 MB each.
        assert peak < 64e6


class TestPlanFromScores:
    def test_top_f_with_tie_break(self):
        scored = score_features(np.array([[2.0], [3.0], [2.0]]),
                                np.zeros((1, 1)), "norm")
        plan = plan_from_scores(scored, "norm", 2)
        assert plan.removed_indices.tolist() == [1, 0]

    def test_nested_in_budget(self):
        gen = np.random.default_rng(5)
        scored = score_features(gen.normal(size=(30, 3)), gen.normal(size=(10, 3)), "norm")
        previous = set()
        for f in range(31):
            current = set(plan_from_scores(scored, "norm", f).removed_indices)
            assert previous <= current
            previous = current

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_matches_lexsort_reference_and_nests(self, data):
        # Small integer scores force ties, which break toward the lower row.
        values = data.draw(st.lists(st.integers(-3, 3), min_size=1, max_size=40))
        scores = np.array(values, dtype=float)
        scored = np.recarray(len(values), dtype=mechanisms.SCORE_DTYPE)
        scored.score = scores
        scored.zero_norm = False
        rows = np.arange(len(values))
        reference = rows[np.lexsort((rows, -scores))]
        previous: list[int] = []
        for f in range(len(values) + 1):
            plan = plan_from_scores(scored, "norm", f).removed_indices.tolist()
            assert plan == reference[:f].tolist()
            assert plan[:len(previous)] == previous
            previous = plan


class TestPriorityOrder:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, math.nan]),
                              st.floats(allow_nan=True, allow_infinity=True)),
                    min_size=0, max_size=30))
    def test_matches_stable_sort(self, values):
        # A few repeated values force ties, +-0.0 compare equal and NaN
        # sorts last; every case must rank as the stable sort does.
        scores = np.array(values, dtype=float)
        expected = np.argsort(-scores, kind="stable")
        assert mechanisms._priority_order(scores).tolist() == expected.tolist()

    def test_distinct_scores(self):
        scores = np.random.default_rng(3).normal(size=1000)
        expected = np.argsort(-scores, kind="stable")
        assert np.array_equal(mechanisms._priority_order(scores), expected)


class TestApplyPlan:
    def test_empty_plan_is_identity(self):
        ds = make_dataset()
        out = apply_plan(ds, RemovalPlan(rule="random", removed_indices=()))
        assert out.n == ds.n
        assert list(out.row_ids) == list(ds.row_ids)
        np.testing.assert_array_equal(out.features, ds.features)

    def test_full_plan_clears_forget_partition(self):
        ds = make_dataset(n1=4, n2=6)
        plan = RemovalPlan(rule="random", removed_indices=(0, 1, 2, 3))
        out = apply_plan(ds, plan)
        assert out.p1_positions().size == 0
        assert out.p2_positions().size == 6

    def test_survivor_count_and_order(self):
        ds = make_dataset(n1=10, n2=5, seed=3)
        plan = random_removal(10, 4, seed=9)
        out = apply_plan(ds, plan)
        assert out.p1_positions().size == 6
        removed_rows = {f"row{i}" for i in plan.removed_indices}
        expected_ids = [r for r in ds.row_ids if r not in removed_rows]
        assert list(out.row_ids) == expected_ids

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_only_planned_forget_rows_leave(self, data):
        groups = data.draw(st.lists(st.sampled_from(["P1", "P2"]), min_size=0, max_size=30))
        groups.insert(data.draw(st.integers(0, len(groups))), "P2")
        n, d = len(groups), data.draw(st.integers(1, 3))
        gen = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        feats = gen.normal(size=(n, d)) * (gen.random((n, d)) < 0.6)
        if data.draw(st.booleans()):
            feats = sp.csr_matrix(feats)
        ds = LabeledDataset(features=feats, labels=gen.integers(0, 3, n), group=np.array(groups),
                            row_ids=np.array([f"id{i}" for i in gen.permutation(n)], dtype=object))
        p1, p2 = ds.p1_positions(), ds.p2_positions()
        order = data.draw(st.permutations(range(p1.size)))
        removed = order[:data.draw(st.integers(0, p1.size))]
        out = apply_plan(ds, RemovalPlan(rule="norm", removed_indices=removed))

        def rows(dataset, positions):
            return (mechanisms._dense(dataset.features[positions]),
                    dataset.labels[positions], list(dataset.row_ids[positions]))

        kept_p1 = np.delete(p1, removed)
        for got, want in ((rows(out, out.p2_positions()), rows(ds, p2)),
                          (rows(out, out.p1_positions()), rows(ds, kept_p1))):
            np.testing.assert_array_equal(got[0], want[0])
            np.testing.assert_array_equal(got[1], want[1])
            assert got[2] == want[2]
        assert list(out.row_ids) == list(ds.row_ids[np.sort(np.concatenate([kept_p1, p2]))])

    def test_out_of_range_index_rejected(self):
        ds = make_dataset(n1=3)
        plan = RemovalPlan(rule="random", removed_indices=(3,))
        with pytest.raises(ValueError, match="out of range"):
            apply_plan(ds, plan)
