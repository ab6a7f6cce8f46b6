import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize
from scipy.special import log_softmax

from distunlearn import rng as rnglib
from distunlearn.data_io import LabeledDataset, TfidfConfig, TfidfVectorizer
from distunlearn.downstream import (
    ClassifierModel,
    FiniteJoint,
    TrainingMeta,
    evaluate,
    logloss_decomposition,
    predict_proba,
    train_logistic,
)
from distunlearn.synthetic import two_cluster_corpus


def random_joint(gen, n_x, n_y):
    return FiniteJoint.random(n_x, n_y, gen)


def reference_excess_loss(q, p):
    """Excess log-loss by loops over the grid: the expected loss under q of
    p's Bayes predictor, minus q's expected conditional label entropy."""
    qx, px = q.marginal_x(), p.marginal_x()
    loss = 0.0
    for x in range(q.n_x):
        if qx[x] == 0:
            continue
        if px[x] == 0:
            return math.inf
        cond_p = p.probs[x] / px[x]
        for y in range(q.n_y):
            if q.probs[x, y] == 0:
                continue
            if cond_p[y] == 0:
                return math.inf
            loss -= q.probs[x, y] * math.log(cond_p[y])
    entropy = 0.0
    for x in range(q.n_x):
        if qx[x] == 0:
            continue
        cond = q.probs[x] / qx[x]
        nz = cond > 0
        entropy -= qx[x] * float(np.sum(cond[nz] * np.log(cond[nz])))
    return loss - entropy


@st.composite
def joint_pairs(draw):
    """Two joints on one grid whose cells are often exactly zero."""
    n_x, n_y = draw(st.integers(1, 5)), draw(st.integers(2, 4))
    cell = st.one_of(st.just(0.0), st.floats(1e-3, 1.0))
    joints = []
    for _ in range(2):
        raw = np.array(draw(st.lists(cell, min_size=n_x * n_y, max_size=n_x * n_y)))
        raw[draw(st.integers(0, raw.size - 1))] += 1.0  # some mass somewhere
        joints.append(FiniteJoint(raw.reshape(n_x, n_y) / raw.sum()))
    return joints


class TestFiniteJoint:
    def test_rejects_bad_mass(self):
        with pytest.raises(ValueError, match="mass"):
            FiniteJoint(np.array([[0.5, 0.4]]))

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="non-negative"):
            FiniteJoint(np.array([[1.1, -0.1]]))

    def test_rejects_single_label(self):
        with pytest.raises(ValueError):
            FiniteJoint(np.array([[1.0]]))


class TestLoglossDecomposition:
    def test_identity_case(self):
        gen = rnglib.generator(0, "t1")
        q = random_joint(gen, 3, 2)
        d = logloss_decomposition(q, q)
        assert d.excess_loss == pytest.approx(0.0, abs=1e-15)
        assert d.joint_kl == pytest.approx(0.0, abs=1e-15)
        assert d.marginal_kl == pytest.approx(0.0, abs=1e-15)

    def test_equal_conditionals_chain_rule(self):
        # q uniform; p shares q's conditionals but shifts the input marginal:
        # zero excess loss, joint KL equals marginal KL
        q = FiniteJoint(np.full((2, 2), 0.25))
        p = FiniteJoint(np.array([[0.35, 0.35], [0.15, 0.15]]))
        d = logloss_decomposition(q, p)
        assert d.excess_loss == pytest.approx(0.0, abs=1e-15)
        assert d.joint_kl == pytest.approx(d.marginal_kl, abs=1e-15)
        assert d.joint_kl > 0

    def test_identity_on_randomized_joints(self):
        gen = rnglib.generator(1, "t2")
        for _ in range(200):
            q = random_joint(gen, 3, 2)
            p = random_joint(gen, 3, 2)
            d = logloss_decomposition(q, p)
            assert abs(d.identity_gap) <= 1e-12

    def test_support_violation_flagged(self):
        q = FiniteJoint(np.array([[0.5, 0.5]]))
        p = FiniteJoint(np.array([[1.0, 0.0]]))
        d = logloss_decomposition(q, p)
        assert not d.finite
        assert math.isinf(d.joint_kl)
        assert d.excess_loss == math.inf
        assert math.isnan(d.identity_gap)

    def test_zero_input_marginal_flagged(self):
        # p puts no mass on x = 0, where q has mass
        q = FiniteJoint(np.full((2, 2), 0.25))
        p = FiniteJoint(np.array([[0.0, 0.0], [0.5, 0.5]]))
        d = logloss_decomposition(q, p)
        assert not d.finite
        assert d.joint_kl == d.marginal_kl == d.excess_loss == math.inf
        assert math.isnan(d.identity_gap)

    @given(joint_pairs())
    @settings(max_examples=300, deadline=None)
    def test_matches_the_grid_loops(self, joints):
        q, p = joints
        d = logloss_decomposition(q, p)
        expected = reference_excess_loss(q, p)
        assert d.finite is math.isfinite(expected)
        if d.finite:
            assert abs(d.excess_loss - expected) <= 1e-12
        else:
            assert d.excess_loss == expected == d.joint_kl == math.inf

    def test_shape_mismatch_rejected(self):
        q = FiniteJoint(np.full((2, 2), 0.25))
        p = FiniteJoint(np.full((1, 4), 0.25))
        with pytest.raises(ValueError, match="support grid"):
            logloss_decomposition(q, p)


class TestCheckProp2:
    def test_p_equals_preserve(self):
        gen = rnglib.generator(2, "t3")
        p1 = random_joint(gen, 3, 3)
        p2 = random_joint(gen, 3, 3)
        preservation = logloss_decomposition(p2, p2)
        assert preservation.joint_kl == pytest.approx(0.0, abs=1e-15)
        assert preservation.marginal_kl == pytest.approx(0.0, abs=1e-15)
        assert preservation.excess_loss == pytest.approx(0.0, abs=1e-15)

    def test_p_equals_forget(self):
        gen = rnglib.generator(3, "t4")
        p1 = random_joint(gen, 3, 3)
        p2 = random_joint(gen, 3, 3)
        removal = logloss_decomposition(p1, p1)
        assert removal.joint_kl == pytest.approx(0.0, abs=1e-15)
        assert removal.excess_loss == pytest.approx(0.0, abs=1e-15)

    def test_support_violation_on_the_forget_side(self):
        # p is zero where p1 has mass; p2 lies inside p's support
        p1 = FiniteJoint(np.full((2, 2), 0.25))
        p2 = FiniteJoint(np.array([[0.5, 0.0], [0.5, 0.0]]))
        p = FiniteJoint(np.array([[0.9, 0.0], [0.1, 0.0]]))
        removal = logloss_decomposition(p1, p)
        preservation = logloss_decomposition(p2, p)
        assert not removal.finite
        assert removal.joint_kl == removal.excess_loss == math.inf
        assert math.isnan(removal.identity_gap)
        assert abs(preservation.identity_gap) <= 1e-15

    def test_identities_on_random_triples(self):
        gen = rnglib.generator(4, "t5")
        for _ in range(100):
            p1 = random_joint(gen, 4, 3)
            p2 = random_joint(gen, 4, 3)
            p = random_joint(gen, 4, 3)
            removal = logloss_decomposition(p1, p)
            preservation = logloss_decomposition(p2, p)
            assert removal.finite and preservation.finite
            assert abs(removal.identity_gap) <= 1e-12
            assert abs(preservation.identity_gap) <= 1e-12
            # input-marginal divergence never exceeds the joint divergence
            assert removal.joint_kl - removal.marginal_kl >= -1e-15


def two_class_dataset(n=40, d=5, seed=0, separation=2.0):
    gen = np.random.default_rng(seed)
    half = n // 2
    feats = np.vstack([
        gen.normal(-separation / 2, 1.0, size=(half, d)),
        gen.normal(separation / 2, 1.0, size=(n - half, d)),
    ])
    labels = np.array([0] * half + [1] * (n - half))
    group = np.array(["P2"] * half + ["P1"] * (n - half))
    ids = np.array([str(i) for i in range(n)], dtype=object)
    return LabeledDataset(features=feats, labels=labels, group=group, row_ids=ids)


class TestTrainLogistic:
    def test_separable_orders_margins(self):
        feats = np.array([[1.0, 0.0], [-1.0, 0.0]])
        ds = LabeledDataset(features=feats, labels=[1, 0], group=["P1", "P2"],
                            row_ids=["a", "b"])
        model = train_logistic(ds, l2_strength=1.0, max_iter=2000, tol=1e-10)
        assert model.training_meta.converged
        margin = feats @ model.weights[0] + model.bias[0]
        assert margin[0] > 0 > margin[1]

    def test_duplication_invariance(self):
        ds = two_class_dataset(n=20, seed=1)
        doubled = LabeledDataset(
            features=np.vstack([ds.features, ds.features]),
            labels=np.concatenate([ds.labels, ds.labels]),
            group=np.concatenate([ds.group, ds.group]),
            row_ids=np.concatenate([ds.row_ids, ds.row_ids]),
        )
        m1 = train_logistic(ds, 0.5, max_iter=3000, tol=1e-10)
        m2 = train_logistic(doubled, 0.5, max_iter=3000, tol=1e-10)
        np.testing.assert_allclose(m1.weights, m2.weights, atol=1e-12)
        np.testing.assert_allclose(m1.bias, m2.bias, atol=1e-12)

    def test_gradient_matches_finite_differences(self):
        ds = two_class_dataset(n=20, d=5, seed=2)
        l2 = 0.3
        model = train_logistic(ds, l2, max_iter=50, tol=1e-12)
        x, y = ds.features, ds.labels.astype(float)
        w = model.weights[0].copy()
        b = float(model.bias[0])

        def objective(w_vec, b_val):
            z = x @ w_vec + b_val
            nll = np.mean(np.logaddexp(0.0, z) - y * z)
            return nll + 0.5 * l2 * w_vec @ w_vec

        h = 1e-6
        analytic_w = x.T @ (1 / (1 + np.exp(-(x @ w + b))) - y) / len(y) + l2 * w
        for j in range(len(w)):
            e = np.zeros_like(w)
            e[j] = h
            fd = (objective(w + e, b) - objective(w - e, b)) / (2 * h)
            assert fd == pytest.approx(analytic_w[j], rel=1e-5, abs=1e-8)
        fd_b = (objective(w, b + h) - objective(w, b - h)) / (2 * h)
        analytic_b = float(np.mean(1 / (1 + np.exp(-(x @ w + b))) - y))
        assert fd_b == pytest.approx(analytic_b, rel=1e-5, abs=1e-8)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("start, iterations, converged", [
        (-30.0, 6, True),  # the first steps are found by halving
        # The Newton step is about 1e17 here: the search halves it until the
        # objective falls, however many halvings that takes.
        (-40.0, 5, True),
        (-100.0, 7, True),
        # Beyond about -745 the curvature is subnormal or zero, so the first
        # steps are steepest descent, and it takes many of them.
        (-745.0, 80, True),
        (-800.0, 190, True),
    ])
    def test_line_search_from_a_saturated_wrong_sign_start(self, start, iterations,
                                                           converged):
        # Every logit sits at -start or start, where the curvature is nearly
        # zero and the unregularized Newton step is far too long.
        feats = np.array([[1.0], [-1.0], [1.0], [-1.0]])
        ds = LabeledDataset(features=feats, labels=[1, 0, 0, 1],
                            group=["P1", "P2", "P2", "P1"], row_ids=list("abcd"))
        init = dataclasses.replace(train_logistic(ds, 0.0),
                                   weights=np.array([[start]]))
        meta = train_logistic(ds, 0.0, init=init).training_meta
        assert meta.iterations == iterations
        assert meta.converged is converged
        assert meta.objective_trace[0] == pytest.approx(-start / 2)
        assert np.all(np.diff(meta.objective_trace) <= 0.0)

    def test_objective_trace_non_increasing(self):
        ds = two_class_dataset(n=60, seed=3, separation=1.0)
        model = train_logistic(ds, 0.01, max_iter=400, tol=1e-12)
        trace = np.array(model.training_meta.objective_trace)
        assert np.all(np.diff(trace) <= 1e-14)

    def test_single_class_rejected(self):
        feats = np.ones((3, 2))
        ds = LabeledDataset(features=feats, labels=[1, 1, 1],
                            group=["P1", "P1", "P1"], row_ids=["a", "b", "c"])
        with pytest.raises(ValueError, match="single class"):
            train_logistic(ds)

    def test_non_finite_features_rejected(self):
        feats = np.array([[1.0], [math.nan]])
        ds = LabeledDataset(features=feats, labels=[0, 1], group=["P1", "P2"],
                            row_ids=["a", "b"])
        with pytest.raises(ValueError, match="non-finite"):
            train_logistic(ds)

    def test_multiclass_softmax_path(self):
        gen = np.random.default_rng(4)
        centers = np.array([[0.0, 0.0], [4.0, 0.0], [0.0, 4.0]])
        feats = np.vstack([gen.normal(c, 0.5, size=(30, 2)) for c in centers])
        labels = np.repeat([0, 1, 2], 30)
        ds = LabeledDataset(features=feats, labels=labels,
                            group=np.repeat(["P1", "P2", "P2"], 30),
                            row_ids=np.arange(90).astype(str))
        model = train_logistic(ds, 0.01, max_iter=2000, tol=1e-8)
        assert model.weights.shape == (3, 2)
        proba = predict_proba(model, feats)
        acc = float(np.mean(model.classes[np.argmax(proba, axis=1)] == labels))
        assert acc > 0.95
        np.testing.assert_allclose(proba.sum(axis=1), 1.0, atol=1e-12)

    def test_non_convergence_flagged(self):
        ds = two_class_dataset(n=60, seed=5, separation=0.5)
        model = train_logistic(ds, 1e-6, max_iter=3, tol=1e-14)
        assert not model.training_meta.converged
        assert model.training_meta.iterations == 3

    def test_line_search_gives_up_unconverged(self):
        # A gradient norm of 0 is out of reach: once no halved step moves the
        # weights, the fit stops before max_iter and says so.
        ds = two_class_dataset(n=40, d=3, seed=0, separation=2.0)
        meta = train_logistic(ds, 1e-3, max_iter=500, tol=0.0).training_meta
        assert not meta.converged
        assert 0 < meta.iterations < 500

    def test_negative_l2_strength_rejected(self):
        with pytest.raises(ValueError, match="l2_strength must be >= 0"):
            train_logistic(two_class_dataset(), -1e-3)

    @pytest.mark.parametrize("l2_strength", [math.inf, math.nan])
    def test_non_finite_l2_strength_rejected(self, l2_strength):
        with pytest.raises(ValueError, match=f"l2_strength must be >= 0 and finite, "
                                             f"got {l2_strength!r}"):
            train_logistic(two_class_dataset(), l2_strength)

    def test_text_sweep_cell_converges(self):
        # the bundled two-cluster corpus under the criterion-10 TF-IDF and
        # training settings
        corpus = two_cluster_corpus(n_p1=240, n_p2=960, seed=1, n_specific=12,
                                    n_shared=60, specific_frac=0.2)
        vec = TfidfVectorizer(TfidfConfig(max_features=2000, ngram_min=1, ngram_max=1,
                                          sublinear_tf=True, min_df=1))
        feats = vec.fit_transform(np.asarray(corpus.texts, dtype=object))
        labels = np.asarray(corpus.labels)
        ds = LabeledDataset(features=feats, labels=labels,
                            group=np.where(labels == 1, "P1", "P2"),
                            row_ids=np.asarray(corpus.ids, dtype=object))
        meta = train_logistic(ds, 1e-3, max_iter=500, tol=1e-7).training_meta
        assert meta.converged
        assert meta.iterations <= 50
        assert meta.grad_norm <= 1e-7

    def test_softmax_matches_reference_optimum(self):
        gen = np.random.default_rng(10)
        centers = np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 1.0], [0.0, 2.0, -1.0]])
        feats = np.vstack([gen.normal(c, 1.0, size=(25, 3)) for c in centers])
        labels = np.repeat([0, 1, 2], 25)
        ds = LabeledDataset(features=feats, labels=labels,
                            group=np.repeat(["P1", "P2", "P2"], 25),
                            row_ids=np.arange(75).astype(str))
        l2 = 0.05
        model = train_logistic(ds, l2, max_iter=100, tol=1e-10)
        assert model.training_meta.converged
        assert model.training_meta.grad_norm <= 1e-10

        def objective(params):
            w = params[:9].reshape(3, 3)
            logp = log_softmax(feats @ w.T + params[9:], axis=1)
            value = -logp[np.arange(75), labels].mean() + 0.5 * l2 * np.sum(w * w)
            resid = np.exp(logp)
            resid[np.arange(75), labels] -= 1.0
            grad = np.concatenate([(resid.T @ feats / 75 + l2 * w).ravel(),
                                   resid.mean(axis=0)])
            return value, grad

        ref = minimize(objective, np.zeros(12), jac=True, method="BFGS",
                       options={"gtol": 1e-12, "maxiter": 10000})
        assert model.training_meta.objective_trace[-1] == pytest.approx(ref.fun, abs=1e-9)
        params = np.concatenate([model.weights.ravel(), model.bias])
        assert objective(params)[0] == pytest.approx(ref.fun, abs=1e-9)

    def test_sparse_fit_memory_is_hessian_free(self):
        # a dense Hessian here would be 320 GB and a dense X 480 MB
        n, d = 300, 200_000
        gen = np.random.default_rng(11)
        feats = sp.random(n, d, density=1e-4, format="csr", random_state=gen)
        row_sums = np.asarray(feats.sum(axis=1)).ravel()
        labels = row_sums > np.median(row_sums)
        ds = LabeledDataset(features=feats, labels=labels.astype(int),
                            group=np.where(labels, "P1", "P2"),
                            row_ids=np.arange(n).astype(str))
        tracemalloc.start()
        try:
            model = train_logistic(ds, 1e-3, max_iter=100, tol=1e-8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert model.training_meta.converged
        assert peak < 64e6


class TestWarmStart:
    @pytest.mark.parametrize("classes", [2, 3])
    def test_own_optimum_needs_no_iterations(self, classes):
        ds = two_class_dataset(n=60, seed=12, separation=1.0)
        if classes == 3:
            labels = ds.labels.copy()
            labels[::3] = 2
            ds = LabeledDataset(features=ds.features, labels=labels, group=ds.group,
                                row_ids=ds.row_ids)
        cold = train_logistic(ds, 0.05, max_iter=500, tol=1e-8)
        warm = train_logistic(ds, 0.05, max_iter=500, tol=1e-8, init=cold)
        assert cold.training_meta.converged and cold.training_meta.iterations > 0
        assert warm.training_meta.iterations == 0 and warm.training_meta.converged
        assert warm.weights.tobytes() == cold.weights.tobytes()
        assert warm.bias.tobytes() == cold.bias.tobytes()

    def test_edited_set_reaches_the_cold_optimum(self):
        ds = two_class_dataset(n=80, seed=13, separation=1.0)
        before = train_logistic(ds, 0.01, max_iter=500, tol=1e-9)
        edited = ds.subset(np.setdiff1d(np.arange(ds.n), np.arange(40, 52)))
        cold = train_logistic(edited, 0.01, max_iter=500, tol=1e-9)
        warm = train_logistic(edited, 0.01, max_iter=500, tol=1e-9, init=before)
        assert cold.training_meta.converged and warm.training_meta.converged
        np.testing.assert_allclose(warm.weights, cold.weights, rtol=0, atol=1e-5)
        np.testing.assert_allclose(warm.bias, cold.bias, rtol=0, atol=1e-5)

    def test_mismatched_init_rejected(self):
        ds = two_class_dataset(n=40, d=5, seed=14)
        model = train_logistic(ds, 0.1)
        narrow = LabeledDataset(features=ds.features[:, :4], labels=ds.labels,
                                group=ds.group, row_ids=ds.row_ids)
        with pytest.raises(ValueError, match="init has 5 features, the training set has 4"):
            train_logistic(narrow, 0.1, init=model)
        relabeled = LabeledDataset(features=ds.features, labels=ds.labels + 1,
                                   group=ds.group, row_ids=ds.row_ids)
        with pytest.raises(ValueError, match=r"init classes \[0, 1\] differ .* \[1, 2\]"):
            train_logistic(relabeled, 0.1, init=model)


def reference_evaluate(model, test, positive_label=1):
    """Evaluation by a boolean mask per class and slice."""
    proba = predict_proba(model, test.features)
    preds = model.classes[np.argmax(proba, axis=1)]
    p1_mask, p2_mask = test.group == "P1", test.group == "P2"
    recall_p1 = None
    pos_mask = p1_mask & (test.labels == positive_label)
    if pos_mask.any():
        recall_p1 = float(np.mean(preds[pos_mask] == positive_label))
    macro_f1 = None
    if p2_mask.any():
        true2, pred2 = test.labels[p2_mask], preds[p2_mask]
        f1s = []
        for c in np.unique(true2):
            tp = int(np.sum((pred2 == c) & (true2 == c)))
            fp = int(np.sum((pred2 == c) & (true2 != c)))
            fn = int(np.sum((pred2 != c) & (true2 == c)))
            precision = tp / (tp + fp) if tp + fp > 0 else 0.0
            recall = tp / (tp + fn) if tp + fn > 0 else 0.0
            f1s.append(0.0 if precision + recall == 0.0
                       else 2.0 * precision * recall / (precision + recall))
        macro_f1 = float(np.mean(f1s))
    per_class = {f"acc_class_{int(c)}": float(np.mean(preds[test.labels == c] == c))
                 for c in np.unique(test.labels)}
    own = np.sum(proba * (test.labels[:, None] == model.classes), axis=1)
    with np.errstate(divide="ignore"):
        logloss = float(np.mean(-np.log(own)))
    return {"recall_p1": recall_p1, "macro_f1_p2": macro_f1, "logloss": logloss, **per_class}


@st.composite
def evaluation_cases(draw):
    """A 2- or 3-class linear model and a tagged test set whose labels may
    include classes the model never saw and miss classes it has."""
    classes = np.array(sorted(draw(st.sets(st.integers(0, 4), min_size=2, max_size=3))))
    n = draw(st.integers(1, 40))
    labels = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
    group = draw(st.lists(st.sampled_from(["P1", "P2"]), min_size=n, max_size=n))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = 1 if classes.size == 2 else classes.size
    model = ClassifierModel(weights=gen.normal(size=(rows, 3)), bias=gen.normal(size=rows),
                            classes=classes, training_meta=TrainingMeta(0, True, 0.0, ()))
    test = LabeledDataset(features=gen.normal(size=(n, 3)), labels=labels, group=group,
                          row_ids=np.arange(n).astype(str))
    return model, test, draw(st.integers(0, 4))


class TestEvaluate:
    @given(evaluation_cases())
    @settings(max_examples=300, deadline=None)
    def test_matches_the_per_class_loops(self, case):
        model, test, positive_label = case
        assert evaluate(model, test, positive_label) == reference_evaluate(
            model, test, positive_label)

    def test_perfect_predictions(self):
        ds = two_class_dataset(n=40, d=4, seed=6, separation=8.0)
        model = train_logistic(ds, 1e-4, max_iter=4000, tol=1e-10)
        metrics = evaluate(model, ds)
        assert metrics["recall_p1"] == 1.0
        assert metrics["macro_f1_p2"] == 1.0

    def test_all_one_class_macro_f1(self):
        # balanced 2-class preserve slice, constant predictor:
        # F1 = (2/3 + 0) / 2 = 1/3
        feats = np.array([[10.0], [10.0], [10.0], [10.0], [10.0], [-10.0]])
        labels = np.array([1, 1, 0, 0, 1, 0])
        group = np.array(["P2", "P2", "P2", "P2", "P1", "P1"])
        ds = LabeledDataset(features=feats, labels=labels, group=group,
                            row_ids=np.arange(6).astype(str))
        train = LabeledDataset(features=np.array([[1.0], [2.0]]), labels=[0, 1],
                               group=["P2", "P1"], row_ids=["x", "y"])
        model = train_logistic(train, 1e-3, max_iter=2000, tol=1e-10)
        preds = model.classes[np.argmax(predict_proba(model, ds.features), axis=1)]
        assert list(preds[:4]) == [1, 1, 1, 1]  # constant on the preserve slice
        metrics = evaluate(model, ds)
        assert metrics["macro_f1_p2"] == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_against_independent_confusion_matrix(self):
        gen = np.random.default_rng(7)
        ds = two_class_dataset(n=80, d=3, seed=8, separation=1.0)
        model = train_logistic(ds, 0.05, max_iter=500, tol=1e-8)
        metrics = evaluate(model, ds)
        preds = model.classes[np.argmax(predict_proba(model, ds.features), axis=1)]

        p1 = ds.group == "P1"
        p2 = ds.group == "P2"
        mask = p1 & (ds.labels == 1)
        recall_oracle = np.sum((preds == 1) & mask) / np.sum(mask)
        assert metrics["recall_p1"] == pytest.approx(recall_oracle, abs=1e-15)

        f1s = []
        for c in np.unique(ds.labels[p2]):
            tp = np.sum((preds == c) & (ds.labels == c) & p2)
            fp = np.sum((preds == c) & (ds.labels != c) & p2)
            fn = np.sum((preds != c) & (ds.labels == c) & p2)
            prec = tp / (tp + fp) if tp + fp else 0.0
            rec = tp / (tp + fn) if tp + fn else 0.0
            f1s.append(2 * prec * rec / (prec + rec) if prec + rec else 0.0)
        assert metrics["macro_f1_p2"] == pytest.approx(np.mean(f1s), abs=1e-15)

        for c in np.unique(ds.labels):
            mask_c = ds.labels == c
            assert metrics[f"acc_class_{c}"] == pytest.approx(np.mean(preds[mask_c] == c),
                                                             abs=1e-15)

    def test_empty_slices_are_none(self):
        feats = np.array([[1.0], [-1.0]])
        ds_all_p2 = LabeledDataset(features=feats, labels=[1, 0],
                                   group=["P2", "P2"], row_ids=["a", "b"])
        model = train_logistic(ds_all_p2, 1e-3, max_iter=500, tol=1e-8)
        metrics = evaluate(model, ds_all_p2)
        assert metrics["recall_p1"] is None
        ds_all_p1 = LabeledDataset(features=feats, labels=[1, 0],
                                   group=["P1", "P1"], row_ids=["a", "b"])
        metrics = evaluate(model, ds_all_p1)
        assert metrics["macro_f1_p2"] is None

    def test_logloss_matches_per_row_reference(self):
        train = two_class_dataset(n=40, d=2, seed=12, separation=1.0)
        model = train_logistic(train, 0.1, max_iter=100, tol=1e-10)
        # label 2 is unseen by the model; the row at 1e4 gets probability 0
        feats = np.vstack([two_class_dataset(n=8, d=2, seed=13).features,
                           [[-1e4, -1e4]]])
        labels = np.array([0, 1, 0, 1, 0, 1, 0, 1, 1])
        group = np.array(["P1", "P2"] * 4 + ["P1"])
        test = LabeledDataset(features=feats, labels=labels, group=group,
                              row_ids=np.arange(9).astype(str))
        proba = predict_proba(model, feats)

        def reference(labels):
            losses = []
            for i, label in enumerate(labels):
                cols = np.flatnonzero(model.classes == label)
                prob = proba[i, cols[0]] if cols.size else 0.0
                losses.append(-math.log(prob) if prob > 0 else math.inf)
            return float(np.mean(losses))

        assert proba[-1, 1] == 0.0
        assert math.isinf(evaluate(model, test)["logloss"])
        finite = test.subset(np.arange(8))
        assert evaluate(model, finite)["logloss"] == pytest.approx(reference(labels[:8]),
                                                                rel=1e-14)
        unseen = LabeledDataset(features=feats[:8], labels=np.where(labels[:8] == 1, 2, 0),
                                group=group[:8], row_ids=np.arange(8).astype(str))
        assert math.isinf(reference(unseen.labels))
        assert math.isinf(evaluate(model, unseen)["logloss"])

    def test_pure_function_of_inputs(self):
        ds = two_class_dataset(n=30, seed=9)
        model = train_logistic(ds, 0.1, max_iter=200, tol=1e-8)
        first = evaluate(model, ds)
        second = evaluate(model, ds)
        assert first == second
