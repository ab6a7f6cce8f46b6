"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with its measured numbers.

Heavy shared computations (the two reference Gaussian sweeps) are module
fixtures.  Every tolerance is pinned here, not in helper code.
"""

import math
import os

import numpy as np
import pytest
from scipy.optimize import minimize
from scipy.special import ndtri

from distunlearn.bounds import (
    bound_random,
    bound_selective,
    budget_random,
    budget_selective,
)
from distunlearn.data_io import TfidfConfig, load_text_tsv
from distunlearn.downstream import FiniteJoint, logloss_decomposition
from distunlearn.frontier import (
    bernoulli_family,
    frontier_expfamily,
    frontier_gaussian,
    gaussian_family,
)
from distunlearn.gaussian import (
    GaussianModel,
    g_folded,
    g_inverse,
    kl_gaussian,
    pooled_mle,
)
from distunlearn.mechanisms import random_removal, selective_removal_gaussian
from distunlearn.sweep import (
    PipelineConfig,
    SweepConfig,
    budget_to_reach,
    emit,
    half_target_budget,
    run_dataset_sweep,
    run_gaussian_sweep,
    saving,
)
from distunlearn.synthetic import two_cluster_corpus

SMS_PATH_ENV = "DISTUNLEARN_SMS_PATH"


def report(number: int, name: str, ok: bool, detail: str):
    # visible under `pytest -s`; also part of the assertion message on failure
    line = f"ACCEPTANCE {number:2d} [{name}]: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line, flush=True)
    assert ok, line


# ---------------------------------------------------------------------------
# shared sweeps
# ---------------------------------------------------------------------------

FULL_GRID = tuple(round(0.05 * i, 2) for i in range(21))
TWENTY_SEEDS = tuple(range(20))


@pytest.fixture(scope="module")
def low_divergence_sweep():
    config = SweepConfig(rules=("random", "selective-gaussian"),
                         budget_fractions=FULL_GRID, seeds=TWENTY_SEEDS, master_seed=0)
    return run_gaussian_sweep(0.5, 1000, 1000, config)


@pytest.fixture(scope="module")
def high_divergence_sweep():
    config = SweepConfig(rules=("random", "selective-gaussian"),
                         budget_fractions=FULL_GRID, seeds=TWENTY_SEEDS, master_seed=0)
    return run_gaussian_sweep(5.0, 1000, 1000, config)


# ---------------------------------------------------------------------------
# 1. closed-form frontier vs constrained-minimization oracle
# ---------------------------------------------------------------------------


def constrained_min_oracle(divergence, alpha):
    mu2 = math.sqrt(2.0 * divergence)
    constraint = {"type": "ineq", "fun": lambda m: 0.5 * m[0] ** 2 - alpha}
    best = math.inf
    for start in (-2 * mu2 - 3, 0.0, mu2, 2 * mu2 + 3):
        res = minimize(lambda m: 0.5 * (mu2 - m[0]) ** 2, x0=[start],
                       constraints=[constraint], method="SLSQP",
                       options={"maxiter": 500, "ftol": 1e-14})
        if res.success and 0.5 * res.x[0] ** 2 >= alpha - 1e-12:
            best = min(best, 0.5 * (mu2 - res.x[0]) ** 2)
    for boundary in (math.sqrt(2 * alpha), -math.sqrt(2 * alpha)):
        best = min(best, 0.5 * (mu2 - boundary) ** 2)
    return best


def test_criterion_01_frontier_vs_oracle():
    worst = 0.0
    for divergence in (0.125, 2.0, 12.5):
        for mult in (1.01, 1.5, 2.0, 4.0, 10.0):
            alpha = mult * divergence
            closed = frontier_gaussian(divergence, alpha).epsilon
            oracle = constrained_min_oracle(divergence, alpha)
            worst = max(worst, abs(closed - oracle))
    report(1, "frontier vs constrained-minimization oracle", worst <= 1e-8,
           f"max |closed - oracle| = {worst:.3g} (tol 1e-8)")


# ---------------------------------------------------------------------------
# 2. exponential-family solver consistency
# ---------------------------------------------------------------------------


def bernoulli_grid_oracle(q1, q2, alpha):
    theta = np.linspace(-20.0, 20.0, 10**6)
    q = 1.0 / (1.0 + np.exp(-theta))

    def kl(a, b):
        return a * np.log(a / b) + (1 - a) * np.log((1 - a) / (1 - b))

    feasible = kl(q1, q) >= alpha
    best = float(kl(q2, q)[feasible].min())
    for i in np.flatnonzero(feasible[1:] != feasible[:-1]):
        lo, hi = theta[i], theta[i + 1]
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if (kl(q1, 1 / (1 + math.exp(-mid))) >= alpha) == bool(feasible[i]):
                lo = mid
            else:
                hi = mid
        for point in (lo, hi):
            q_pt = 1 / (1 + math.exp(-point))
            if kl(q1, q_pt) >= alpha - 1e-12:
                best = min(best, kl(q2, q_pt))
    return best


def test_criterion_02_expfamily_consistency():
    fam = gaussian_family(0.0, 2.0, 1.0)
    divergence = fam.divergence()
    worst_gap = 0.0
    worst_stationarity = 0.0
    e1 = fam.mean_map(fam.natural_param_theta1)
    e2 = fam.mean_map(fam.natural_param_theta2)
    for mult in (1.01, 1.5, 2.0, 4.0, 10.0):
        alpha = mult * divergence
        res = frontier_expfamily(fam, alpha)
        closed = frontier_gaussian(divergence, alpha).epsilon
        worst_gap = max(worst_gap, abs(res.point.epsilon - closed))
        mean_from_theta = fam.mean_map(res.theta_star)
        resid = (1.0 - res.lambda_star) * mean_from_theta - (e2 - res.lambda_star * e1)
        worst_stationarity = max(worst_stationarity, float(np.abs(resid).max()))
    bern = bernoulli_family(0.3, 0.7)
    bern_alpha = 2.0 * bern.divergence()
    bern_res = frontier_expfamily(bern, bern_alpha)
    bern_gap = abs(bern_res.point.epsilon - bernoulli_grid_oracle(0.3, 0.7, bern_alpha))
    ok = worst_gap <= 1e-6 and worst_stationarity <= 1e-8 and bern_gap <= 1e-6
    report(2, "exponential-family frontier consistency", ok,
           f"gaussian gap {worst_gap:.3g} (1e-6), stationarity {worst_stationarity:.3g} "
           f"(1e-8), bernoulli gap {bern_gap:.3g} (1e-6)")


# ---------------------------------------------------------------------------
# 3. achieved trade-off envelope for the unit-variance mean sweep
# ---------------------------------------------------------------------------


def test_criterion_03_envelope_shape():
    p1 = GaussianModel.univariate(0.0, 1.0)
    p2 = GaussianModel.univariate(2.0, 1.0)
    divergence = kl_gaussian(p1, p2)
    achieved = []
    for mu in np.linspace(-6.0, 8.0, 2801):
        p = GaussianModel.univariate(float(mu), 1.0)
        achieved.append((kl_gaussian(p1, p), kl_gaussian(p2, p)))
    envelope_ok = all(
        eps >= (math.sqrt(alpha) - math.sqrt(divergence)) ** 2 - 1e-6
        for alpha, eps in achieved if alpha >= divergence
    )
    tangency_gap = 0.0
    for alpha in np.linspace(divergence, 12.0, 41):
        p = GaussianModel.univariate(math.sqrt(2.0 * alpha), 1.0)
        eps = kl_gaussian(p2, p)
        tangency_gap = max(
            tangency_gap,
            abs(eps - (math.sqrt(alpha) - math.sqrt(divergence)) ** 2))
    dominated_ok = all(
        eps > 0.0 and frontier_gaussian(divergence, alpha).dominated
        for alpha, eps in achieved if alpha < divergence
    )
    ok = envelope_ok and tangency_gap <= 1e-6 and dominated_ok
    report(3, "achieved (alpha, epsilon) envelope", ok,
           f"envelope holds: {envelope_ok}, tangency gap {tangency_gap:.3g} (1e-6), "
           f"points below threshold dominated: {dominated_ok}")


# ---------------------------------------------------------------------------
# 4. sample-efficiency of selective vs random deletion
# ---------------------------------------------------------------------------


def test_criterion_04_sample_efficiency(low_divergence_sweep):
    target = 0.06
    budget_random_rule = budget_to_reach(low_divergence_sweep, "random", "alpha",
                                         target, direction="up")
    budget_selective_rule = budget_to_reach(low_divergence_sweep, "selective-gaussian",
                                            "alpha", target, direction="up")
    ok = (budget_random_rule is not None and budget_selective_rule is not None
          and budget_random_rule >= 3.0 * budget_selective_rule)
    ratio = (budget_random_rule / budget_selective_rule
             if budget_selective_rule else math.inf)
    report(4, "selective reaches 0.06 nats with 3x less deletion", ok,
           f"random at {budget_random_rule:.3f}, selective at "
           f"{budget_selective_rule:.3f}, ratio {ratio:.2f} (need >= 3)")


# ---------------------------------------------------------------------------
# 5. half-target budget savings in low and high divergence regimes
# ---------------------------------------------------------------------------


def test_criterion_05_half_target_savings(low_divergence_sweep, high_divergence_sweep):
    low = saving(low_divergence_sweep, "random", "selective-gaussian", "alpha_remaining")
    high = saving(high_divergence_sweep, "random", "selective-gaussian", "alpha_remaining")
    ok = low is not None and high is not None and low >= 0.5 and high >= 0.1
    report(5, "half-target budget savings", ok,
           f"low-divergence saving {low:.3f} (need >= 0.5), "
           f"high-divergence saving {high:.3f} (need >= 0.1)")


# ---------------------------------------------------------------------------
# 6. statistical coverage of the finite-sample guarantees
# ---------------------------------------------------------------------------


def test_criterion_06_guarantee_coverage():
    n1 = n2 = 1000
    delta = 0.1
    mu2 = 0.5
    divergence = mu2**2 / 2.0
    budgets = (250, 500, 750)
    n_runs = 500
    margin = 3.0 * math.sqrt(delta * (1 - delta) / n_runs)
    p1_true = GaussianModel.univariate(0.0, 1.0)
    p2_true = GaussianModel.univariate(mu2, 1.0)
    bounds = {
        ("random", f): bound_random(n1, n2, f, delta, divergence) for f in budgets
    } | {
        ("selective", f): bound_selective(n1, n2, f, delta, divergence) for f in budgets
    }
    violations = {key: 0 for key in bounds}
    gen = np.random.default_rng(20240817)
    for _ in range(n_runs):
        x1 = gen.normal(0.0, 1.0, n1)
        x2 = gen.normal(mu2, 1.0, n2)
        for f in budgets:
            plans = {
                "random": random_removal(n1, f, seed=int(gen.integers(2**62))),
                "selective": selective_removal_gaussian(x1, x2, f),
            }
            for mechanism, plan in plans.items():
                kept = np.delete(x1, np.asarray(plan.removed_indices, dtype=int))
                fit = pooled_mle(kept, x2, 1.0)
                alpha_hat = kl_gaussian(p1_true, fit)
                eps_hat = kl_gaussian(p2_true, fit)
                bound = bounds[(mechanism, f)]
                held = (eps_hat <= bound.epsilon_upper
                        and alpha_hat >= bound.alpha_lower)
                if not held:
                    violations[(mechanism, f)] += 1
    worst = max(violations.values()) / n_runs
    ok = all(v / n_runs <= delta + margin for v in violations.values())
    report(6, "guarantee coverage over 500 runs", ok,
           f"worst violation rate {worst:.4f} <= delta + 3*sigma = {delta + margin:.4f}")


# ---------------------------------------------------------------------------
# 7. exact log-loss identities on finite joints
# ---------------------------------------------------------------------------


def test_criterion_07_logloss_identities():
    gen = np.random.default_rng(7)
    worst_identity = 0.0
    worst_prop = 0.0
    min_processing = math.inf
    for _ in range(1000):
        n_x = int(gen.integers(1, 6))
        n_y = int(gen.integers(2, 5))
        q = FiniteJoint.random(n_x, n_y, gen)
        p = FiniteJoint.random(n_x, n_y, gen)
        d = logloss_decomposition(q, p)
        worst_identity = max(worst_identity, abs(d.identity_gap))
        p_alt = FiniteJoint.random(n_x, n_y, gen)
        removal = logloss_decomposition(q, p_alt)
        preservation = logloss_decomposition(p, p_alt)
        worst_prop = max(worst_prop, abs(removal.identity_gap),
                         abs(preservation.identity_gap))
        min_processing = min(min_processing, removal.joint_kl - removal.marginal_kl)
    ok = worst_identity <= 1e-12 and worst_prop <= 1e-12 and min_processing >= -1e-15
    report(7, "log-loss decomposition identities", ok,
           f"decomposition gap {worst_identity:.2g}, guarantee-check gap "
           f"{worst_prop:.2g} (both 1e-12), min marginal-vs-joint slack "
           f"{min_processing:.2g} (>= 0)")


# ---------------------------------------------------------------------------
# 8. folded-normal quantile machinery
# ---------------------------------------------------------------------------


def test_criterion_08_quantile_machinery():
    worst_round = 0.0
    worst_closed = 0.0
    for p in np.arange(0.01, 0.995, 0.01):
        for kappa in (0.0, 0.1, 1.0, 5.0, 20.0):
            u = g_inverse(float(p), kappa)
            worst_round = max(worst_round, abs(g_folded(u, kappa) - p))
        closed = float(ndtri((p + 1.0) / 2.0))
        worst_closed = max(worst_closed, abs(g_inverse(float(p), 0.0) - closed))
    ok = worst_round <= 1e-10 and worst_closed <= 1e-10
    report(8, "quantile round trips", ok,
           f"round-trip error {worst_round:.2g}, zero-shift closed form error "
           f"{worst_closed:.2g} (both 1e-10)")


# ---------------------------------------------------------------------------
# 9. budget solvers vs bound evaluators
# ---------------------------------------------------------------------------


def test_criterion_09_budget_bound_consistency():
    # Tolerances are drawn small (the budget formulas' quartic-vs-quadratic
    # advantage is a small-tolerance statement); divergences span the
    # low-divergence regime where the mechanism comparison is claimed.
    gen = np.random.default_rng(99)
    checked = 0
    compared = 0
    feedback_ok = True
    comparison_ok = True
    while checked < 200:
        delta = float(gen.uniform(0.05, 0.2))
        alpha = float(np.exp(gen.uniform(math.log(0.002), math.log(0.006))))
        epsilon = float(np.exp(gen.uniform(math.log(0.002), math.log(0.006))))
        divergence = float(gen.uniform(0.1, 0.5))
        big_l = math.log(4.0 / delta)
        n2_needed = max(
            12.0 * big_l / min(alpha, epsilon),
            2.0 * big_l * max(1 / epsilon, 1 / math.sqrt(epsilon), 1 / alpha,
                              math.sqrt(max(0.0, divergence - 4 * alpha))),
        )
        n2 = int(math.ceil(n2_needed * gen.uniform(1.0, 1.5)))
        n1 = n2 * int(gen.integers(1, 5))
        res_rnd = budget_random(n1, n2, delta, divergence, alpha, epsilon)
        res_sel = budget_selective(n1, n2, delta, divergence, alpha, epsilon)
        if not (res_rnd.applicable and res_sel.applicable):
            continue
        checked += 1
        fed_rnd = bound_random(n1, n2, res_rnd.f, delta, divergence)
        fed_sel = bound_selective(n1, n2, res_sel.f, delta, divergence)
        if not (fed_rnd.alpha_lower >= alpha and fed_rnd.epsilon_upper <= epsilon):
            feedback_ok = False
        if not (fed_sel.applicable and fed_sel.alpha_lower >= alpha
                and fed_sel.epsilon_upper <= epsilon):
            feedback_ok = False
        if divergence <= 0.5 and res_rnd.f / n1 >= 0.5:
            compared += 1
            if res_sel.f > res_rnd.f:
                comparison_ok = False
    ok = feedback_ok and comparison_ok and compared >= 100
    report(9, "budget solvers meet their targets", ok,
           f"200 tuples fed back: targets met = {feedback_ok}; selective <= random "
           f"on {compared} in-regime tuples = {comparison_ok}")


# ---------------------------------------------------------------------------
# 10. text pipeline: selective scoring beats random deletion
# ---------------------------------------------------------------------------


def _sms_assertions(corpus):
    config = SweepConfig(rules=("random", "lr-cos"), budget_fractions=FULL_GRID,
                         seeds=tuple(range(10)), master_seed=0)
    pipeline = PipelineConfig(
        tfidf=TfidfConfig(max_features=20000, ngram_min=1, ngram_max=2,
                          sublinear_tf=True, min_df=1, stopword_removal=True),
        train_fraction=0.8, downsample_ratio=5.0, l2_strength=1e-3,
        max_iter=500, tol=1e-7, p1_label=1,
    )
    result = run_dataset_sweep(corpus, pipeline, config)
    agg = result.aggregate("recall_p1")
    lr_cos_low = min(agg[("lr-cos", b)] for b in (0.70, 0.75))
    random_early = min(agg[("random", b)]
                       for b in FULL_GRID if 0.0 < b < 0.85)
    f1 = result.aggregate("macro_f1_p2")
    below_full = [b for b in FULL_GRID if b < 1.0 and ("random", b) in f1]
    f1_spread = (max(f1[(r, b)] for r in config.rules for b in below_full)
                 - min(f1[(r, b)] for r in config.rules for b in below_full))
    ok = lr_cos_low <= 0.65 and random_early > 0.65 and f1_spread < 0.01
    detail = (f"lr-cos recall at 70-75% budget {lr_cos_low:.3f} (<= 0.65), random "
              f"min below 85% {random_early:.3f} (> 0.65), macro-F1 spread "
              f"{f1_spread:.4f} (< 0.01)")
    return ok, detail


def _synthetic_assertions():
    corpus = two_cluster_corpus(n_p1=240, n_p2=960, seed=1, n_specific=12,
                                n_shared=60, specific_frac=0.2)
    config = SweepConfig(rules=("random", "lr-cos"), budget_fractions=FULL_GRID,
                         seeds=tuple(range(10)), master_seed=0)
    pipeline = PipelineConfig(
        tfidf=TfidfConfig(max_features=2000, ngram_min=1, ngram_max=1,
                          sublinear_tf=True, min_df=1),
        train_fraction=0.7, downsample_ratio=5.0, l2_strength=1e-3,
        max_iter=500, tol=1e-7, p1_label=1,
    )
    result = run_dataset_sweep(corpus, pipeline, config)
    half_random = half_target_budget(result, "random", "recall_p1")
    half_lr_cos = half_target_budget(result, "lr-cos", "recall_p1")
    ok = (half_random is not None and half_lr_cos is not None
          and half_lr_cos < half_random)
    detail = (f"bundled two-cluster corpus: half-target budget lr-cos "
              f"{half_lr_cos:.3f} < random {half_random:.3f}")
    return ok, detail


def test_criterion_10_text_pipeline():
    sms_path = os.environ.get(SMS_PATH_ENV)
    if sms_path and os.path.exists(sms_path):
        ok, detail = _sms_assertions(load_text_tsv(sms_path))
        report(10, "SMS deletion pipeline", ok, detail)
    else:
        ok, detail = _synthetic_assertions()
        report(10, "text deletion pipeline (bundled corpus fallback)", ok, detail)


# ---------------------------------------------------------------------------
# 11. byte-level determinism of sweep outputs
# ---------------------------------------------------------------------------


def test_criterion_11_determinism(tmp_path):
    config = SweepConfig(rules=("random", "selective-gaussian"),
                         budget_fractions=(0.0, 0.25, 0.5, 0.75, 1.0),
                         seeds=(0, 1, 2), master_seed=11)
    paths = []
    for tag in ("a", "b"):
        path = tmp_path / f"gaussian_{tag}.csv"
        emit(run_gaussian_sweep(0.5, 400, 400, config), "csv", path)
        paths.append(path)
    gaussian_same = paths[0].read_bytes() == paths[1].read_bytes()

    corpus = two_cluster_corpus(n_p1=40, n_p2=160, seed=2)
    ds_config = SweepConfig(rules=("random", "lr-cos"), budget_fractions=(0.0, 0.5),
                            seeds=(0, 1), master_seed=11)
    pipeline = PipelineConfig(tfidf=TfidfConfig(max_features=400, ngram_max=1),
                              l2_strength=1e-3, max_iter=120)
    ds_paths = []
    for tag in ("a", "b"):
        path = tmp_path / f"dataset_{tag}.csv"
        emit(run_dataset_sweep(corpus, pipeline, ds_config), "json-lines", path)
        ds_paths.append(path)
    dataset_same = ds_paths[0].read_bytes() == ds_paths[1].read_bytes()
    ok = gaussian_same and dataset_same
    report(11, "byte-identical sweep re-runs", ok,
           f"gaussian sweep identical: {gaussian_same}, "
           f"dataset sweep identical: {dataset_same}")
