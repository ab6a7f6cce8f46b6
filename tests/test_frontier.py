import contextlib
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from distunlearn import frontier
from distunlearn.frontier import (
    ExpFamilySpec,
    TradeoffPoint,
    bernoulli_family,
    frontier_expfamily,
    frontier_gaussian,
    gaussian_family,
)


def constrained_min_oracle(divergence, alpha):
    """Numerical constrained minimization of (mu2 - mu)^2 / 2 over mu with
    (mu1 - mu)^2 / 2 >= alpha, for sigma = 1, mu1 = 0, mu2 = sqrt(2 D)."""
    mu2 = math.sqrt(2.0 * divergence)
    best = math.inf
    constraint = {"type": "ineq", "fun": lambda m: 0.5 * m[0] ** 2 - alpha}
    for start in (-3.0 * mu2 - 1.0, 0.0, mu2, 3.0 * mu2 + 1.0):
        res = minimize(lambda m: 0.5 * (mu2 - m[0]) ** 2, x0=[start],
                       constraints=[constraint], method="SLSQP",
                       options={"maxiter": 500, "ftol": 1e-14})
        if res.success and 0.5 * res.x[0] ** 2 >= alpha - 1e-12:
            best = min(best, 0.5 * (mu2 - res.x[0]) ** 2)
    # boundary candidates, still independent of the closed form
    for m in (math.sqrt(2 * alpha), -math.sqrt(2 * alpha)):
        best = min(best, 0.5 * (mu2 - m) ** 2)
    return best


def bernoulli_grid_oracle(q1, q2, alpha, n_points=10**6):
    """Brute-force 1-d minimization of KL(p2 || p_theta) subject to
    KL(p1 || p_theta) >= alpha over a theta grid in [-20, 20], with the
    constraint boundary refined by bisection between bracketing grid points."""
    theta = np.linspace(-20.0, 20.0, n_points)
    q = 1.0 / (1.0 + np.exp(-theta))

    def kl(a, b):
        return a * np.log(a / b) + (1 - a) * np.log((1 - a) / (1 - b))

    kl1 = kl(q1, q)
    kl2 = kl(q2, q)
    feasible = kl1 >= alpha
    best = float(kl2[feasible].min())
    # refine the feasibility boundary: between each infeasible/feasible
    # neighbor pair the constraint is active somewhere
    crossings = np.flatnonzero(feasible[1:] != feasible[:-1])
    for i in crossings:
        lo, hi = theta[i], theta[i + 1]
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            q_mid = 1.0 / (1.0 + math.exp(-mid))
            if (kl(q1, q_mid) >= alpha) == bool(feasible[i]):
                lo = mid
            else:
                hi = mid
        for point in (lo, hi):
            q_point = 1.0 / (1.0 + math.exp(-point))
            if kl(q1, q_point) >= alpha - 1e-12:
                best = min(best, kl(q2, q_point))
    return best


def reference_bisection(family, alpha):
    """The fixed bisection frontier_expfamily used to run: the final bracket
    (lo, hi) of width <= 1e-15 on (1e-9, 1 - 1e-9) with H(lo) < alpha <=
    H(hi), returned with H(lo) and H(hi); None when H(1e-9) >= alpha."""
    e1 = np.asarray(family.mean_map(family.natural_param_theta1), dtype=float)
    e2 = np.asarray(family.mean_map(family.natural_param_theta2), dtype=float)

    def h(lam):
        return frontier._h_of_lambda(family, lam, e1, e2)[0]

    lo, hi = 1e-9, 1.0 - 1e-9
    if not h(lo) < alpha:
        return None
    for _ in range(200):
        if hi - lo <= 1e-15:
            break
        mid = 0.5 * (lo + hi)
        if h(mid) < alpha:
            lo = mid
        else:
            hi = mid
    return lo, h(lo), h(hi)


@st.composite
def families(draw):
    """Bernoulli families with success probabilities at least 0.05 apart,
    and 1-d/2-d Gaussian families at KL >= 0.005: closer members leave H so
    flat that rounding alone moves lambda* by more than 1e-12."""
    if draw(st.booleans()):
        q1, q2 = draw(st.floats(0.01, 0.99)), draw(st.floats(0.01, 0.99))
        assume(abs(q1 - q2) >= 0.05)
        return bernoulli_family(q1, q2)
    d = draw(st.sampled_from([1, 2]))
    mu2 = np.array(draw(st.lists(st.floats(-3.0, 3.0), min_size=d, max_size=d)))
    sd = np.array(draw(st.lists(st.floats(0.5, 2.0), min_size=d, max_size=d)))
    corr = np.eye(d)
    if d == 2:
        corr[0, 1] = corr[1, 0] = draw(st.floats(-0.9, 0.9))
    family = gaussian_family(np.zeros(d), mu2, corr * np.outer(sd, sd))
    assume(family.divergence() >= 0.005)
    return family


@pytest.fixture
def h_calls(monkeypatch):
    """The lambdas at which frontier_expfamily evaluates H, in call order."""
    h_of_lambda = frontier._h_of_lambda
    lambdas = []

    def counting_h(family, lam, e1, e2):
        lambdas.append(lam)
        return h_of_lambda(family, lam, e1, e2)

    monkeypatch.setattr(frontier, "_h_of_lambda", counting_h)
    return lambdas


class TestTradeoffPoint:
    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            TradeoffPoint(alpha=-1.0, epsilon=0.0)
        with pytest.raises(ValueError):
            TradeoffPoint(alpha=0.0, epsilon=-1.0)


class TestFrontierGaussian:
    def test_boundary_point(self):
        point = frontier_gaussian(2.0, 2.0)
        assert point.epsilon == 0.0
        assert not point.dominated

    def test_interior_point_against_oracle(self):
        point = frontier_gaussian(2.0, 8.0)
        assert point.epsilon == pytest.approx(2.0, abs=1e-12)
        assert point.epsilon == pytest.approx(constrained_min_oracle(2.0, 8.0), abs=1e-8)

    def test_infeasible_is_dominated(self):
        point = frontier_gaussian(2.0, 1.0)
        assert point.dominated
        assert point.epsilon == 0.0

    def test_monotone_in_alpha(self):
        alphas = np.linspace(2.0, 40.0, 100)
        values = [frontier_gaussian(2.0, float(a)).epsilon for a in alphas]
        assert all(b >= a for a, b in zip(values, values[1:]))
        assert frontier_gaussian(2.0, 2.0).epsilon == 0.0

    @pytest.mark.parametrize("divergence, alpha, match", [
        (-1.0, 1.0, "divergence must be finite and >= 0, got -1.0"),
        # TradeoffPoint makes the alpha check
        (1.0, -1.0, "alpha must be finite and >= 0, got -1.0"),
        (1.0, math.nan, "alpha must be finite and >= 0, got nan"),
        (1.0, math.inf, "alpha must be finite and >= 0, got inf"),
        (1.0, -math.inf, "alpha must be finite and >= 0, got -inf"),
    ], ids=["D=-1", "alpha=-1", "alpha=nan", "alpha=inf", "alpha=-inf"])
    def test_inputs_rejected(self, divergence, alpha, match):
        with pytest.raises(ValueError, match=match):
            frontier_gaussian(divergence, alpha)


class TestExpFamilyGaussian:
    def test_matches_closed_form_on_grid(self):
        fam = gaussian_family(0.0, 2.0, 1.0)
        divergence = fam.divergence()
        assert divergence == pytest.approx(2.0, abs=1e-12)
        for mult in (1.1, 2.0, 5.0, 10.0):
            alpha = mult * divergence
            res = frontier_expfamily(fam, alpha)
            closed = frontier_gaussian(divergence, alpha).epsilon
            assert res.point.epsilon == pytest.approx(closed, abs=1e-6)
            # lambda* = 1 - sqrt(D / alpha) in this family
            assert res.lambda_star == pytest.approx(
                1.0 - math.sqrt(divergence / alpha), abs=1e-7)

    def test_reference_instance(self):
        res = frontier_expfamily(gaussian_family(0.0, 2.0, 1.0), 8.0)
        assert res.lambda_star == pytest.approx(0.5, abs=1e-7)
        assert res.point.epsilon == pytest.approx(2.0, abs=1e-9)

    def test_dominated_below_divergence(self):
        fam = gaussian_family(0.0, 2.0, 1.0)
        res = frontier_expfamily(fam, 1.0)
        assert res.point.dominated
        assert res.point.epsilon == 0.0
        assert res.lambda_star is None

    def test_boundary_value_is_zero(self):
        fam = gaussian_family(0.0, 2.0, 1.0)
        res = frontier_expfamily(fam, fam.divergence())
        assert res.point.epsilon == 0.0

    def test_stationarity_relation(self):
        fam = gaussian_family(0.0, 2.0, 1.0)
        for alpha in (3.0, 8.0, 30.0):
            res = frontier_expfamily(fam, alpha)
            e1 = fam.mean_map(fam.natural_param_theta1)
            e2 = fam.mean_map(fam.natural_param_theta2)
            lhs = (1.0 - res.lambda_star) * res.mean_star
            rhs = e2 - res.lambda_star * e1
            assert np.abs(lhs - rhs).max() < 1e-8

    def test_residual_within_tolerance(self):
        fam = gaussian_family(0.0, 2.0, 1.0)
        for alpha in (2.2, 8.0, 50.0):
            res = frontier_expfamily(fam, alpha)
            assert res.residual <= 1e-9 * max(1.0, alpha)

    def test_multivariate_matches_closed_form(self):
        cov = np.array([[2.0, 0.3], [0.3, 1.0]])
        fam = gaussian_family([0.0, 0.0], [1.0, 2.0], cov)
        divergence = fam.divergence()
        for mult in (1.5, 4.0):
            res = frontier_expfamily(fam, mult * divergence)
            closed = frontier_gaussian(divergence, mult * divergence).epsilon
            assert res.point.epsilon == pytest.approx(closed, abs=1e-6)

    def test_jump_in_h_raises(self, monkeypatch):
        # H jumps over alpha at lambda = 0.5: the bracket closes on the jump
        # and no lambda meets the residual tolerance.
        fam = gaussian_family(0.0, 2.0, 1.0)
        alpha = 8.0

        def jumping_h(family, lam, e1, e2):
            return (0.5 if lam < 0.5 else 2.0) * alpha, family.natural_param_theta1

        monkeypatch.setattr(frontier, "_h_of_lambda", jumping_h)
        with pytest.raises(ValueError, match=r"frontier solve failed.*ill-conditioned") as info:
            frontier_expfamily(fam, alpha)
        # The message names the steps taken and the final bracket, which
        # closed on the jump to adjacent floats.
        message = str(info.value)
        steps = int(message.split("after ")[1].split(" steps")[0])
        assert 0 < steps < frontier._MAX_STEPS
        lo, hi = (float(v) for v in message.split("[")[1].split("]")[0].split(", "))
        assert lo < 0.5 <= hi and np.nextafter(lo, 1.0) == hi

    def test_identical_members_rejected(self):
        fam = gaussian_family(1.0, 1.0, 1.0)
        with pytest.raises(ValueError, match="differ"):
            frontier_expfamily(fam, 3.0)

    @pytest.mark.parametrize("mu1, mu2, cov, match", [
        ([0.0, 0.0], [1.0, 1.0], [[1.0, 5.0], [0.0, 1.0]], "covariance must be symmetric"),
        (0.0, 1.0, -1.0, "covariance must be positive definite"),
    ])
    def test_invalid_covariance_rejected(self, mu1, mu2, cov, match):
        with pytest.raises(ValueError, match=match):
            gaussian_family(mu1, mu2, cov)


class TestExpFamilyBernoulli:
    def test_against_grid_oracle(self):
        fam = bernoulli_family(0.3, 0.7)
        divergence = fam.divergence()
        alpha = 2.0 * divergence
        res = frontier_expfamily(fam, alpha)
        oracle = bernoulli_grid_oracle(0.3, 0.7, alpha)
        assert res.point.epsilon == pytest.approx(oracle, abs=1e-6)

    def test_value_not_above_any_feasible_candidate(self):
        fam = bernoulli_family(0.3, 0.7)
        alpha = 2.0 * fam.divergence()
        res = frontier_expfamily(fam, alpha)

        def kl(a, b):
            return a * math.log(a / b) + (1 - a) * math.log((1 - a) / (1 - b))

        gen = np.random.default_rng(17)
        for q in gen.uniform(0.001, 0.999, 500):
            if kl(0.3, q) >= alpha:
                assert res.point.epsilon <= kl(0.7, q) + 1e-9

    def test_stationarity_relation(self):
        fam = bernoulli_family(0.3, 0.7)
        res = frontier_expfamily(fam, 2.0 * fam.divergence())
        e1 = fam.mean_map(fam.natural_param_theta1)
        e2 = fam.mean_map(fam.natural_param_theta2)
        lhs = (1.0 - res.lambda_star) * res.mean_star
        rhs = e2 - res.lambda_star * e1
        assert np.abs(lhs - rhs).max() < 1e-8

    def test_lambda_star_in_open_unit_interval(self):
        fam = bernoulli_family(0.2, 0.6)
        for mult in (1.2, 3.0, 10.0):
            res = frontier_expfamily(fam, mult * fam.divergence())
            assert 0.0 < res.lambda_star < 1.0

    def test_invalid_probabilities_rejected(self):
        with pytest.raises(ValueError):
            bernoulli_family(0.0, 0.5)
        with pytest.raises(ValueError):
            bernoulli_family(0.5, 1.0)


class TestExpFamilySolve:
    MULTIPLES = (1.0 + 1e-6, 1.0 + 1e-3, 1.05, 1.5, 2.0, 4.0, 10.0, 100.0, 1000.0)

    @staticmethod
    def grid_families():
        gen = np.random.default_rng(29)
        out = []
        for d in (1, 2, 10):
            a = gen.normal(0.0, 1.0, (d, d))
            out.append(gaussian_family(np.zeros(d), gen.normal(0.0, 0.8, d),
                                       a @ a.T / d + np.eye(d)))
        return out + [bernoulli_family(*q) for q in ((0.3, 0.7), (0.01, 0.99), (0.9, 0.2))]

    def test_evaluations_per_query(self, h_calls):
        # The bisection this solve replaced took 52 evaluations on every
        # query.  Queries that raise count too: at 100 D and 1000 D the
        # Bernoulli frontiers are out of reach in double precision.
        counts = []
        for fam in self.grid_families():
            for mult in self.MULTIPLES:
                h_calls.clear()
                with contextlib.suppress(ValueError):
                    frontier_expfamily(fam, mult * fam.divergence())
                counts.append(len(h_calls))
        assert max(counts) <= 52
        assert np.mean(counts) <= 20.0

    @given(families(), st.floats(math.log1p(1e-6), math.log(1000.0)))
    @settings(max_examples=150, deadline=None)
    def test_agrees_with_reference_bisection(self, family, log_multiple):
        alpha = family.divergence() * math.exp(log_multiple)
        tol = 1e-9 * max(1.0, alpha)
        ref = reference_bisection(family, alpha)
        ref_returns = ref is not None and abs(ref[1] - alpha) <= tol
        try:
            res = frontier_expfamily(family, alpha)
        except ValueError:
            # Where H rises by more than the tolerance across the reference's
            # own final bracket (next to the Bernoulli boundary), whether its
            # lo met the tolerance is down to where that lo fell.
            assert not ref_returns or ref[2] - ref[1] > tol
            return
        assert res.residual <= tol
        if ref_returns:
            assert abs(res.lambda_star - ref[0]) <= 1e-12

    def test_steep_h_next_to_the_bernoulli_boundary(self):
        # H rises by more than the tolerance across a 1e-15 bracket here, so
        # the solve closes the bracket to adjacent floats before it checks.
        fam = bernoulli_family(0.7615964293113475, 0.9624632396331722)
        alpha = 4.662990261526189
        res = frontier_expfamily(fam, alpha)
        assert res.residual <= 1e-9 * alpha
        assert 0.0 < res.lambda_star < 1.0

    def test_exact_root_on_a_bracket_end(self, h_calls):
        # lambda* = 1 - sqrt(D / alpha) = 1/2 is the first bisection point, so
        # H(hi) = alpha exactly and every secant point falls on hi.  Stepping
        # just inside the bracket closes it at once, not after ~50 halvings.
        fam = gaussian_family(0.0, 2.0, 1.0)
        res = frontier_expfamily(fam, 4.0 * fam.divergence())
        assert h_calls[:2] == [1e-9, 0.5] and len(h_calls) <= 4
        assert res.lambda_star == pytest.approx(0.5, abs=1e-15)
        assert res.residual <= 1e-9 * res.point.alpha


def spec_like(family, **callables):
    """``family`` with some of its callables replaced."""
    parts = {name: getattr(family, name)
             for name in ("log_partition", "mean_map", "inverse_mean_map")}
    return ExpFamilySpec(family.natural_param_theta1, family.natural_param_theta2,
                         **{**parts, **callables})


def _leave_family(mean):
    raise ValueError("mean outside the family")


@pytest.mark.parametrize("family, e1", [
    # a target mean that is not finite
    (bernoulli_family(0.3, 0.7), math.inf),
    # a target mean of 0.5 in the family, at which the KL is not finite
    (spec_like(bernoulli_family(0.3, 0.7), log_partition=lambda theta: math.inf), 0.3),
])
def test_h_is_infinite_off_the_family(family, e1):
    # at lambda = 0.5 the target mean is 2 * e2 - e1
    assert frontier._h_of_lambda(family, 0.5, np.array([e1]), np.array([0.4])) == (math.inf, None)


@pytest.mark.parametrize("alpha, family, match", [
    (-1.0, bernoulli_family(0.3, 0.7), "alpha must be finite and >= 0"),
    (math.nan, bernoulli_family(0.3, 0.7), "alpha must be finite and >= 0"),
    (math.inf, bernoulli_family(0.3, 0.7), "alpha must be finite and >= 0"),
    # no target mean lies in the family, so H(lo) is +inf
    (5.0, spec_like(bernoulli_family(0.3, 0.7), inverse_mean_map=_leave_family),
     r"ill-conditioned family spec: H\(1e-09\) = inf is not below alpha = 5.0"),
])
def test_expfamily_inputs_rejected(alpha, family, match):
    with pytest.raises(ValueError, match=match):
        frontier_expfamily(family, alpha)


class TestExpFamilySpec:
    def test_self_check_passes_for_valid_families(self):
        gaussian_family(0.0, 2.0, 1.0).self_check()
        bernoulli_family(0.3, 0.7).self_check()

    def test_self_check_catches_broken_inverse(self):
        base = bernoulli_family(0.3, 0.7)
        broken = ExpFamilySpec(
            natural_param_theta1=base.natural_param_theta1,
            natural_param_theta2=base.natural_param_theta2,
            log_partition=base.log_partition,
            mean_map=base.mean_map,
            inverse_mean_map=lambda m: np.asarray(m) * 2.0,
        )
        with pytest.raises(ValueError, match="inverse_mean_map"):
            broken.self_check()

    def test_self_check_catches_nonconvex_log_partition(self):
        base = bernoulli_family(0.2, 0.8)
        bad = ExpFamilySpec(
            natural_param_theta1=base.natural_param_theta1,
            natural_param_theta2=base.natural_param_theta2,
            log_partition=lambda t: -float(np.asarray(t)[0]) ** 2,
            mean_map=base.mean_map,
            inverse_mean_map=base.inverse_mean_map,
        )
        with pytest.raises(ValueError, match="convex"):
            bad.self_check()

    def test_shape_mismatch_rejected(self):
        base = bernoulli_family(0.3, 0.7)
        with pytest.raises(ValueError):
            ExpFamilySpec(
                natural_param_theta1=np.array([0.0, 1.0]),
                natural_param_theta2=base.natural_param_theta2,
                log_partition=base.log_partition,
                mean_map=base.mean_map,
                inverse_mean_map=base.inverse_mean_map,
            )
