import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import ndtri

from distunlearn.bounds import (
    bound_random,
    bound_selective,
    budget_random,
    budget_selective,
)
from distunlearn.gaussian import g_inverse


class TestBoundRandom:
    def test_full_deletion_reduces_to_tail_terms(self):
        n2, delta, divergence = 1000, 0.1, 2.0
        b = bound_random(1000, n2, 1000, delta, divergence)
        big_l = math.log(4 / delta)
        assert b.alpha_lower == pytest.approx(divergence / 2 - 3 * big_l / (2 * n2), abs=1e-15)
        assert b.epsilon_upper == pytest.approx(3 * big_l / n2, abs=1e-15)

    def test_zero_budget_vacuous_value(self):
        b = bound_random(1000, 1000, 0, 0.1, 2.0)
        assert b.alpha_lower == pytest.approx(-5.0110666383623418, abs=1e-12)
        assert b.vacuous and b.alpha_vacuous

    def test_epsilon_monotone_in_budget(self):
        values = [bound_random(1000, 800, f, 0.05, 1.0).epsilon_upper
                  for f in range(0, 1001, 50)]
        assert all(b <= a for a, b in zip(values, values[1:]))

    def test_alpha_monotone_in_budget(self):
        values = [bound_random(1000, 800, f, 0.05, 1.0).alpha_lower
                  for f in range(0, 1001, 50)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            bound_random(10, 10, 11, 0.1, 1.0)
        with pytest.raises(ValueError):
            bound_random(10, 10, 0, 1.5, 1.0)


@given(st.sampled_from([bound_random, bound_selective]), st.integers(1, 10**6),
       st.integers(1, 10**6), st.floats(1e-3, 0.5), st.floats(0.0, 50.0), st.data())
@settings(max_examples=300, deadline=None)
def test_bounds_monotone_in_budget_where_applicable(bound, n1, n2, delta, divergence, data):
    f = data.draw(st.integers(0, n1 - 1), label="f")
    f_next = f + data.draw(st.integers(1, n1 - f), label="f' - f")
    small, large = bound(n1, n2, f, delta, divergence), bound(n1, n2, f_next, delta, divergence)
    assume(small.applicable and large.applicable)
    assert small.alpha_lower <= large.alpha_lower
    assert small.epsilon_upper >= large.epsilon_upper


class TestBoundSelective:
    def test_zero_divergence_uses_normal_quantile(self):
        n1, n2, f, delta = 1000, 1000, 800, 0.1
        b = bound_selective(n1, n2, f, delta, 0.0)
        big_l = math.log(4 / delta)
        q = 1 - f / n1 + math.sqrt(big_l / (2 * n1))
        u = float(ndtri((q + 1) / 2))
        r = (n1 - f) / n2
        assert b.alpha_lower == pytest.approx(-0.5 * r * r * u * u - big_l / n2, abs=1e-9)
        assert b.epsilon_upper == pytest.approx(r * r * u * u + 2 * big_l / n2, abs=1e-9)

    def test_monte_carlo_quantile_cross_check(self):
        # the bound's quantile term against an empirical folded-normal
        # quantile from 1e7 draws
        n1, n2, f, delta, divergence = 1000, 1000, 900, 0.1, 0.125
        b = bound_selective(n1, n2, f, delta, divergence)
        gen = np.random.default_rng(99)
        z = np.abs(gen.standard_normal(10_000_000) + math.sqrt(2 * divergence))
        u_mc = float(np.quantile(z, b.quantile_arg))
        u = g_inverse(b.quantile_arg, divergence)
        assert u == pytest.approx(u_mc, abs=2e-3)
        r = (n1 - f) / n2
        eps_mc = r * r * u_mc * u_mc + 2 * math.log(4 / delta) / n2
        assert b.epsilon_upper == pytest.approx(eps_mc, abs=1e-3)

    def test_small_budget_inapplicable(self):
        b = bound_selective(1000, 1000, 10, 0.1, 0.125)
        assert not b.applicable
        assert b.quantile_arg > 1.0
        assert math.isnan(b.alpha_lower)
        assert b.vacuous

    def test_epsilon_monotone_on_applicable_range(self):
        values = []
        for f in range(100, 1001, 50):
            b = bound_selective(1000, 1000, f, 0.1, 0.125)
            if b.applicable:
                values.append(b.epsilon_upper)
        assert len(values) > 10
        assert all(y <= x for x, y in zip(values, values[1:]))

    def test_comparison_against_random_reported_regime(self):
        # selective beats random on the epsilon side once the budget share is
        # large and the divergence moderate; checked, not assumed globally
        n1 = n2 = 1000
        delta = 0.1
        for divergence, f_frac in ((0.5, 0.7), (0.3, 0.8), (0.125, 0.9)):
            f = int(f_frac * n1)
            sel = bound_selective(n1, n2, f, delta, divergence)
            rnd = bound_random(n1, n2, f, delta, divergence)
            assert sel.applicable
            assert sel.epsilon_upper <= rnd.epsilon_upper


class TestBudgetRandom:
    def test_removal_component_at_boundary_ratio(self):
        # with D = 8 alpha the removal bound reads n1 - n2 sqrt(5/32)
        n1, n2, delta = 5000, 1000, 0.1
        alpha = 0.05
        divergence = 8 * alpha
        res = budget_random(n1, n2, delta, divergence, alpha, alpha)
        assert res.applicable
        assert res.components["removal"] == pytest.approx(
            n1 - n2 * math.sqrt(5.0 / 32.0), abs=1e-9)

    def test_loose_epsilon_clamps_preservation_at_one(self):
        n1, n2, delta = 2000, 1500, 0.1
        divergence, alpha = 0.4, 0.05
        epsilon = 6.5 * divergence
        res = budget_random(n1, n2, delta, divergence, alpha, epsilon)
        assert res.components["preservation"] == pytest.approx(n1 - n2, abs=1e-9)

    def test_huge_n2_gives_zero_budget(self):
        res = budget_random(100, 10**6, 0.1, 0.4, 0.01, 0.05)
        assert res.applicable
        assert res.f == 0

    def test_zero_divergence_reports_the_removal_limit(self):
        res = budget_random(100, 100, 0.1, 0.0, 0.01, 0.01)
        assert not res.applicable
        assert res.f == 100

    def test_inapplicable_reported(self):
        res = budget_random(1000, 100, 0.1, 0.4, 0.05, 0.05)
        assert not res.applicable
        assert "n2" in res.reason
        res2 = budget_random(1000, 10**6, 0.1, 0.1, 0.05, 0.05)
        assert not res2.applicable
        assert "8 alpha" in res2.reason

    def test_feedback_meets_targets(self):
        cases = [
            (500, 1000, 0.1, 0.4, 0.05, 0.05),
            (500, 1000, 0.1, 0.4, 0.05, 0.5),   # removal-binding corner
            (2000, 2000, 0.05, 1.0, 0.1, 0.2),
        ]
        for n1, n2, delta, divergence, alpha, epsilon in cases:
            res = budget_random(n1, n2, delta, divergence, alpha, epsilon)
            assert res.applicable
            fed = bound_random(n1, n2, res.f, delta, divergence)
            assert fed.alpha_lower >= alpha
            assert fed.epsilon_upper <= epsilon


@pytest.mark.parametrize("call, match", [
    (lambda: bound_random(-1, 10, 0, 0.1, 1.0), "n1 >= 0 and n2 >= 1"),
    (lambda: bound_random(10, 0, 0, 0.1, 1.0), "n1 >= 0 and n2 >= 1"),
    (lambda: bound_random(10, 10, 0, 0.1, math.inf), "divergence must be finite"),
    (lambda: bound_random(10, 10, 0, 0.1, math.nan), "divergence must be finite"),
    (lambda: bound_selective(0, 10, 0, 0.1, 1.0), "needs n1 >= 1"),
    (lambda: budget_selective(0, 10, 0.1, 1.0, 0.01, 0.01), "needs n1 >= 1"),
    (lambda: budget_random(10, 10, 0.1, 1.0, 0.0, 0.01), "targets must be positive"),
    (lambda: budget_selective(10, 10, 0.1, 1.0, 0.01, -0.01), "targets must be positive"),
])
def test_bound_and_budget_inputs_rejected(call, match):
    with pytest.raises(ValueError, match=match):
        call()


class TestBudgetSelective:
    def test_floor_limit_at_large_divergence(self):
        n1, n2, delta = 1000, 1000, 0.1
        divergence = 30.0
        res = budget_selective(n1, n2, delta, divergence, 0.01, 0.9)
        big_l = math.log(4 / delta)
        limit = n1 * (0.5 + math.sqrt(big_l / (2 * n1)))
        assert res.components["floor"] == pytest.approx(limit, abs=1e-6 * n1)

    def test_preservation_component_at_alpha_boundary(self):
        n1, n2, delta = 1000, 4000, 0.1
        divergence = 0.4
        alpha = divergence / 4
        res = budget_selective(n1, n2, delta, divergence, alpha, 0.01)
        assert res.components["preservation"] == pytest.approx(n1, abs=1e-9)

    def test_low_divergence_beats_random(self):
        # quartic tolerance dependence beats the quadratic one once the
        # tolerances are small: selective should need fewer deletions
        n1 = n2 = 12000
        res_sel = budget_selective(n1, n2, 0.1, 0.125, 0.004, 0.004)
        res_rnd = budget_random(n1, n2, 0.1, 0.125, 0.004, 0.004)
        assert res_sel.applicable and res_rnd.applicable
        assert res_sel.f <= res_rnd.f

    def test_reference_comparison_tuple(self):
        # D = 0.1, alpha = 0.02, epsilon = 0.05: the random-mechanism closed
        # forms are inapplicable (D < 8 alpha) but their formula values are
        # still reported; selective stays applicable and cheaper
        n1, n2, delta = 20000, 2000, 0.1
        res_sel = budget_selective(n1, n2, delta, 0.1, 0.02, 0.05)
        res_rnd = budget_random(n1, n2, delta, 0.1, 0.02, 0.05)
        assert res_sel.applicable
        assert not res_rnd.applicable
        assert res_sel.f <= res_rnd.f

    def test_feedback_meets_targets(self):
        cases = [
            (12000, 12000, 0.1, 0.125, 0.004, 0.004),
            (6000, 6000, 0.2, 0.5, 0.005, 0.006),
            (24000, 6000, 0.2, 0.5, 0.005, 0.006),
        ]
        for n1, n2, delta, divergence, alpha, epsilon in cases:
            res = budget_selective(n1, n2, delta, divergence, alpha, epsilon)
            assert res.applicable
            fed = bound_selective(n1, n2, res.f, delta, divergence)
            assert fed.applicable
            assert fed.alpha_lower >= alpha
            assert fed.epsilon_upper <= epsilon

    def test_inapplicable_reported(self):
        res = budget_selective(1000, 10, 0.1, 0.125, 0.004, 0.004)
        assert not res.applicable
        assert "n2" in res.reason

    def test_divergence_below_four_alpha_named(self):
        res = budget_selective(1000, 1000, 0.1, 0.125, 0.05, 0.01)
        assert not res.applicable
        assert res.binding == "inapplicable"
        assert res.reason == "D=0.125 < 4 alpha = 0.2"

    def test_no_budget_meets_the_exact_bound(self):
        # The closed forms clamp to f = n1 = 1, but bound_selective is
        # inapplicable there, so no budget carries a guarantee.
        assert not bound_selective(1, 100000, 1, 0.1, 1.0).applicable
        res = budget_selective(1, 100000, 0.1, 1.0, 0.01, 0.01)
        assert not res.applicable
        assert res.binding == "inapplicable"
        assert "bound_selective" in res.reason
