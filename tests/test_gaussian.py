import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtri

from distunlearn.gaussian import (
    GaussianModel,
    g_folded,
    g_inverse,
    kl_gaussian,
    pooled_mle,
)

# high-precision constants, computed once with mpmath (50 digits) and frozen
PHI_196_TIMES_2_MINUS_1 = 0.9500042097035591
TWO_PHI_1_MINUS_1 = 0.6826894921370859
PHI_INV_075 = 0.6744897501960817


def kl_by_grid(mu_p, mu_q, sigma2, lo=-14.0, hi=14.0, n=400_001):
    """Trapezoid integration of p * log(p/q) on a fine grid."""
    x = np.linspace(lo, hi, n)
    log_p = -0.5 * (x - mu_p) ** 2 / sigma2 - 0.5 * math.log(2 * math.pi * sigma2)
    log_q = -0.5 * (x - mu_q) ** 2 / sigma2 - 0.5 * math.log(2 * math.pi * sigma2)
    return float(np.trapezoid(np.exp(log_p) * (log_p - log_q), x))


class TestGaussianModel:
    def test_univariate_construction(self):
        m = GaussianModel.univariate(1.5, 2.0)
        assert m.dim == 1
        assert m.mean[0] == 1.5
        assert m.covariance[0, 0] == 2.0

    def test_rejects_non_positive_definite(self):
        with pytest.raises(ValueError, match="positive definite"):
            GaussianModel(np.zeros(2), np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            GaussianModel(np.zeros(2), np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            GaussianModel(np.zeros(3), np.eye(2))


@pytest.mark.parametrize("call, match", [
    (lambda: GaussianModel(np.zeros((2, 2)), np.eye(2)), "scalar or 1-d vector"),
    (lambda: GaussianModel(np.zeros(2), np.ones((2, 3))), "square matrix"),
    (lambda: GaussianModel(np.zeros(1), [[math.inf]]), "covariance contains non-finite"),
    (lambda: GaussianModel([math.nan], 1.0), "mean contains non-finite"),
    (lambda: pooled_mle(np.zeros((2, 2, 2)), [], 1.0), r"shape \(n,\) or \(n, d\)"),
    (lambda: pooled_mle([math.nan], [1.0], 1.0), "samples contain non-finite"),
    (lambda: g_inverse(0.5, -1.0), "kappa must be finite and >= 0"),
    (lambda: g_inverse(0.5, math.inf), "kappa must be finite and >= 0"),
])
def test_gaussian_inputs_rejected(call, match):
    with pytest.raises(ValueError, match=match):
        call()


class TestKlGaussian:
    def test_reference_value(self):
        p = GaussianModel.univariate(0.0, 1.0)
        q = GaussianModel.univariate(2.0, 1.0)
        assert kl_gaussian(p, q) == pytest.approx(2.0, abs=1e-12)

    def test_identity(self):
        p = GaussianModel.univariate(0.0, 1.0)
        assert kl_gaussian(p, p) == 0.0

    def test_against_grid_integration(self):
        p = GaussianModel.univariate(0.0, 1.0)
        q = GaussianModel.univariate(0.5, 1.0)
        value = kl_gaussian(p, q)
        assert value == pytest.approx(0.125, abs=1e-12)
        assert value == pytest.approx(kl_by_grid(0.0, 0.5, 1.0), abs=1e-6)

    def test_randomized_against_grid(self):
        gen = np.random.default_rng(7)
        for _ in range(10):
            mu_p, mu_q = gen.normal(0, 1.5, 2)
            sigma2 = float(gen.uniform(0.5, 2.0))
            p = GaussianModel.univariate(mu_p, sigma2)
            q = GaussianModel.univariate(mu_q, sigma2)
            assert kl_gaussian(p, q) == pytest.approx(
                kl_by_grid(mu_p, mu_q, sigma2), abs=1e-4)

    def test_multivariate_solves_against_direct_inverse(self):
        gen = np.random.default_rng(3)
        a = gen.normal(size=(4, 4))
        cov = a @ a.T + 4 * np.eye(4)
        mu_p = gen.normal(size=4)
        mu_q = gen.normal(size=4)
        p = GaussianModel(mu_p, cov)
        q = GaussianModel(mu_q, cov)
        diff = mu_p - mu_q
        expected = 0.5 * diff @ np.linalg.inv(cov) @ diff
        assert kl_gaussian(p, q) == pytest.approx(expected, rel=1e-12)

    def test_symmetry_in_shared_covariance_family(self):
        p = GaussianModel.univariate(-1.0, 2.0)
        q = GaussianModel.univariate(3.0, 2.0)
        assert kl_gaussian(p, q) == pytest.approx(kl_gaussian(q, p), abs=1e-15)

    def test_nonnegative_zero_iff_equal_means(self):
        gen = np.random.default_rng(11)
        for _ in range(50):
            mu_p, mu_q = gen.normal(0, 2, 2)
            p = GaussianModel.univariate(mu_p, 1.0)
            q = GaussianModel.univariate(mu_q, 1.0)
            value = kl_gaussian(p, q)
            assert value >= 0.0
            if abs(mu_p - mu_q) > 1e-6:
                assert value > 0.0

    def test_dimension_mismatch_rejected(self):
        p = GaussianModel.univariate(0.0, 1.0)
        q = GaussianModel(np.zeros(2), np.eye(2))
        with pytest.raises(ValueError, match="dimension"):
            kl_gaussian(p, q)

    def test_covariance_mismatch_rejected(self):
        p = GaussianModel.univariate(0.0, 1.0)
        q = GaussianModel.univariate(0.0, 1.0 + 1e-6)
        with pytest.raises(ValueError, match="covariance mismatch"):
            kl_gaussian(p, q)


class TestPooledMle:
    def test_p2_only(self):
        m = pooled_mle([], [1.0, 3.0], 1.0)
        assert m.mean[0] == pytest.approx(2.0)

    def test_equal_weight_pool(self):
        m = pooled_mle([0.0, 0.0], [3.0, 3.0], 1.0)
        assert m.mean[0] == pytest.approx(1.5)

    def test_weighted_average(self):
        # (1*1 + 3*4) / 4
        m = pooled_mle([1.0], [4.0, 4.0, 4.0], 1.0)
        assert m.mean[0] == pytest.approx(3.25)

    def test_both_empty_rejected(self):
        with pytest.raises(ValueError, match="no data"):
            pooled_mle([], [], 1.0)

    def test_mean_in_convex_hull(self):
        gen = np.random.default_rng(5)
        for _ in range(20):
            x1 = gen.normal(0, 1, gen.integers(0, 10))
            x2 = gen.normal(2, 1, gen.integers(1, 10))
            m = pooled_mle(x1, x2, 1.0).mean[0]
            pooled = np.concatenate([x1, x2])
            assert pooled.min() - 1e-12 <= m <= pooled.max() + 1e-12

    def test_multivariate(self):
        x1 = np.array([[0.0, 0.0]])
        x2 = np.array([[2.0, 4.0]])
        m = pooled_mle(x1, x2, np.eye(2))
        assert m.mean == pytest.approx([1.0, 2.0])


class TestGFolded:
    def test_at_origin(self):
        assert g_folded(0.0, 0.0) == 0.0

    def test_zero_kappa_is_two_phi_minus_one(self):
        assert g_folded(1.96, 0.0) == pytest.approx(PHI_196_TIMES_2_MINUS_1, abs=1e-12)

    def test_monte_carlo_agreement(self):
        # P(|Z + sqrt(2*2)| <= 1) by simulation, 1e7 draws
        gen = np.random.default_rng(2024)
        z = gen.standard_normal(10_000_000)
        empirical = float(np.mean(np.abs(z + 2.0) <= 1.0))
        assert g_folded(1.0, 2.0) == pytest.approx(empirical, abs=5e-4)

    def test_zero_at_origin_for_any_kappa(self):
        for kappa in (0.0, 0.3, 1.0, 7.5, 40.0):
            assert g_folded(0.0, kappa) == 0.0

    def test_strictly_increasing(self):
        # strict on [0, 6] where float64 can still resolve the increments;
        # non-decreasing out to 10 where the upper tail saturates
        gen = np.random.default_rng(9)
        for kappa in gen.uniform(0, 20, 8):
            grid = np.linspace(0.0, 6.0, 200)
            values = [g_folded(float(u), float(kappa)) for u in grid]
            assert all(b > a for a, b in zip(values, values[1:]))
            tail = [g_folded(float(u), float(kappa)) for u in np.linspace(6.0, 10.0, 80)]
            assert all(b >= a for a, b in zip(tail, tail[1:]))

    def test_rejects_negative_arguments(self):
        with pytest.raises(ValueError):
            g_folded(-0.1, 1.0)
        with pytest.raises(ValueError):
            g_folded(1.0, -0.1)

    @given(st.floats(0.001, 10.0), st.floats(0.0, 30.0))
    @settings(max_examples=200, deadline=None)
    def test_range(self, u, kappa):
        value = g_folded(u, kappa)
        assert 0.0 <= value < 1.0


class TestGInverse:
    def test_closed_form_kappa_zero(self):
        assert g_inverse(TWO_PHI_1_MINUS_1, 0.0) == pytest.approx(1.0, abs=1e-10)

    def test_median_kappa_zero(self):
        assert g_inverse(0.5, 0.0) == pytest.approx(PHI_INV_075, abs=1e-10)

    def test_round_trip_grid(self):
        for p in (0.1, 0.5, 0.9):
            for kappa in (0.0, 1.0, 5.0):
                assert g_folded(g_inverse(p, kappa), kappa) == pytest.approx(p, abs=1e-10)
                u = g_inverse(p, kappa)
                assert g_inverse(g_folded(u, kappa), kappa) == pytest.approx(u, abs=1e-10)

    def test_monotone_in_p(self):
        values = [g_inverse(p, 2.0) for p in np.linspace(0.01, 0.99, 50)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_rejects_p_outside_unit_interval(self):
        for p in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                g_inverse(p, 1.0)

    def test_initial_bracket_contains_the_quantile(self):
        # About 145 x 147 (p, kappa) pairs, out to p = 1 - 2**-53 and kappa = 1e8.
        ps = np.unique(np.concatenate([np.logspace(-300, -2, 49), np.linspace(0.01, 0.99, 49),
                                       1.0 - np.logspace(-2, math.log10(2.0**-53), 49)]))
        kappas = np.concatenate([[0.0], np.logspace(-12, 8, 146)])
        assert ps[0] > 0.0 and ps[-1] == 1.0 - 2.0**-53
        for p in ps:
            # The closed-form tail bound g_inverse uses stands above the normal
            # quantile at q = 1 - (1-p)/4 (capped below 1 for ndtri).
            tail = math.sqrt(-2.0 * math.log(0.5 * (1.0 - p)))
            assert tail >= ndtri(min(1.0 - (1.0 - p) / 4.0, 1.0 - 2.0**-53)), p
            for kappa in kappas:
                hi = math.sqrt(2.0 * kappa) + tail + 10.0
                assert g_folded(hi, kappa) >= p, (p, kappa)
        for p in np.append(ps[::7], ps[-2:]):  # out to p = 1 - 2**-53
            for kappa in kappas[::7]:
                assert abs(g_folded(g_inverse(p, kappa), kappa) - p) <= 1e-12, (p, kappa)

    @given(st.floats(0.01, 0.99), st.floats(0.0, 20.0))
    @settings(max_examples=150, deadline=None)
    def test_round_trip_property(self, p, kappa):
        assert g_folded(g_inverse(p, kappa), kappa) == pytest.approx(p, abs=1e-10)
