"""Removal/preservation Pareto frontiers.

Two solvers live here.  For shared-covariance Gaussians the frontier is the
closed-form parabola

    epsilon(alpha) = (sqrt(alpha) - sqrt(D))^2,   alpha >= D,

with D the divergence between the forget and preserve models; any requested
alpha below D is dominated by the point (D, 0).  For a general regular,
minimal exponential family the frontier point at level alpha is pinned by a
scalar multiplier lambda* in (0, 1):

    E_{p*}[T] = (lambda* E_1[T] - E_2[T]) / (lambda* - 1),
    KL(p_1 || p*) = alpha,

and the optimal value is v(alpha) = KL(p_2 || p*), evaluated through the
Bregman identity for exponential-family KL.  (Expanding v through the
three-point identity gives
KL(p_2 || p_1) + alpha + (theta* - theta_1)' (E_1[T] - E_2[T]); the two
contractions coincide for Gaussians, where theta is linear in the mean.)

lambda* is found by a bracketing regula falsi (the Illinois variant) on
H(lambda) = KL(p_1 || p*(lambda)) over (0, 1).  H's endpoint values (H -> D at
0+, H -> +inf at 1-) force a sign change; the solver relies only on that sign
change, not on a monotonicity direction, and rejects the family spec as
ill-conditioned when the bracket it ends on does not pin H to alpha.  The
lambda > 1 branch is never explored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .gaussian import GaussianModel

__all__ = [
    "TradeoffPoint",
    "ExpFamilySpec",
    "ExpFamilyFrontierResult",
    "frontier_gaussian",
    "frontier_expfamily",
    "gaussian_family",
    "bernoulli_family",
]

_LAMBDA_LO = 1e-9
_LAMBDA_HI = 1.0 - 1e-9
_MAX_STEPS = 200
# A secant step lands at least this far inside the bracket, so a root that
# sits exactly on one end still lets the other end close in.
_EDGE = 0.25e-15


@dataclass(frozen=True)
class TradeoffPoint:
    """An (alpha, epsilon) pair of forward KL divergences.

    ``dominated`` marks points below the frontier threshold: they are
    strictly worse than (D, 0) and carry epsilon = 0 by convention.
    """

    alpha: float
    epsilon: float
    dominated: bool = False

    def __post_init__(self):
        if not (self.alpha >= 0.0 and math.isfinite(self.alpha)):
            raise ValueError(f"alpha must be finite and >= 0, got {self.alpha}")
        if not (self.epsilon >= 0.0 and math.isfinite(self.epsilon)):
            raise ValueError(f"epsilon must be finite and >= 0, got {self.epsilon}")


@dataclass(frozen=True)
class ExpFamilySpec:
    """A regular minimal exponential family pinned at two members.

    The family is described operationally through three callables:
    ``log_partition`` (theta -> A(theta)), ``mean_map`` (theta -> E_theta[T],
    the gradient of A) and ``inverse_mean_map`` (its inverse).  All three must
    accept and return 1-d float arrays and be re-entrant.
    """

    natural_param_theta1: np.ndarray
    natural_param_theta2: np.ndarray
    log_partition: Callable[[np.ndarray], float]
    mean_map: Callable[[np.ndarray], np.ndarray]
    inverse_mean_map: Callable[[np.ndarray], np.ndarray]

    def __post_init__(self):
        t1 = np.atleast_1d(np.asarray(self.natural_param_theta1, dtype=float))
        t2 = np.atleast_1d(np.asarray(self.natural_param_theta2, dtype=float))
        if t1.shape != t2.shape or t1.ndim != 1:
            raise ValueError("theta1 and theta2 must be 1-d vectors of equal length")
        object.__setattr__(self, "natural_param_theta1", t1)
        object.__setattr__(self, "natural_param_theta2", t2)

    def kl(self, theta_from: np.ndarray, theta_to: np.ndarray) -> float:
        """KL(p_{theta_from} || p_{theta_to}) via the Bregman identity
        A(theta) - A(theta') - (theta - theta')' grad A(theta')."""
        a_to = float(self.log_partition(theta_to))
        a_from = float(self.log_partition(theta_from))
        grad = np.asarray(self.mean_map(theta_from), dtype=float)
        return a_to - a_from - float((theta_to - theta_from) @ grad)

    def divergence(self) -> float:
        """KL(p1 || p2) between the two pinned members."""
        return self.kl(self.natural_param_theta1, self.natural_param_theta2)

    def self_check(self, n_points: int = 16, tol: float = 1e-9) -> None:
        """Consistency probes: mean_map/inverse round trip along the segment
        between the two pinned means, and convexity of the log-partition
        along the natural-parameter segment (second differences >= -1e-8)."""
        e1 = np.asarray(self.mean_map(self.natural_param_theta1), dtype=float)
        e2 = np.asarray(self.mean_map(self.natural_param_theta2), dtype=float)
        for t in np.linspace(0.05, 0.95, n_points):
            m = (1.0 - t) * e1 + t * e2
            theta = np.asarray(self.inverse_mean_map(m), dtype=float)
            back = np.asarray(self.mean_map(theta), dtype=float)
            err = float(np.abs(back - m).max())
            if err > tol * max(1.0, float(np.abs(m).max())):
                raise ValueError(
                    f"mean_map(inverse_mean_map(m)) deviates by {err:.3g} at t={t:.3f}"
                )
        ts = np.linspace(0.0, 1.0, n_points + 2)
        values = [
            float(self.log_partition((1.0 - t) * self.natural_param_theta1
                                     + t * self.natural_param_theta2))
            for t in ts
        ]
        second = np.diff(values, 2)
        if second.size and second.min() < -1e-8:
            raise ValueError(
                f"log_partition is not convex along the theta segment "
                f"(min second difference {second.min():.3g})"
            )


@dataclass(frozen=True)
class ExpFamilyFrontierResult:
    """Solution of the exponential-family frontier problem at one alpha."""

    point: TradeoffPoint
    lambda_star: float | None
    theta_star: np.ndarray | None
    mean_star: np.ndarray | None
    residual: float


def frontier_gaussian(divergence_D: float, alpha: float) -> TradeoffPoint:
    """Closed-form frontier point for shared-covariance Gaussians.

    Returns ``(alpha, (sqrt(alpha) - sqrt(D))^2)`` when alpha >= D; requests
    with alpha < D come back as dominated points with epsilon = 0 (the sweep
    code wants a total function, not an error).
    """
    if not (divergence_D >= 0.0 and math.isfinite(divergence_D)):
        raise ValueError(f"divergence must be finite and >= 0, got {divergence_D}")
    if alpha < divergence_D:  # TradeoffPoint rejects an alpha below 0 or not finite
        return TradeoffPoint(alpha=alpha, epsilon=0.0, dominated=True)
    eps = (math.sqrt(alpha) - math.sqrt(divergence_D)) ** 2
    return TradeoffPoint(alpha=alpha, epsilon=eps, dominated=False)


def _mean_at(lam: float, e1: np.ndarray, e2: np.ndarray) -> np.ndarray:
    return (lam * e1 - e2) / (lam - 1.0)


def _h_of_lambda(family: ExpFamilySpec, lam: float,
                 e1: np.ndarray, e2: np.ndarray) -> tuple[float, np.ndarray | None]:
    """KL(p1 || p*(lambda)); +inf when p*(lambda) leaves the family."""
    target = _mean_at(lam, e1, e2)
    if not np.all(np.isfinite(target)):
        return math.inf, None
    try:
        theta = np.asarray(family.inverse_mean_map(target), dtype=float)
        value = family.kl(family.natural_param_theta1, theta)
    except (ValueError, ArithmeticError):
        return math.inf, None
    if not math.isfinite(value):
        return math.inf, None
    return value, theta


def _log_ratio(value: float, alpha: float) -> float:
    """log(value / alpha), -inf for value <= 0 and +inf for value = +inf."""
    return math.log(value / alpha) if value > 0.0 else -math.inf


def frontier_expfamily(family: ExpFamilySpec, alpha: float) -> ExpFamilyFrontierResult:
    """Frontier point and lambda* for a general exponential family.

    Solves H(lambda) = KL(p1 || p*(lambda)) = alpha for lambda* in (0, 1) by
    Illinois regula falsi on a sign-change bracket (values where p* leaves the
    family count as +inf and force a bisection step), then evaluates the
    optimal value formula.  The residual |H(lambda*) - alpha| is reported and
    must be <= 1e-9 * max(1, alpha); a larger one (for example where H jumps
    across the final bracket) raises ValueError, naming the steps taken and
    the bracket the solve ended on.
    """
    if not (alpha >= 0.0 and math.isfinite(alpha)):
        raise ValueError(f"alpha must be finite and >= 0, got {alpha}")
    theta1 = family.natural_param_theta1
    theta2 = family.natural_param_theta2
    if np.array_equal(theta1, theta2):
        raise ValueError("theta1 and theta2 must differ")
    e1 = np.asarray(family.mean_map(theta1), dtype=float)
    e2 = np.asarray(family.mean_map(theta2), dtype=float)
    if alpha <= family.divergence():
        point = TradeoffPoint(alpha=alpha, epsilon=0.0, dominated=True)
        return ExpFamilyFrontierResult(
            point=point, lambda_star=None, theta_star=None, mean_star=None, residual=0.0,
        )

    lo, hi = _LAMBDA_LO, _LAMBDA_HI
    h_lo, theta_lo = _h_of_lambda(family, lo, e1, e2)
    if not h_lo < alpha:
        raise ValueError(
            f"ill-conditioned family spec: H({lo}) = {h_lo} is not below alpha = {alpha}"
        )
    # Keep the bracket on the sign of H - alpha.  Evaluations where p* leaves
    # the family are +inf, i.e. on the same side as H > alpha, so the
    # invariant H(lo) < alpha <= H(hi) holds throughout.  Each step is the
    # secant root of g = log(H / alpha), which tames H's pole at lambda -> 1;
    # the end that stays put for a second step has its g halved (the Illinois
    # rule), so both ends close in.  H(1-) = +inf stands for hi's first value,
    # and any non-finite end value makes the step a bisection.  The solve
    # stops at width 1e-15 once H(lo) meets the tolerance or hi lies outside
    # the family (alpha is then out of reach); otherwise, where a finite H is
    # steep next to a family boundary, it closes the bracket to adjacent floats.
    tol = 1e-9 * max(1.0, alpha)
    g_lo, g_hi, last, edge = _log_ratio(h_lo, alpha), math.inf, 0, _EDGE
    steps = 0
    while steps < _MAX_STEPS:
        width = hi - lo
        if width <= 1e-15 and (abs(h_lo - alpha) <= tol or g_hi == math.inf):
            break
        span = g_hi - g_lo
        if 0.0 < span < math.inf:
            secant = lo - width * g_lo / span
            margin = min(edge, 0.5 * width)
            mid = min(max(secant, lo + margin), hi - margin)
            # A secant point kept off an end (where H may sit flat at alpha
            # over many ulps) keeps twice as far off at the next step.
            edge = _EDGE if mid == secant else 2.0 * edge
        else:
            mid = 0.5 * (lo + hi)
        if not lo < mid < hi:  # lo and hi are adjacent floats
            break
        steps += 1
        h_mid, theta_mid = _h_of_lambda(family, mid, e1, e2)
        if h_mid < alpha:
            lo, h_lo, theta_lo, g_lo = mid, h_mid, theta_mid, _log_ratio(h_mid, alpha)
            if last < 0:
                g_hi *= 0.5
            last = -1
        else:
            hi, g_hi = mid, _log_ratio(h_mid, alpha)
            if last > 0:
                g_lo *= 0.5
            last = 1
    lam, theta_star = lo, theta_lo
    residual = abs(h_lo - alpha)

    if not residual <= tol:
        raise ValueError(
            f"frontier solve failed after {steps} steps on the bracket "
            f"[{lo!r}, {hi!r}]: |H(lambda) - alpha| = {residual:.3g} "
            f"(ill-conditioned family spec)"
        )

    value = max(0.0, family.kl(theta2, theta_star))
    point = TradeoffPoint(alpha=alpha, epsilon=value, dominated=False)
    return ExpFamilyFrontierResult(
        point=point,
        lambda_star=lam,
        theta_star=theta_star,
        mean_star=_mean_at(lam, e1, e2),
        residual=residual,
    )


def gaussian_family(mu1, mu2, covariance) -> ExpFamilySpec:
    """Gaussians with fixed covariance as an exponential family.

    Natural parameter theta = Sigma^{-1} mu, sufficient statistic T(x) = x,
    log-partition A(theta) = theta' Sigma theta / 2, mean map grad A = Sigma
    theta = mu.  Both members are built as ``GaussianModel``s, which reject a
    covariance that is not symmetric positive definite with a ValueError.
    """
    p1 = GaussianModel(mu1, covariance)
    p2 = GaussianModel(mu2, covariance)
    cov, chol = p1.covariance, p1._chol

    def solve(v: np.ndarray) -> np.ndarray:
        y = np.linalg.solve(chol, v)
        return np.linalg.solve(chol.T, y)

    def log_partition(theta: np.ndarray) -> float:
        theta = np.asarray(theta, dtype=float)
        return 0.5 * float(theta @ (cov @ theta))

    def mean_map(theta: np.ndarray) -> np.ndarray:
        return cov @ np.asarray(theta, dtype=float)

    def inverse_mean_map(mean: np.ndarray) -> np.ndarray:
        return solve(np.asarray(mean, dtype=float))

    return ExpFamilySpec(
        natural_param_theta1=solve(p1.mean),
        natural_param_theta2=solve(p2.mean),
        log_partition=log_partition,
        mean_map=mean_map,
        inverse_mean_map=inverse_mean_map,
    )


def bernoulli_family(q1: float, q2: float) -> ExpFamilySpec:
    """Bernoulli distributions with natural parameter logit(q)."""
    for q in (q1, q2):
        if not 0.0 < q < 1.0:
            raise ValueError(f"Bernoulli success probability must lie in (0, 1), got {q}")

    def log_partition(theta: np.ndarray) -> float:
        t = float(np.asarray(theta, dtype=float)[0])
        # softplus, overflow-safe
        return float(np.logaddexp(0.0, t))

    def mean_map(theta: np.ndarray) -> np.ndarray:
        t = float(np.asarray(theta, dtype=float)[0])
        return np.array([1.0 / (1.0 + math.exp(-t))])

    def inverse_mean_map(mean: np.ndarray) -> np.ndarray:
        m = float(np.asarray(mean, dtype=float)[0])
        if not 0.0 < m < 1.0:
            raise ValueError(f"Bernoulli mean must lie in (0, 1), got {m}")
        return np.array([math.log(m / (1.0 - m))])

    logit = lambda q: math.log(q / (1.0 - q))
    return ExpFamilySpec(
        natural_param_theta1=np.array([logit(q1)]),
        natural_param_theta2=np.array([logit(q2)]),
        log_partition=log_partition,
        mean_map=mean_map,
        inverse_mean_map=inverse_mean_map,
    )
