"""Finite-sample guarantee bounds and deletion-budget solvers.

``bound_random`` and ``bound_selective`` evaluate the high-probability
removal/preservation guarantees for the two mechanisms exactly as stated,
with r = (n1 - f) / n2, L = ln(4/delta), D the divergence between the
reference models:

    random:     alpha >= (1/2 - 3 r^2) D - (3 L / 2 n2)(1 + r)
                eps   <=  3 r^2 D + (3 L / n2)(1 + r)

    selective:  alpha >= D/2 - r^2 u^2 / 2 - L / n2
                eps   <=  r^2 u^2 + 2 L / n2
    with u = g_inverse(1 - f/n1 + sqrt(L / 2 n1); D); the bound is
    inapplicable when that quantile argument leaves (0, 1).

Vacuous values (non-positive alpha lower bound, or an epsilon bound at or
above D itself) are flagged, never clamped, so sweeps can show where the
theory bites.

The budget solvers invert the simplified closed-form budget inequalities and
additionally verify the result against the exact bound evaluators above,
increasing f when the closed forms alone would miss a target (their
constants are loose on the removal side); the reported ``binding`` names
whichever constraint decided the final budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .gaussian import g_inverse, norm_cdf

__all__ = [
    "GuaranteeBound",
    "BudgetResult",
    "bound_random",
    "bound_selective",
    "budget_random",
    "budget_selective",
]


@dataclass(frozen=True)
class GuaranteeBound:
    """One evaluation of a mechanism's finite-sample guarantee."""

    alpha_lower: float
    epsilon_upper: float
    divergence_D: float
    applicable: bool = True
    quantile_arg: float | None = None

    @property
    def alpha_vacuous(self) -> bool:
        return not self.applicable or self.alpha_lower <= 0.0

    @property
    def epsilon_vacuous(self) -> bool:
        return not self.applicable or self.epsilon_upper >= self.divergence_D

    @property
    def vacuous(self) -> bool:
        return self.alpha_vacuous or self.epsilon_vacuous


@dataclass(frozen=True)
class BudgetResult:
    """Output of a budget solver: the budget plus how it was decided.

    ``binding`` is one of removal / preservation / floor / consistency /
    clamp-low / clamp-high.  ``components`` holds the raw real-valued lower
    bounds before ceiling and clamping.  When the closed forms'
    applicability conditions fail, or when no f <= n1 meets both targets
    under the exact bound, ``applicable`` is False and ``reason`` says why;
    the formula values are still reported for inspection but carry no
    guarantee.
    """

    f: int
    applicable: bool
    binding: str
    components: dict[str, float]
    reason: str | None = None


def _validate_common(n1: int, n2: int, f: int | None, delta: float, divergence_D: float):
    if n1 < 0 or n2 < 1:
        raise ValueError("need n1 >= 0 and n2 >= 1")
    if f is not None and not 0 <= f <= n1:
        raise ValueError(f"budget f={f} must satisfy 0 <= f <= n1={n1}")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    if not (divergence_D >= 0.0 and math.isfinite(divergence_D)):
        raise ValueError(f"divergence must be finite and >= 0, got {divergence_D}")


def bound_random(n1: int, n2: int, f: int, delta: float, divergence_D: float) -> GuaranteeBound:
    """Guarantee for uniform random removal of f out of n1 samples."""
    _validate_common(n1, n2, f, delta, divergence_D)
    r = (n1 - f) / n2
    big_l = math.log(4.0 / delta)
    alpha = (0.5 - 3.0 * r * r) * divergence_D - (3.0 * big_l / (2.0 * n2)) * (1.0 + r)
    epsilon = 3.0 * r * r * divergence_D + (3.0 * big_l / n2) * (1.0 + r)
    return GuaranteeBound(alpha_lower=alpha, epsilon_upper=epsilon, divergence_D=divergence_D)


def bound_selective(n1: int, n2: int, f: int, delta: float, divergence_D: float) -> GuaranteeBound:
    """Guarantee for selective (farthest-from-preserve-mean) removal.

    Returns a flagged, inapplicable bound when the folded-normal quantile
    argument ``1 - f/n1 + sqrt(ln(4/delta)/2 n1)`` is not inside (0, 1),
    which happens at small budgets.
    """
    _validate_common(n1, n2, f, delta, divergence_D)
    if n1 < 1:
        raise ValueError("selective removal needs n1 >= 1")
    big_l = math.log(4.0 / delta)
    q = 1.0 - f / n1 + math.sqrt(big_l / (2.0 * n1))
    if not 0.0 < q < 1.0:
        return GuaranteeBound(alpha_lower=math.nan, epsilon_upper=math.nan,
                              divergence_D=divergence_D, applicable=False, quantile_arg=q)
    u = g_inverse(q, divergence_D)
    r = (n1 - f) / n2
    main = r * r * u * u
    alpha = 0.5 * divergence_D - 0.5 * main - big_l / n2
    epsilon = main + 2.0 * big_l / n2
    return GuaranteeBound(alpha_lower=alpha, epsilon_upper=epsilon,
                          divergence_D=divergence_D, quantile_arg=q)


def _meets_targets(bound: GuaranteeBound, target_alpha: float, target_epsilon: float) -> bool:
    return (bound.applicable
            and bound.alpha_lower >= target_alpha
            and bound.epsilon_upper <= target_epsilon)


def _consistency_floor(evaluate, n1: int, lo: int,
                       target_alpha: float, target_epsilon: float) -> int | None:
    """Smallest integer f in [lo, n1] whose evaluated bound meets both targets.

    Both evaluators improve monotonically in f, so binary search applies.
    Returns None when even f = n1 misses a target.
    """
    if _meets_targets(evaluate(lo), target_alpha, target_epsilon):
        return lo
    if not _meets_targets(evaluate(n1), target_alpha, target_epsilon):
        return None
    good, bad = n1, lo
    while good - bad > 1:
        mid = (good + bad) // 2
        if _meets_targets(evaluate(mid), target_alpha, target_epsilon):
            good = mid
        else:
            bad = mid
    return good


def _ceil_clamp(components: dict[str, float], n1: int) -> tuple[int, str]:
    binding = max(components, key=lambda k: components[k])
    f = math.ceil(components[binding] - 1e-12)
    if f < 0:
        f, binding = 0, "clamp-low"
    if f > n1:
        f, binding = n1, "clamp-high"
    return f, binding


def _finalize_budget(components: dict[str, float], reasons: list[str], n1: int, evaluate,
                     exact: str, target_alpha: float, target_epsilon: float) -> BudgetResult:
    """The components' clamped ceiling, raised until ``evaluate`` meets both
    targets; inapplicable when ``reasons`` lists a failed closed-form condition."""
    f, binding = _ceil_clamp(components, n1)
    if reasons:
        return BudgetResult(f=f, applicable=False, binding="inapplicable",
                            components=components, reason="; ".join(reasons))
    consistent = _consistency_floor(evaluate, n1, f, target_alpha, target_epsilon)
    if consistent is None:
        return BudgetResult(f=f, applicable=False, binding="inapplicable", components=components,
                            reason=f"no f <= n1={n1} meets both targets under {exact}")
    if consistent > f:
        f, binding = consistent, "consistency"
    return BudgetResult(f=f, applicable=True, binding=binding, components=components)


def budget_random(n1: int, n2: int, delta: float, divergence_D: float,
                  target_alpha: float, target_epsilon: float) -> BudgetResult:
    """Smallest random-removal budget meeting (target_alpha, target_epsilon).

    Closed-form lower bounds:
        f >= n1 - n2 sqrt((2D - alpha) / (12 D))          (removal)
        f >= n1 - n2 min{1, sqrt(epsilon / (6 D))}        (preservation)
    applicable when n2 >= 12 ln(4/delta) / min{epsilon, alpha} and
    D >= 8 alpha.  The result is also checked against ``bound_random``.
    """
    _validate_common(n1, n2, None, delta, divergence_D)
    if target_alpha <= 0 or target_epsilon <= 0:
        raise ValueError("targets must be positive")
    big_l = math.log(4.0 / delta)
    reasons = []
    if n2 < 12.0 * big_l / min(target_alpha, target_epsilon):
        reasons.append(
            f"n2={n2} < 12 ln(4/delta)/min(alpha, epsilon) = "
            f"{12.0 * big_l / min(target_alpha, target_epsilon):.6g}"
        )
    if divergence_D < 8.0 * target_alpha:
        reasons.append(f"D={divergence_D} < 8 alpha = {8.0 * target_alpha}")
    if divergence_D > 0:
        components = {
            "removal": n1 - n2 * math.sqrt(max(0.0, 2.0 * divergence_D - target_alpha)
                                           / (12.0 * divergence_D)),
            "preservation": n1 - n2 * min(1.0, math.sqrt(target_epsilon
                                                         / (6.0 * divergence_D))),
        }
    else:  # both closed forms are 0/0 at D = 0; these are their limits as D -> 0+
        components = {"removal": float(n1), "preservation": float(n1 - n2)}
    evaluate = lambda f: bound_random(n1, n2, f, delta, divergence_D)
    return _finalize_budget(components, reasons, n1, evaluate, "bound_random",
                            target_alpha, target_epsilon)


def budget_selective(n1: int, n2: int, delta: float, divergence_D: float,
                     target_alpha: float, target_epsilon: float) -> BudgetResult:
    """Smallest selective-removal budget meeting the targets.

    Closed-form lower bounds:
        f >= n1 - sqrt(n1 n2) (epsilon / 16 pi)^{1/4} exp(-D)        (removal)
        f >= n1 - sqrt(n1 n2) ((D - 4 alpha) / 8 pi)^{1/4} exp(-D)   (preservation)
        f >= n1 (3/2 + sqrt(ln(4/delta) / 2 n1) - Phi(2 sqrt(2 D)))  (floor)
    applicable when D >= 4 alpha and n2 >= 2 ln(4/delta) max{1/eps,
    1/sqrt(eps), 1/alpha, sqrt(D - 4 alpha)}.  Checked against
    ``bound_selective``.
    """
    _validate_common(n1, n2, None, delta, divergence_D)
    if n1 < 1:
        raise ValueError("selective removal needs n1 >= 1")
    if target_alpha <= 0 or target_epsilon <= 0:
        raise ValueError("targets must be positive")
    big_l = math.log(4.0 / delta)
    reasons = []
    if divergence_D < 4.0 * target_alpha:
        reasons.append(f"D={divergence_D} < 4 alpha = {4.0 * target_alpha}")
    else:
        n2_floor = 2.0 * big_l * max(
            1.0 / target_epsilon,
            1.0 / math.sqrt(target_epsilon),
            1.0 / target_alpha,
            math.sqrt(divergence_D - 4.0 * target_alpha),
        )
        if n2 < n2_floor:
            reasons.append(f"n2={n2} < required {n2_floor:.6g}")
    root_n1n2 = math.sqrt(n1 * n2)
    decay = math.exp(-divergence_D)
    components = {
        "removal": n1 - root_n1n2 * (target_epsilon / (16.0 * math.pi)) ** 0.25 * decay,
        "preservation": n1 - root_n1n2 * (max(0.0, divergence_D - 4.0 * target_alpha)
                                          / (8.0 * math.pi)) ** 0.25 * decay,
        "floor": n1 * (1.5 + math.sqrt(big_l / (2.0 * n1))
                       - norm_cdf(2.0 * math.sqrt(2.0 * divergence_D))),
    }
    evaluate = lambda f: bound_selective(n1, n2, f, delta, divergence_D)
    return _finalize_budget(components, reasons, n1, evaluate, "bound_selective",
                            target_alpha, target_epsilon)
