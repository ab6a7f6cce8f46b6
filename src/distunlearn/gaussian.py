"""Shared-covariance Gaussian machinery.

This module owns the parametric model family used throughout the package:
Gaussians with a fixed, known covariance.  It provides

- ``GaussianModel``: immutable mean + covariance container with a cached
  Cholesky factor,
- ``kl_gaussian``: forward KL divergence between two members of the family,
  which reduces to half a squared Mahalanobis distance,
- ``pooled_mle``: the refit step after deletion (pooled empirical mean,
  covariance kept fixed),
- ``g_folded`` / ``g_inverse``: the folded-normal CDF
  ``g(u; kappa) = Phi(u - sqrt(2 kappa)) + Phi(u + sqrt(2 kappa)) - 1``
  and its quantile function, which drive the selective-removal guarantees.

The covariance is treated as known everywhere; nothing in this package
estimates covariance for model fitting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "GaussianModel",
    "norm_cdf",
    "kl_gaussian",
    "pooled_mle",
    "g_folded",
    "g_inverse",
]

_COV_MATCH_TOL = 1e-12
_SYMMETRY_TOL = 1e-10


def norm_cdf(x: float) -> float:
    """Standard normal CDF via the complementary error function.

    Accurate to better than 1e-14 absolute over the whole real line.
    """
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def _as_mean(mean) -> np.ndarray:
    m = np.atleast_1d(np.asarray(mean, dtype=float))
    if m.ndim != 1 or m.size < 1:
        raise ValueError("mean must be a scalar or 1-d vector of length >= 1")
    return m


def _as_covariance(covariance, d: int) -> np.ndarray:
    cov = np.asarray(covariance, dtype=float)
    if cov.ndim == 0:
        cov = cov.reshape(1, 1)
    if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
        raise ValueError("covariance must be a square matrix (or scalar for d=1)")
    if cov.shape[0] != d:
        raise ValueError(
            f"dimension mismatch: mean has length {d}, covariance is {cov.shape[0]}x{cov.shape[1]}"
        )
    if not np.all(np.isfinite(cov)):
        raise ValueError("covariance contains non-finite entries")
    scale = max(1.0, float(np.abs(cov).max()))
    if np.abs(cov - cov.T).max() > _SYMMETRY_TOL * scale:
        raise ValueError("covariance must be symmetric")
    return 0.5 * (cov + cov.T)


@dataclass(frozen=True)
class GaussianModel:
    """Gaussian with known covariance, the model family of this package.

    The Cholesky factor of the covariance is computed once at construction
    (which also certifies positive definiteness) and reused for every KL
    evaluation.
    """

    mean: np.ndarray
    covariance: np.ndarray
    _chol: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        mean = _as_mean(self.mean)
        cov = _as_covariance(self.covariance, mean.size)
        if not np.all(np.isfinite(mean)):
            raise ValueError("mean contains non-finite entries")
        try:
            chol = np.linalg.cholesky(cov)
        except np.linalg.LinAlgError as exc:
            raise ValueError("covariance must be positive definite") from exc
        mean.setflags(write=False)
        cov.setflags(write=False)
        chol.setflags(write=False)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "covariance", cov)
        object.__setattr__(self, "_chol", chol)

    @property
    def dim(self) -> int:
        return self.mean.size

    @classmethod
    def univariate(cls, mean: float, variance: float) -> "GaussianModel":
        return cls(np.array([float(mean)]), np.array([[float(variance)]]))


def kl_gaussian(p: GaussianModel, q: GaussianModel) -> float:
    """Forward KL divergence KL(p || q) within the shared-covariance family.

    Equals ``(mu_p - mu_q)' Sigma^{-1} (mu_p - mu_q) / 2`` and is therefore
    symmetric in its arguments.  Raises if the models have different
    dimensions or covariances differing by more than 1e-12 (such models do
    not belong to one shared-covariance family and are not comparable here).
    """
    if p.dim != q.dim:
        raise ValueError(f"dimension mismatch: {p.dim} vs {q.dim}")
    if np.abs(p.covariance - q.covariance).max() > _COV_MATCH_TOL:
        raise ValueError(
            "covariance mismatch beyond tolerance 1e-12: models are not members "
            "of a common shared-covariance family"
        )
    diff = p.mean - q.mean
    # Solve L y = diff once against the cached factor; KL = ||y||^2 / 2.
    # numpy's general solve on the small factor spares every import of the
    # package the cost of loading scipy.linalg for a triangular solver.
    y = np.linalg.solve(q._chol, diff)
    return 0.5 * float(y @ y)


def pooled_mle(kept_p1, samples_p2, covariance) -> GaussianModel:
    """Refit after deletion: pooled empirical mean of all retained samples.

    ``kept_p1`` are the surviving forget-side samples, ``samples_p2`` the
    preserve-side samples; the covariance is fixed, never estimated.  Samples
    may be scalars (shape ``(n,)``) or vectors (shape ``(n, d)``).
    """
    arrays = []
    for block in (kept_p1, samples_p2):
        arr = np.asarray(block, dtype=float)
        if arr.size == 0:
            continue
        if arr.ndim == 1:
            arr = arr[:, None]
        elif arr.ndim != 2:
            raise ValueError("samples must have shape (n,) or (n, d)")
        arrays.append(arr)
    if not arrays:
        raise ValueError("no data to fit: both sample sequences are empty")
    stacked = np.concatenate(arrays, axis=0)
    if not np.all(np.isfinite(stacked)):
        raise ValueError("samples contain non-finite values")
    mean = stacked.mean(axis=0)
    return GaussianModel(mean, _as_covariance(covariance, mean.size))


def g_folded(u: float, kappa: float) -> float:
    """CDF of the folded normal |Z + sqrt(2 kappa)| at u, Z standard normal.

    ``g(u; kappa) = Phi(u - sqrt(2 kappa)) + Phi(u + sqrt(2 kappa)) - 1``.
    Strictly increasing in u for fixed kappa, with g(0; kappa) = 0.
    """
    if not (u >= 0.0 and math.isfinite(u)):
        raise ValueError(f"u must be finite and >= 0, got {u}")
    if not (kappa >= 0.0 and math.isfinite(kappa)):
        raise ValueError(f"kappa must be finite and >= 0, got {kappa}")
    if u == 0.0:
        return 0.0
    c = math.sqrt(2.0 * kappa)
    value = norm_cdf(u - c) + norm_cdf(u + c) - 1.0
    # Roundoff can push tiny-u values a hair below zero or far-tail values to
    # exactly 1; the true CDF stays inside [0, 1) on finite u.
    return min(max(0.0, value), 1.0 - 2.0**-53)


def g_inverse(p: float, kappa: float) -> float:
    """p-th quantile of the folded normal, i.e. u with g(u; kappa) = p.

    Solved by bisection on a bracket guaranteed to contain the quantile:
    ``[0, sqrt(2 kappa) + sqrt(-2 ln((1-p)/2)) + 10]``.  The middle term is
    the closed-form tail bound ``Phi^{-1}(q) <= sqrt(-2 ln(2 (1-q)))`` (valid
    for q >= 1/2) at ``q = 1 - (1-p)/4``, so no normal quantile is evaluated.
    The returned u satisfies |g(u; kappa) - p| <= 1e-12.
    """
    if not (0.0 < p < 1.0):
        raise ValueError(f"p must lie in (0, 1), got {p}")
    if not (kappa >= 0.0 and math.isfinite(kappa)):
        raise ValueError(f"kappa must be finite and >= 0, got {kappa}")
    # With c = sqrt(2 kappa) and x = sqrt(-2 ln((1-p)/2)), the Gaussian tail
    # bound 1 - Phi(x) <= exp(-x^2 / 2) / 2 = (1-p)/4 gives
    # g(hi) >= 2 Phi(hi - c) - 1 > 1 - (1-p)/2 > p.  In floats Phi(hi - c) at
    # hi - c >= 10.6 rounds to 1, so g(hi) clamps to 1 - 2**-53 >= p.
    hi = math.sqrt(2.0 * kappa) + math.sqrt(-2.0 * math.log(0.5 * (1.0 - p))) + 10.0
    lo = 0.0
    for _ in range(200):
        if hi - lo <= 1e-12:
            break
        mid = 0.5 * (lo + hi)
        if g_folded(mid, kappa) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
