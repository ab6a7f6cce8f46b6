"""Deletion mechanisms and scoring rules.

Two plan builders implement the core mechanisms: uniform random removal and
selective removal of the samples farthest from the preserve-side empirical
mean.  For feature-vector datasets a library of scoring rules ranks rows of
the forget partition for deletion; higher score means higher deletion
priority (most divergent from the preserve distribution goes first).

Rules
-----
- ``norm``       : l2 length of the row; rejects rows whose lengths all agree
                   to within 1e-12 relative, such as l2-normalised TF-IDF rows
- ``cos-mu2``    : cosine distance to the preserve-side mean
- ``lr-cos``     : cosine distance to the preserve mean minus cosine distance
                   to the forget mean (likelihood-ratio flavored)
- ``maha-mu2``   : Mahalanobis distance to the preserve mean under the
                   ridge-regularized preserve covariance
- ``lr-maha``    : Mahalanobis analogue of ``lr-cos`` (both distances under
                   the preserve covariance)
- ``knn-ratio``  : local kernel density ratio using k-th nearest neighbor
                   distances, exp((d2^2 - d1^2) / sigma^2)

``score_features`` returns one record array with a ``score`` and a
``zero_norm`` flag per forget row.  The ``random`` baseline is not a rule
here but a deletion order: one seeded permutation (``random_removal``).

Ties between equal scores always break toward the lower row index, so plans
are reproducible and top-f selections are nested in f.  ``apply_plan`` is the
one place a plan's indices are checked.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import rng as rnglib
from .data_io import LabeledDataset

__all__ = [
    "RemovalPlan",
    "ScoringParams",
    "FEATURE_RULES",
    "SCORE_DTYPE",
    "random_removal",
    "selective_removal_gaussian",
    "score_features",
    "plan_from_scores",
    "apply_plan",
]

FEATURE_RULES = ("norm", "cos-mu2", "lr-cos", "knn-ratio", "maha-mu2", "lr-maha")

# One record per forget row, in row order.
SCORE_DTYPE = np.dtype([("score", np.float64), ("zero_norm", np.bool_)], align=True)


@dataclass(frozen=True, eq=False)
class RemovalPlan:
    """Forget-partition row indices to delete, as a read-only int64 copy of
    any int sequence, unchecked until ``apply_plan``; the budget is their count.

    Every plan lists its rows in deletion order, so a plan's first f rows are
    the plan for budget f.
    """

    rule: str
    removed_indices: np.ndarray

    def __post_init__(self):
        removed = np.array(self.removed_indices, dtype=np.int64)
        removed.setflags(write=False)
        object.__setattr__(self, "removed_indices", removed)


@dataclass(frozen=True)
class ScoringParams:
    """Knobs for the feature scoring rules.

    ``sigma`` is the kernel bandwidth for ``knn-ratio``; when None it
    defaults to the median pairwise distance within the pooled rows
    (subsampled by a deterministic stride above ``bandwidth_cap`` rows,
    which must then be at least 2).
    ``ridge_scale`` multiplies trace(Sigma)/d for the Mahalanobis ridge.
    """

    k: int = 10
    sigma: float | None = None
    ridge_scale: float = 1e-6
    bandwidth_cap: int = 2048


def random_removal(n1: int, f: int, seed: int) -> RemovalPlan:
    """Delete f of n1 forget-side rows uniformly without replacement.

    The rows are the first f of one seeded permutation, in draw order, so
    for a fixed seed the plan for budget f is a prefix of the plan for n1.
    """
    n1 = int(n1)
    f = int(f)
    if n1 < 0:
        raise ValueError("n1 must be >= 0")
    if not 0 <= f <= n1:
        raise ValueError(f"budget f={f} must satisfy 0 <= f <= n1={n1}")
    gen = rnglib.generator(seed, "random-removal")
    return RemovalPlan(rule="random", removed_indices=gen.permutation(n1)[:f])


def selective_removal_gaussian(samples_p1, samples_p2, f: int) -> RemovalPlan:
    """Delete the f forget-side samples farthest from the preserve mean.

    Scores are |x_i - mean(samples_p2)|; ties break toward the lower index.
    """
    x1 = np.asarray(samples_p1, dtype=float)
    x2 = np.asarray(samples_p2, dtype=float)
    if x1.ndim != 1 or x2.ndim != 1:
        raise ValueError(f"samples must be 1-d, got shapes {x1.shape} and {x2.shape}")
    if x2.size == 0:
        raise ValueError("samples_p2 is empty: preserve-side mean is undefined")
    scores = np.abs(x1 - x2.mean())
    return RemovalPlan(rule="selective-gaussian", removed_indices=_top(scores, f))


def _priority_order(scores: np.ndarray) -> np.ndarray:
    """Row indices sorted by (score descending, index ascending).

    The default sort is tried first: when the sorted keys strictly increase
    there are no ties and no NaN, so every correct sort gives this order.
    Otherwise the stable sort breaks ties by index.
    """
    keys = -scores
    order = np.argsort(keys)
    ranked = keys[order]
    if np.all(ranked[1:] > ranked[:-1]):
        return order
    return np.argsort(keys, kind="stable")


def _top(scores: np.ndarray, f: int) -> np.ndarray:
    """The f highest-priority rows of ``scores``, in priority order."""
    f = int(f)
    if not 0 <= f <= scores.size:
        raise ValueError(f"budget f={f} must satisfy 0 <= f <= {scores.size}")
    return _priority_order(scores)[:f]


def plan_from_scores(scored: np.recarray, rule: str, f: int) -> RemovalPlan:
    """Top-f plan from ``score_features`` records (score desc, row asc).

    The plan for budget f is the first f entries of the plan for any larger
    budget, so a sweep can rank once and slice.
    """
    return RemovalPlan(rule=rule, removed_indices=_top(scored.score, f))


# ---------------------------------------------------------------------------
# feature scoring
# ---------------------------------------------------------------------------


def _row_matrix(features):
    if sp.issparse(features):
        return sp.csr_matrix(features, dtype=float)
    arr = np.asarray(features, dtype=float)
    if arr.ndim != 2:
        raise ValueError("feature matrix must be 2-d")
    return arr


def _row_norms(x) -> np.ndarray:
    if sp.issparse(x):
        return np.sqrt(np.asarray(x.multiply(x).sum(axis=1)).ravel())
    return np.linalg.norm(x, axis=1)


def _mean_vector(x) -> np.ndarray:
    if sp.issparse(x):
        return np.asarray(x.mean(axis=0)).ravel()
    return x.mean(axis=0)


def _dense(x) -> np.ndarray:
    return x.toarray() if sp.issparse(x) else np.asarray(x, dtype=float)


def _cosine_distance_to(x, direction: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """1 - cos(row, direction) per row; zero-norm rows get distance 0 + flag."""
    norms = _row_norms(x)
    dir_norm = float(np.linalg.norm(direction))
    dots = np.asarray(x @ direction).ravel()
    zero = norms == 0.0
    if dir_norm == 0.0:
        # Degenerate reference direction: all distances are undefined; treat
        # every row like a zero-norm row rather than failing the sweep.
        return np.zeros(norms.size), np.ones(norms.size, dtype=bool)
    safe = np.where(zero, 1.0, norms)
    dist = 1.0 - dots / (safe * dir_norm)
    dist[zero] = 0.0
    return dist, zero


# Largest number of float64 values in one distance block (8 MB).
_BLOCK_VALUES = 2**20


def _squared_distance_blocks(a, b):
    """Yield ``(lo, hi, block)``: squared euclidean distances of ``a[lo:hi]``
    to every row of ``b``, as a fresh writable array of at most
    ``_BLOCK_VALUES`` entries (one row when ``b`` alone is larger)."""
    a_sq = _row_norms(a) ** 2
    b_sq = _row_norms(b) ** 2
    b_t = b.T if sp.issparse(a) else _dense(b).T
    n_a, n_b = a.shape[0], b.shape[0]
    rows = max(1, _BLOCK_VALUES // n_b)
    for lo in range(0, n_a, rows):
        hi = min(lo + rows, n_a)
        cross = a[lo:hi] @ b_t
        if sp.issparse(cross):
            cross = cross.toarray()
        cross *= 2.0
        block = a_sq[lo:hi, None] + b_sq[None, :]
        block -= cross
        np.maximum(block, 0.0, out=block)
        yield lo, hi, block


def _kth_nearest(a, b, k: int, exclude_self: bool = False) -> np.ndarray:
    """Squared distance from each row of ``a`` to its k-th nearest row of
    ``b`` (1-based k).  With ``exclude_self``, ``a`` and ``b`` are the same
    rows and row r is not its own neighbor."""
    out = np.empty(a.shape[0])
    for lo, hi, block in _squared_distance_blocks(a, b):
        if exclude_self:
            own = np.arange(lo, hi)
            block[own - lo, own] = np.inf
        block.partition(k - 1, axis=1)
        out[lo:hi] = block[:, k - 1]
    return out


def _median_pairwise_distance(pooled, cap: int) -> float:
    """Median distance between rows; ``pooled`` has at least 2 rows and
    ``cap`` is at least 2, so at least 2 rows remain after subsampling."""
    n = pooled.shape[0]
    if n > cap:
        # Deterministic stride subsample keeps the estimate reproducible
        # without dragging an RNG into a seedless scoring call.
        positions = np.linspace(0, n - 1, cap).round().astype(int)
        positions = np.unique(positions)
        pooled = pooled[positions]
        n = pooled.shape[0]
    # Upper triangle (i < j), row by row, in one preallocated vector.
    upper = np.empty(n * (n - 1) // 2)
    start = 0
    for lo, hi, block in _squared_distance_blocks(pooled, pooled):
        for r in range(lo, hi):
            stop = start + n - 1 - r
            upper[start:stop] = block[r - lo, r + 1:]
            start = stop
    np.sqrt(upper, out=upper)
    return float(np.median(upper, overwrite_input=True))


def _mahalanobis_solver(features_p2, ridge_scale: float):
    x2 = _dense(features_p2)
    if x2.shape[0] < 2:
        raise ValueError("Mahalanobis rules need at least 2 preserve-side rows")
    cov = np.cov(x2, rowvar=False)
    cov = np.atleast_2d(cov)
    d = cov.shape[0]
    ridge = ridge_scale * np.trace(cov) / d
    cov_r = cov + ridge * np.eye(d)
    try:
        chol = np.linalg.cholesky(cov_r)
    except np.linalg.LinAlgError as exc:
        raise ValueError("singular covariance beyond ridge repair") from exc

    def dist(x, mu):
        diff = _dense(x) - mu
        y = np.linalg.solve(chol, diff.T)
        return np.sqrt(np.sum(y * y, axis=0))

    return dist


def score_features(features_p1, features_p2, rule: str,
                   params: ScoringParams | None = None) -> np.recarray:
    """Score every forget-partition row for deletion priority.

    Returns a ``SCORE_DTYPE`` record array whose record i is row i of
    ``features_p1``: its ``score`` (higher means delete earlier) and whether
    a cosine rule scored it 0 as ``zero_norm``.  The preserve-side statistics
    (mean, covariance, neighbor pool) always come from the full
    ``features_p2`` given here -- downsampling for classifier training
    happens after scoring.
    """
    params = params or ScoringParams()
    if rule not in FEATURE_RULES:
        raise ValueError(f"unknown scoring rule {rule!r}; known: {FEATURE_RULES}")
    x1 = _row_matrix(features_p1)
    n1 = x1.shape[0]
    if n1 == 0:
        raise ValueError("features_p1 has no rows")

    if rule != "norm":  # every other rule reads the preserve partition
        x2 = _row_matrix(features_p2)
        if x2.shape[0] == 0:
            raise ValueError(f"rule {rule!r} needs a non-empty preserve partition")
        if x2.shape[1] != x1.shape[1]:
            raise ValueError("feature dimension mismatch between partitions")

    flags = np.zeros(n1, dtype=bool)
    if rule == "norm":
        scores = _row_norms(x1)
    elif rule == "cos-mu2":
        scores, flags = _cosine_distance_to(x1, _mean_vector(x2))
    elif rule == "lr-cos":
        d2, zero2 = _cosine_distance_to(x1, _mean_vector(x2))
        d1, zero1 = _cosine_distance_to(x1, _mean_vector(x1))
        scores = d2 - d1
        flags = zero1 | zero2
        scores[flags] = 0.0
    elif rule in ("maha-mu2", "lr-maha"):
        dist = _mahalanobis_solver(x2, params.ridge_scale)
        scores = dist(x1, _mean_vector(x2))
        if rule == "lr-maha":
            scores = scores - dist(x1, _mean_vector(x1))
    else:  # knn-ratio
        k = int(params.k)
        if not 1 <= k <= min(n1 - 1, x2.shape[0]):
            raise ValueError(
                f"k={k} out of range: need 1 <= k <= min(|p1|-1, |p2|) = "
                f"{min(n1 - 1, x2.shape[0])} (self-matches are excluded)"
            )
        if params.sigma is not None:
            sigma = float(params.sigma)
            if sigma <= 0:
                raise ValueError("sigma must be positive")
        else:
            if params.bandwidth_cap < 2:
                raise ValueError(f"bandwidth_cap={params.bandwidth_cap} leaves fewer than 2 "
                                 "rows for the knn-ratio bandwidth; need bandwidth_cap >= 2")
            pooled = sp.vstack([x1, x2]) if sp.issparse(x1) else np.vstack([_dense(x1), _dense(x2)])
            sigma = _median_pairwise_distance(pooled, params.bandwidth_cap)
            # The |a|^2 + |b|^2 - 2 a.b expansion leaves each term up to d * eps * |x|^2
            # off, so a sigma^2 within four times that measures rounding, not spread.
            if sigma**2 <= 4 * pooled.shape[1] * np.finfo(float).eps * _row_norms(pooled).max()**2:
                raise ValueError(f"degenerate pooled dataset: median pairwise distance is 0 up "
                                 f"to rounding (sigma^2 = {sigma**2:.3g} <= 4 d eps max |x|^2)")
        d1k = _kth_nearest(x1, x1, k, exclude_self=True)
        d2k = _kth_nearest(x1, x2, k)
        scores = np.exp((d2k - d1k) / sigma**2)

    if not np.all(np.isfinite(scores)):
        raise ValueError(f"rule {rule!r} produced non-finite scores")
    if rule == "norm" and np.ptp(scores) <= 1e-12 * scores.max():
        raise ValueError("rule 'norm' cannot rank these rows: every forget row's l2 length "
                         "agrees to within 1e-12 relative (as on l2-normalised rows), so "
                         "its plans would follow rounding or row order")
    if flags.any():
        warnings.warn(
            f"{int(flags.sum())} zero-norm row(s) under cosine rule {rule!r} scored 0",
            stacklevel=2,
        )
    return np.rec.fromarrays([scores, flags], dtype=SCORE_DTYPE)


def apply_plan(dataset: LabeledDataset, plan: RemovalPlan) -> LabeledDataset:
    """Remove the planned forget-partition rows from a dataset.

    Plan indices address rows WITHIN the forget (P1) partition; preserve-side
    rows, labels, and provenance are untouched and survivor order is kept.
    A negative, out-of-range or repeated index raises ValueError.
    """
    p1_pos = dataset.p1_positions()
    removed = plan.removed_indices
    if removed.size and removed.min() < 0:  # checked first: it would wrap below
        raise ValueError("removed_indices must be non-negative")
    if removed.size and removed.max() >= p1_pos.size:
        raise ValueError(f"plan index out of range for a forget partition of {p1_pos.size} rows")
    keep = np.ones(dataset.n, dtype=bool)
    keep[p1_pos[removed]] = False
    kept = np.flatnonzero(keep)
    if kept.size != dataset.n - removed.size:  # a repeat clears its row once
        raise ValueError("removed_indices must be distinct")
    return dataset.subset(kept)
