"""Downstream predictive impact: exact log-loss decompositions on finite
joints, a deterministic l2-regularized logistic classifier, and the
evaluation metrics used by the dataset sweeps.

On finite discrete joints every quantity in the log-loss story is exactly
computable, which turns the excess-risk decomposition

    L(h; q) - L(h_q*; q) = KL(q || p) - KL(q^X || p^X)

(h the Bayes predictor of p) into a machine-checkable identity; that is what
``logloss_decomposition`` does.  The log-loss guarantee for a model p refit
on the edited data is two such calls: ``logloss_decomposition(p1, p)`` is
its removal side (excess loss = alpha - delta1, with alpha = KL(p1 || p) and
delta1 the input-marginal divergence) and ``logloss_decomposition(p2, p)``
its preservation side (excess loss = epsilon - delta2).

The classifier is fitted to its optimum by Newton-CG with a backtracking line
search, from zero or from a given model's weights, with the sigmoid loss for
two classes and multinomial softmax otherwise.  The line search halves the
Newton step until the objective falls, and gives up only once the halved step
no longer moves the weights.  Training works on Hessian-vector products, so
memory stays linear in the nonzeros and the feature count.  No stochasticity
enters anywhere, so retraining is bit-reproducible.

``evaluate`` returns the mapping of metric names to values that a sweep
cell records (``recall_p1``, ``macro_f1_p2``, ``logloss`` and one
``acc_class_<label>`` per label), reading every count-based metric from one
table of (slice, true label, predicted label) counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .data_io import P1, P2, LabeledDataset

__all__ = [
    "FiniteJoint",
    "DecompositionResult",
    "ClassifierModel",
    "TrainingMeta",
    "logloss_decomposition",
    "train_logistic",
    "predict_proba",
    "evaluate",
]


@dataclass(frozen=True)
class FiniteJoint:
    """A joint distribution over a finite X x Y grid."""

    probs: np.ndarray

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=float)
        if probs.ndim != 2 or probs.shape[0] < 1 or probs.shape[1] < 2:
            raise ValueError("probs must be |X| x |Y| with |X| >= 1, |Y| >= 2")
        if probs.min() < 0:
            raise ValueError("probabilities must be non-negative")
        if abs(probs.sum() - 1.0) > 1e-12:
            raise ValueError(f"total mass {probs.sum()} differs from 1 by more than 1e-12")
        probs = probs.copy()
        probs.setflags(write=False)
        object.__setattr__(self, "probs", probs)

    @property
    def n_x(self) -> int:
        return self.probs.shape[0]

    @property
    def n_y(self) -> int:
        return self.probs.shape[1]

    def marginal_x(self) -> np.ndarray:
        return self.probs.sum(axis=1)

    @staticmethod
    def random(n_x: int, n_y: int, gen: np.random.Generator) -> "FiniteJoint":
        raw = gen.random((n_x, n_y)) + 1e-3
        return FiniteJoint(raw / raw.sum())


def _kl_discrete(q: np.ndarray, p: np.ndarray) -> float:
    """KL(q || p) for flat non-negative arrays; +inf on support violation."""
    q = q.ravel()
    p = p.ravel()
    mask = q > 0
    if np.any(p[mask] == 0):
        return math.inf
    return float(np.sum(q[mask] * (np.log(q[mask]) - np.log(p[mask]))))


@dataclass(frozen=True)
class DecompositionResult:
    excess_loss: float
    joint_kl: float
    marginal_kl: float

    @property
    def finite(self) -> bool:
        return math.isfinite(self.joint_kl)

    @property
    def identity_gap(self) -> float:
        if not self.finite:
            return math.nan
        return self.excess_loss - (self.joint_kl - self.marginal_kl)


def logloss_decomposition(q: FiniteJoint, p: FiniteJoint) -> DecompositionResult:
    """Excess log-loss of p's Bayes predictor under q, plus both KL terms.

    ``excess_loss`` is the difference of the two expected losses under q,
    each a sum over q's support: of -log p(y | x) (p's Bayes predictor) and
    of -log q(y | x) (q's Bayes risk); ``joint_kl - marginal_kl`` is the
    other side of the identity.  The loss is infinite exactly when p lacks
    mass that q has, that is when ``joint_kl`` is; then ``finite`` is False
    and ``excess_loss`` is inf.
    """
    if q.probs.shape != p.probs.shape:
        raise ValueError("joints must share the same support grid")
    qx, px = q.marginal_x(), p.marginal_x()
    joint_kl = _kl_discrete(q.probs, p.probs)
    marginal_kl = _kl_discrete(qx, px)
    if math.isinf(joint_kl):
        return DecompositionResult(math.inf, joint_kl, marginal_kl)
    x, y = np.nonzero(q.probs)  # q's support, where px and qx are positive
    mass = q.probs[x, y]
    loss = -float(np.sum(mass * np.log(p.probs[x, y] / px[x])))
    risk = -float(np.sum(mass * np.log(mass / qx[x])))
    return DecompositionResult(loss - risk, joint_kl, marginal_kl)


# ---------------------------------------------------------------------------
# logistic classifier
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrainingMeta:
    iterations: int
    converged: bool
    grad_norm: float
    objective_trace: tuple[float, ...]


@dataclass(frozen=True)
class ClassifierModel:
    """Linear classifier: weight matrix (classes x features) + bias.

    For two classes a single sigmoid row is stored and ``classes`` records
    the label values in order (negative, positive).
    """

    weights: np.ndarray
    bias: np.ndarray
    classes: np.ndarray
    training_meta: TrainingMeta


_ARMIJO = 1e-4  # sufficient decrease, as a fraction of the directional derivative
# Backtracking halvings before the line search gives up: 2**-1100 underflows
# to 0, so by then any finite step no longer moves theta.
_MAX_HALVINGS = 1100


def _sigmoid_link(z, y_index):
    """Sigmoid loss on one logit column: mean loss, residual, curvature map."""
    from scipy.special import expit, log_expit

    sign = (2.0 * y_index - 1.0)[:, None]
    loss = -float(np.mean(log_expit(sign * z)))
    pos = expit(z)
    weight = pos * (1.0 - pos)
    return loss, pos - y_index[:, None], lambda u: weight * u


def _softmax_link(z, y_index):
    """Multinomial loss on one logit column per class."""
    from scipy.special import log_softmax

    rows = np.arange(z.shape[0])
    logp = log_softmax(z, axis=1)
    loss = -float(logp[rows, y_index].mean())
    prob = np.exp(logp)
    resid = prob.copy()
    resid[rows, y_index] -= 1.0
    return loss, resid, lambda u: prob * (u - np.sum(prob * u, axis=1, keepdims=True))


def _conjugate_gradient(hessp, grad, rtol, max_steps):
    """Approximate solution of ``H p = -grad`` by CG from p = 0.

    Stops once the residual norm falls to ``rtol * ||grad||`` or after
    ``max_steps`` steps.  A direction without positive curvature (which
    takes l2_strength = 0 or saturated probabilities), or with curvature so
    small that the CG step length overflows, ends the solve with the step
    found so far, or with steepest descent if there is none.
    """
    step = np.zeros_like(grad)
    resid = -grad
    direction = resid.copy()
    rr = float(np.vdot(resid, resid))
    stop = rtol * rtol * rr
    for i in range(max_steps):
        h_dir = hessp(direction)
        curvature = float(np.vdot(direction, h_dir))
        # A subnormal curvature overflows rr / curvature: treat it as none.
        alpha = rr / curvature if curvature > 0.0 else math.inf
        if not math.isfinite(alpha):
            return step if i else -grad
        step += alpha * direction
        resid -= alpha * h_dir
        rr_next = float(np.vdot(resid, resid))
        if rr_next <= stop:
            break
        direction = resid + (rr_next / rr) * direction
        rr = rr_next
    return step


def _line_search(objective, theta, step, value, grad, grad_norm):
    """Backtracking (Armijo) search along ``step`` from ``theta``.

    Returns the first accepted trial as (theta, value, grad, curvature,
    grad_norm), or None once a halved step no longer moves theta.
    """
    slope = float(np.vdot(grad, step))
    t = 1.0
    trial = theta + step
    for _ in range(_MAX_HALVINGS):
        trial_value, trial_grad, trial_curvature = objective(trial)
        trial_norm = float(np.linalg.norm(trial_grad))
        # Near the optimum rounding can hide the decrease Armijo asks for; a
        # step that does not raise the objective and shrinks the gradient is
        # then still progress.
        if (trial_value <= value + _ARMIJO * t * slope
                or (trial_value <= value and trial_norm < grad_norm)):
            return trial, trial_value, trial_grad, trial_curvature, trial_norm
        t *= 0.5
        trial = theta + t * step
        if np.array_equal(trial, theta):
            break
    return None


def train_logistic(train: LabeledDataset, l2_strength: float = 1.0, *,
                   max_iter: int = 500, tol: float = 1e-6,
                   init: ClassifierModel | None = None) -> ClassifierModel:
    """Fit the l2-regularized logistic model by Newton-CG (truncated Newton).

    Objective: mean log-loss + (l2_strength / 2) ||weights||^2 (bias
    unregularized), with the sigmoid link for two classes and multinomial
    softmax otherwise.  Each Newton iteration solves for its step by
    conjugate gradients on Hessian-vector products
    ``X'(s * X v) / n + l2_strength * v`` (plus the bias row), so memory
    stays O(nnz + d): no (d+1)^2 Hessian, no dense copy of a sparse X.  CG
    stops at relative residual ``min(0.5, sqrt(||grad||))`` or after one
    step per parameter; backtracking (Armijo) keeps the objective
    non-increasing.  Softmax's bias-shift direction is flat, but the
    gradient is orthogonal to it, so CG never leaves the range of the
    Hessian.

    Weights start at zero, or at ``init``'s weights and bias, which must have
    this training set's classes and feature count: from a nearby optimum,
    fewer iterations reach the same ``tol``.  Iteration stops when the
    gradient norm reaches ``tol`` (converged), or, recorded as
    non-converged, after ``max_iter`` Newton iterations or when no step
    along the Newton direction lowers the objective: the line search halves
    the step until the objective falls or the step no longer moves the
    weights.  ``tol`` must be positive and finite and ``max_iter`` at least 1.
    """
    if not 0 <= l2_strength < math.inf:
        raise ValueError(f"l2_strength must be >= 0 and finite, got {l2_strength!r}")
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be > 0 and finite, got {tol!r}")
    if not max_iter >= 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter!r}")
    x = train.features
    if not np.all(np.isfinite(x.data if sp.issparse(x) else x)):
        raise ValueError("features contain non-finite values")
    classes = np.unique(train.labels)
    if classes.size < 2:
        raise ValueError(f"training set has a single class ({classes.tolist()}); need >= 2")
    n, d = x.shape
    xt = x.T
    y_index = np.searchsorted(classes, train.labels)
    binary = classes.size == 2
    link = _sigmoid_link if binary else _softmax_link

    # Parameters live in one (d+1) x k array: weight rows, then the bias row;
    # k is 1 for the sigmoid link and the class count for softmax.
    def backward(resid, w):
        out = np.empty((d + 1, resid.shape[1]))
        out[:d] = xt @ resid / n + l2_strength * w
        out[d] = resid.mean(axis=0)
        return out

    def objective(theta):
        w = theta[:d]
        loss, resid, curvature = link(x @ w + theta[d], y_index)
        value = loss + 0.5 * l2_strength * float(np.vdot(w, w))
        return value, backward(resid, w), curvature

    theta = np.zeros((d + 1, 1 if binary else classes.size))
    if init is not None:
        if not np.array_equal(init.classes, classes):
            raise ValueError(f"init classes {init.classes.tolist()} differ from the "
                             f"training classes {classes.tolist()}")
        if init.weights.shape[1] != d:
            raise ValueError(f"init has {init.weights.shape[1]} features, "
                             f"the training set has {d}")
        theta[:d] = init.weights.T
        theta[d] = init.bias
    value, grad, curvature = objective(theta)
    grad_norm = float(np.linalg.norm(grad))
    trace = [value]
    iterations = 0
    while grad_norm > tol and iterations < max_iter:
        step = _conjugate_gradient(
            lambda v: backward(curvature(x @ v[:d] + v[d]), v[:d]),
            grad, min(0.5, math.sqrt(grad_norm)), theta.size)
        accepted = _line_search(objective, theta, step, value, grad, grad_norm)
        if accepted is None:
            break
        theta, value, grad, curvature, grad_norm = accepted
        trace.append(value)
        iterations += 1
    meta = TrainingMeta(iterations=iterations, converged=grad_norm <= tol,
                        grad_norm=grad_norm, objective_trace=tuple(trace))
    return ClassifierModel(weights=theta[:d].T.copy(), bias=theta[d].copy(), classes=classes,
                           training_meta=meta)


def predict_proba(model: ClassifierModel, features) -> np.ndarray:
    """Class probabilities (n x n_classes) in ``model.classes`` order."""
    from scipy.special import expit, softmax

    logits = np.asarray(features @ model.weights.T) + model.bias
    if model.weights.shape[0] == 1:  # one sigmoid row for two classes
        pos = expit(logits[:, 0])
        return np.column_stack([1.0 - pos, pos])
    return softmax(logits, axis=1)


def evaluate(model: ClassifierModel, test: LabeledDataset,
             positive_label: int = 1) -> dict[str, float | None]:
    """The sweep metrics on a tagged test set, as the mapping a sweep cell
    records.

    ``recall_p1`` is the true-positive rate for ``positive_label`` within
    the forget-tagged slice and ``macro_f1_p2`` averages per-class F1 over
    the classes present in the preserve slice; each is None when its slice
    has no such row.  ``logloss`` is the mean log-loss over the whole test
    set, and ``acc_class_<label>`` the accuracy on each label present in it.
    """
    proba = predict_proba(model, test.features)
    # One count table of (slice, true label, predicted label) over every
    # label in the test set or the model; slice 0 is P1, slice 1 is P2.
    labels = np.union1d(test.labels, model.classes)
    k = labels.size
    true = np.searchsorted(labels, test.labels)
    pred = np.searchsorted(labels, model.classes)[np.argmax(proba, axis=1)]
    cell = ((test.group == P2) * k + true) * k + pred
    counts = np.bincount(cell, minlength=2 * k * k).reshape(2, k, k)

    recall_p1 = None
    pos = np.searchsorted(labels, positive_label)
    if pos < k and labels[pos] == positive_label and counts[0, pos].any():
        recall_p1 = float(counts[0, pos, pos] / counts[0, pos].sum())

    macro_f1 = None
    table = counts[1]
    actual = table.sum(axis=1)
    if actual.any():
        tp = np.diagonal(table)
        predicted = table.sum(axis=0)
        precision = np.divide(tp, predicted, out=np.zeros(k), where=predicted > 0)
        recall = np.divide(tp, actual, out=np.zeros(k), where=actual > 0)
        total = precision + recall
        f1 = np.divide(2.0 * precision * recall, total, out=np.zeros(k), where=total > 0)
        macro_f1 = float(np.mean(f1[actual > 0]))

    # Each row's probability of its own label; 0 for a class the model never saw.
    own = np.sum(proba * (test.labels[:, None] == model.classes), axis=1)
    with np.errstate(divide="ignore"):
        losses = -np.log(own)
    metrics = {"recall_p1": recall_p1, "macro_f1_p2": macro_f1,
               "logloss": float(np.mean(losses))}
    whole = counts.sum(axis=0)
    rows = whole.sum(axis=1)
    for c in np.flatnonzero(rows):
        metrics[f"acc_class_{int(labels[c])}"] = float(whole[c, c] / rows[c])
    return metrics
