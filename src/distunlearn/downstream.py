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
two classes and multinomial softmax otherwise.  It works on Hessian-vector
products, so memory stays linear in the nonzeros and the feature count.  No
stochasticity enters anywhere, so retraining is bit-reproducible.
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
    "Metrics",
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


def _bayes_logloss(q: FiniteJoint, p: FiniteJoint) -> float:
    """Expected log-loss under q of the Bayes predictor of p."""
    qx = q.marginal_x()
    px = p.marginal_x()
    total = 0.0
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
            total -= q.probs[x, y] * math.log(cond_p[y])
    return total


def _entropy_conditional(q: FiniteJoint) -> float:
    """Bayes-optimal risk under q: expected conditional label entropy."""
    qx = q.marginal_x()
    total = 0.0
    for x in range(q.n_x):
        if qx[x] == 0:
            continue
        cond = q.probs[x] / qx[x]
        nz = cond > 0
        total -= qx[x] * float(np.sum(cond[nz] * np.log(cond[nz])))
    return total


@dataclass(frozen=True)
class DecompositionResult:
    excess_loss: float
    joint_kl: float
    marginal_kl: float
    finite: bool

    @property
    def identity_gap(self) -> float:
        if not self.finite:
            return math.nan
        return self.excess_loss - (self.joint_kl - self.marginal_kl)


def logloss_decomposition(q: FiniteJoint, p: FiniteJoint) -> DecompositionResult:
    """Excess log-loss of p's Bayes predictor under q, plus both KL terms.

    ``excess_loss`` is computed from the two expected losses directly;
    ``joint_kl - marginal_kl`` is the other side of the identity.  Support
    violations are reported through ``finite=False`` with infinite values.
    """
    if q.probs.shape != p.probs.shape:
        raise ValueError("joints must share the same support grid")
    joint_kl = _kl_discrete(q.probs, p.probs)
    marginal_kl = _kl_discrete(q.marginal_x(), p.marginal_x())
    loss = _bayes_logloss(q, p)
    if math.isinf(joint_kl) or math.isinf(loss):
        return DecompositionResult(math.inf, joint_kl, marginal_kl, finite=False)
    excess = loss - _entropy_conditional(q)
    return DecompositionResult(excess, joint_kl, marginal_kl, finite=True)


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

    @property
    def binary(self) -> bool:
        return self.classes.size == 2 and self.weights.shape[0] == 1


def _matvec(x, w):
    out = x @ w
    return np.asarray(out).ravel() if sp.issparse(x) else out


_ARMIJO = 1e-4  # sufficient decrease, as a fraction of the directional derivative
_MAX_HALVINGS = 40  # backtracking steps before the line search gives up


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
    along the Newton direction lowers the objective.
    """
    if l2_strength < 0:
        raise ValueError("l2_strength must be >= 0")
    x = train.features
    if sp.issparse(x):
        if not np.all(np.isfinite(x.data)):
            raise ValueError("features contain non-finite values")
    elif not np.all(np.isfinite(x)):
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
        slope = float(np.vdot(grad, step))
        t = 1.0
        for _ in range(_MAX_HALVINGS):
            trial = theta + t * step
            trial_value, trial_grad, trial_curvature = objective(trial)
            trial_norm = float(np.linalg.norm(trial_grad))
            # Near the optimum rounding can hide the decrease Armijo asks
            # for; a step that does not raise the objective and shrinks the
            # gradient is then still progress.
            if (trial_value <= value + _ARMIJO * t * slope
                    or (trial_value <= value and trial_norm < grad_norm)):
                break
            t *= 0.5
        else:
            break
        theta, value, grad, curvature = trial, trial_value, trial_grad, trial_curvature
        grad_norm = trial_norm
        trace.append(value)
        iterations += 1
    meta = TrainingMeta(iterations=iterations, converged=grad_norm <= tol,
                        grad_norm=grad_norm, objective_trace=tuple(trace))
    return ClassifierModel(weights=theta[:d].T.copy(), bias=theta[d].copy(), classes=classes,
                           training_meta=meta)


def predict_proba(model: ClassifierModel, features) -> np.ndarray:
    """Class probabilities (n x n_classes) in ``model.classes`` order."""
    from scipy.special import expit, softmax

    if model.binary:
        z = _matvec(features, model.weights[0]) + model.bias[0]
        pos = expit(z)
        return np.column_stack([1.0 - pos, pos])
    logits = np.asarray(features @ model.weights.T) + model.bias
    return softmax(logits, axis=1)


@dataclass(frozen=True)
class Metrics:
    """Evaluation summary; slice-dependent metrics are None when undefined."""

    recall_p1: float | None
    macro_f1_p2: float | None
    accuracy_per_class: dict[int, float]
    logloss: float


def _f1(tp: int, fp: int, fn: int) -> float:
    precision = tp / (tp + fp) if tp + fp > 0 else 0.0
    recall = tp / (tp + fn) if tp + fn > 0 else 0.0
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def evaluate(model: ClassifierModel, test: LabeledDataset,
             positive_label: int = 1) -> Metrics:
    """Compute the sweep metrics on a tagged test set.

    ``recall_p1`` is the true-positive rate for ``positive_label`` within
    the forget-tagged slice; ``macro_f1_p2`` averages per-class F1 over the
    classes present in the preserve slice; per-class accuracy covers the
    whole test set.
    """
    proba = predict_proba(model, test.features)
    preds = model.classes[np.argmax(proba, axis=1)]

    p1_mask = test.group == P1
    p2_mask = test.group == P2

    recall_p1 = None
    pos_mask = p1_mask & (test.labels == positive_label)
    if pos_mask.any():
        recall_p1 = float(np.mean(preds[pos_mask] == positive_label))

    macro_f1 = None
    if p2_mask.any():
        true2 = test.labels[p2_mask]
        pred2 = preds[p2_mask]
        f1s = []
        for c in np.unique(true2):
            tp = int(np.sum((pred2 == c) & (true2 == c)))
            fp = int(np.sum((pred2 == c) & (true2 != c)))
            fn = int(np.sum((pred2 != c) & (true2 == c)))
            f1s.append(_f1(tp, fp, fn))
        macro_f1 = float(np.mean(f1s))

    per_class = {}
    for c in np.unique(test.labels):
        mask = test.labels == c
        per_class[int(c)] = float(np.mean(preds[mask] == c))

    # Each row's probability of its own label; 0 for a class the model never saw.
    own = np.sum(proba * (test.labels[:, None] == model.classes), axis=1)
    with np.errstate(divide="ignore"):
        losses = -np.log(own)
    return Metrics(
        recall_p1=recall_p1,
        macro_f1_p2=macro_f1,
        accuracy_per_class=per_class,
        logloss=float(np.mean(losses)),
    )
