"""Outside-in span tracing for the benchmark.

Spans are recorded around calls into distunlearn's public functions, from
the benchmark's own files: the package source is never edited.  A function
is traced by replacing the name it is called through:

- calls the benchmark makes itself go through the :class:`Api` namespace,
  whose attributes are either the library functions or traced wrappers;
- calls the library makes internally are traced by rebinding the name at the
  call site.  ``sweep`` and ``bounds`` import their helpers with
  ``from ... import``, so the names patched are ``distunlearn.sweep.<fn>`` and
  ``distunlearn.bounds.g_inverse``, not the defining modules.  The TF-IDF
  methods are patched on the ``TfidfVectorizer`` class.

A span is (id, parent id, name, start ns, end ns, run id, attributes).  Spans
stay in memory and are written as JSON lines when the run ends.
"""

from __future__ import annotations

import json
import math
import os
import time
import tracemalloc

import numpy as np

import distunlearn
from distunlearn import bounds as _bounds
from distunlearn import data_io as _data_io
from distunlearn import sweep as _sweep

# Public functions the benchmark calls directly, keyed by the span name.
DIRECT = {
    "data_io.load_text_tsv": (_data_io, "load_text_tsv"),
    "data_io.load_features_csv": (_data_io, "load_features_csv"),
    "sweep.run_dataset_sweep": (_sweep, "run_dataset_sweep"),
    "sweep.run_gaussian_sweep": (_sweep, "run_gaussian_sweep"),
    "sweep.saving": (_sweep, "saving"),
    "sweep.emit": (_sweep, "emit"),
    "mechanisms.score_features": (distunlearn.mechanisms, "score_features"),
    "mechanisms.plan_from_scores": (distunlearn.mechanisms, "plan_from_scores"),
    "mechanisms.apply_plan": (distunlearn.mechanisms, "apply_plan"),
    "bounds.bound_random": (_bounds, "bound_random"),
    "bounds.bound_selective": (_bounds, "bound_selective"),
    "bounds.budget_random": (_bounds, "budget_random"),
    "bounds.budget_selective": (_bounds, "budget_selective"),
    "frontier.frontier_gaussian": (distunlearn.frontier, "frontier_gaussian"),
    "frontier.frontier_expfamily": (distunlearn.frontier, "frontier_expfamily"),
}

# Names rebound at the library's own call sites: (module, attribute, span name).
CALL_SITES = [
    (_sweep, "train_logistic", "downstream.train_logistic"),
    (_sweep, "evaluate", "downstream.evaluate"),
    (_sweep, "split_row_positions", "data_io.split"),
    (_sweep, "split_stratified", "data_io.split"),
    (_sweep, "downsample_p2", "data_io.downsample_p2"),
    (_sweep, "score_features", "mechanisms.score_features"),
    (_sweep, "random_removal", "mechanisms.random_removal"),
    (_sweep, "selective_removal_gaussian", "mechanisms.selective_removal_gaussian"),
    (_sweep, "plan_from_scores", "mechanisms.plan_from_scores"),
    (_sweep, "apply_plan", "mechanisms.apply_plan"),
    (_sweep, "pooled_mle", "gaussian.pooled_mle"),
    (_sweep, "kl_gaussian", "gaussian.kl_gaussian"),
    (_bounds, "g_inverse", "gaussian.g_inverse"),
    (_data_io.TfidfVectorizer, "fit", "data_io.tfidf_fit"),
    (_data_io.TfidfVectorizer, "transform", "data_io.tfidf_transform"),
]

PLAN_SPANS = ("mechanisms.random_removal", "mechanisms.selective_removal_gaussian",
              "mechanisms.plan_from_scores")
SWEEP_SPANS = ("sweep.run_dataset_sweep", "sweep.run_gaussian_sweep")


def _attrs(name, args, result, attrs):
    """Counts recorded at the boundary, where the work happens."""
    if name == "downstream.train_logistic":
        meta = result.training_meta
        attrs["iterations"] = meta.iterations
        attrs["converged"] = bool(meta.converged)
    elif name in PLAN_SPANS:  # forget-side rows ranked or drawn from
        attrs["rows"] = int(args[0]) if name == "mechanisms.random_removal" else len(args[0])
    elif name == "mechanisms.score_features" and args[2] == "knn-ratio":
        n1, n2 = args[0].shape[0], args[1].shape[0]
        attrs["knn_computed_mb"] = 8.0 * (n1 * n1 + n1 * n2) / 1e6
    elif name == "frontier.frontier_expfamily":
        attrs["residual"] = float(result.residual)
    elif name in ("bounds.budget_random", "bounds.budget_selective"):
        attrs["binding"] = result.binding
    elif name == "sweep.emit":
        attrs["bytes"] = os.path.getsize(args[2])
    elif name == "data_io.load_features_csv":
        attrs["bytes"] = os.path.getsize(args[0])


class Tracer:
    """Records spans in memory; one instance per traced run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._next_id = 0
        self._saved: list[tuple] = []

    def wrap(self, name, fn, measure_memory=False):
        tracer = self

        def traced(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1] if tracer._stack else None
            tracer._stack.append(span_id)
            attrs = {}
            if measure_memory:
                tracemalloc.start()
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                attrs["error"] = type(exc).__name__
                raise
            finally:
                end = time.perf_counter_ns()
                if measure_memory:
                    attrs["peak_traced_mb"] = tracemalloc.get_traced_memory()[1] / 1e6
                    tracemalloc.stop()
                tracer._stack.pop()
                tracer.spans.append((span_id, parent, name, start, end, attrs))
            _attrs(name, args, result, attrs)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        for owner, attr, name in CALL_SITES:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original,
                                           measure_memory=name == "mechanisms.score_features"))

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def write_jsonl(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, name, start, end, attrs in self.spans:
                fh.write(json.dumps({
                    "id": span_id, "parent": parent, "name": name,
                    "start_ns": start, "end_ns": end, "run": self.run_id, **attrs,
                }) + "\n")


class Api:
    """The library functions the benchmark calls, traced or not."""

    def __init__(self, tracer: Tracer | None):
        for name, (module, attr) in DIRECT.items():
            fn = getattr(module, attr)
            if tracer is not None:
                fn = tracer.wrap(name, fn, measure_memory=name == "mechanisms.score_features")
            setattr(self, attr, fn)
        self.tracer = tracer

    def pass_span(self, fn):
        """Run one pass of a workload, as the root span when tracing."""
        if self.tracer is None:
            return fn()
        return self.tracer.wrap("bench.pass", fn)()


# ---------------------------------------------------------------------------
# per-layer metrics from spans
# ---------------------------------------------------------------------------


def _percentile(values, q):
    return float(np.percentile(values, q)) if values else 0.0


def layer_metrics(spans, passes: int, traced_items_per_s: float) -> dict[str, float]:
    """Every per-layer metric; times and counts are per pass.

    A layer the workload never reaches reports 0.
    """
    by_name: dict[str, list[tuple]] = {}
    child_ns: dict[int, int] = {}
    for span in spans:
        by_name.setdefault(span[2], []).append(span)
        if span[1] is not None:
            child_ns[span[1]] = child_ns.get(span[1], 0) + span[4] - span[3]

    def group(*names):
        return [s for n in names for s in by_name.get(n, [])]

    def busy(*names):
        return sum(s[4] - s[3] for s in group(*names)) / 1e9

    def dur_list(name, scale):
        return [(s[4] - s[3]) / scale for s in by_name.get(name, [])]

    def p50_us(name):
        return _percentile(dur_list(name, 1e3), 50)

    per = 1.0 / passes
    m = {}

    train = by_name.get("downstream.train_logistic", [])
    ok = [s for s in train if "error" not in s[5]]
    m["downstream.train_logistic.calls"] = len(train) * per
    m["downstream.train_logistic.busy_s"] = busy("downstream.train_logistic") * per
    m["downstream.train_logistic.p50_ms"] = _percentile(dur_list("downstream.train_logistic", 1e6), 50)
    m["downstream.train_logistic.p99_ms"] = _percentile(dur_list("downstream.train_logistic", 1e6), 99)
    m["downstream.train_logistic.iterations_mean"] = (
        float(np.mean([s[5]["iterations"] for s in ok])) if ok else 0.0)
    m["downstream.train_logistic.converged_share"] = (
        sum(s[5]["converged"] for s in ok) / len(ok) if ok else 0.0)
    m["downstream.train_logistic.failed"] = (len(train) - len(ok)) * per
    m["downstream.evaluate.busy_s"] = busy("downstream.evaluate") * per

    for key in ("tfidf_fit", "tfidf_transform", "split", "downsample_p2", "load_text_tsv",
                "load_features_csv"):
        m[f"data_io.{key}.busy_s"] = busy(f"data_io.{key}") * per
    csv_spans = by_name.get("data_io.load_features_csv", [])
    csv_busy = busy("data_io.load_features_csv")
    m["data_io.load_features_csv.mb_per_s"] = (
        sum(s[5]["bytes"] for s in csv_spans) / 1e6 / csv_busy if csv_busy else 0.0)

    scores = by_name.get("mechanisms.score_features", [])
    m["mechanisms.score_features.calls"] = len(scores) * per
    m["mechanisms.score_features.busy_s"] = busy("mechanisms.score_features") * per
    m["mechanisms.score_features.peak_traced_mb"] = max(
        (s[5]["peak_traced_mb"] for s in scores), default=0.0)
    m["mechanisms.knn_ratio.computed_mb"] = max(
        (s[5].get("knn_computed_mb", 0.0) for s in scores), default=0.0)
    plans = group(*PLAN_SPANS)
    plan_busy = busy(*PLAN_SPANS)
    m["mechanisms.plan.calls"] = len(plans) * per
    m["mechanisms.plan.busy_s"] = plan_busy * per
    m["mechanisms.plan.rows_per_s"] = (
        sum(s[5]["rows"] for s in plans) / plan_busy if plan_busy else 0.0)
    m["mechanisms.apply_plan.busy_s"] = busy("mechanisms.apply_plan") * per

    m["gaussian.pooled_mle.busy_s"] = busy("gaussian.pooled_mle") * per
    m["gaussian.kl_gaussian.busy_s"] = busy("gaussian.kl_gaussian") * per
    m["gaussian.g_inverse.calls"] = len(by_name.get("gaussian.g_inverse", [])) * per
    m["gaussian.g_inverse.busy_s"] = busy("gaussian.g_inverse") * per

    expfam = by_name.get("frontier.frontier_expfamily", [])
    m["frontier.frontier_expfamily.calls"] = len(expfam) * per
    m["frontier.frontier_expfamily.busy_s"] = busy("frontier.frontier_expfamily") * per
    m["frontier.frontier_expfamily.p50_us"] = p50_us("frontier.frontier_expfamily")
    m["frontier.frontier_expfamily.p99_us"] = _percentile(
        dur_list("frontier.frontier_expfamily", 1e3), 99)
    m["frontier.frontier_expfamily.residual_max"] = max(
        (s[5]["residual"] for s in expfam if "residual" in s[5]), default=0.0)
    m["frontier.frontier_gaussian.p50_us"] = p50_us("frontier.frontier_gaussian")

    for fn in ("bound_random", "bound_selective", "budget_random", "budget_selective"):
        m[f"bounds.{fn}.p50_us"] = p50_us(f"bounds.{fn}")
    solves = group("bounds.budget_random", "bounds.budget_selective")
    solved = [s for s in solves if "binding" in s[5]]
    m["bounds.budget.consistency_share"] = (
        sum(s[5]["binding"] == "consistency" for s in solved) / len(solved) if solved else 0.0)

    sweeps = group(*SWEEP_SPANS)
    m["sweep.self_s"] = sum(s[4] - s[3] - child_ns.get(s[0], 0) for s in sweeps) / 1e9 * per
    emits = by_name.get("sweep.emit", [])
    m["sweep.emit.busy_s"] = busy("sweep.emit") * per
    m["sweep.emit.bytes"] = sum(s[5]["bytes"] for s in emits) * per

    m["trace.items_per_s"] = traced_items_per_s
    for key, value in m.items():
        if not math.isfinite(value):
            raise ValueError(f"per-layer metric {key} is not finite: {value}")
    return m


# Span names grouped into the layers the acceptance shares are stated for.
LAYERS = {
    "downstream.train_logistic": ("downstream.train_logistic",),
    "downstream.evaluate": ("downstream.evaluate",),
    "data_io.ingest": ("data_io.load_text_tsv", "data_io.load_features_csv"),
    "data_io.tfidf": ("data_io.tfidf_fit", "data_io.tfidf_transform"),
    "data_io.split": ("data_io.split",),
    "data_io.downsample_p2": ("data_io.downsample_p2",),
    "mechanisms.score_features": ("mechanisms.score_features",),
    "mechanisms.plan": PLAN_SPANS,
    "mechanisms.apply_plan": ("mechanisms.apply_plan",),
    "gaussian.pooled_mle": ("gaussian.pooled_mle",),
    "gaussian.kl_gaussian": ("gaussian.kl_gaussian",),
    "frontier.frontier_expfamily": ("frontier.frontier_expfamily",),
    "frontier.frontier_gaussian": ("frontier.frontier_gaussian",),
    "bounds.bound": ("bounds.bound_random", "bounds.bound_selective"),
    "bounds.budget": ("bounds.budget_random", "bounds.budget_selective"),
    "sweep.emit": ("sweep.emit",),
    "sweep.saving": ("sweep.saving",),
}


def layer_shares(spans) -> dict[str, float]:
    """Busy time of each layer as a share of the time spent in passes.

    Layers nested in one another (``g_inverse`` inside the bound solvers)
    are left out, so the shares of the listed layers do not double count.
    """
    total = sum(s[4] - s[3] for s in spans if s[2] == "bench.pass")
    busy = {}
    for s in spans:
        busy[s[2]] = busy.get(s[2], 0) + s[4] - s[3]
    return {layer: sum(busy.get(n, 0) for n in names) / total
            for layer, names in LAYERS.items() if total}
