"""The four benchmark workloads.

Each workload builds its inputs from the seed in ``setup`` (untimed), runs
one pass through the library in ``run_pass`` (timed), and checks a pass's
outputs in ``check`` (untimed).  The library receives only the generated
inputs.  ``tiny=True`` shrinks every size so that a pass takes milliseconds;
it serves the self-test and the set-up time probe, never a measurement.
"""

from __future__ import annotations

import csv
import hashlib
import math
import time

import numpy as np

import distunlearn as du
from distunlearn import bounds as _bounds

BUDGETS = tuple(round(0.05 * i, 2) for i in range(21))
TINY_BUDGETS = (0.0, 0.5, 1.0)


def _sha(*chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk if isinstance(chunk, bytes) else repr(chunk).encode())
    return h.hexdigest()


class Workload:
    """One workload; a pass returns whatever ``check`` needs."""

    name = ""
    batch = True  # a pass is one request; otherwise each query is one

    def __init__(self, seed: int, workdir, tiny: bool):
        self.seed = seed
        self.workdir = workdir
        self.tiny = tiny
        self.budgets = TINY_BUDGETS if tiny else BUDGETS
        self.latencies_ns: list[list[int]] = []  # per pass, for query workloads

    def setup(self):
        raise NotImplementedError

    def run_pass(self, api):
        raise NotImplementedError

    def items(self) -> int:
        """Items one pass carries: cells, rows or queries."""
        raise NotImplementedError

    def check(self, output) -> tuple[str, list[str]]:
        """(hash of the pass's output, list of check misses)."""
        raise NotImplementedError


class TextSweep(Workload):
    """Criterion-10 text sweep: TSV ingest, TF-IDF, split, score, train."""

    name = "text-sweep"

    def setup(self):
        n_p1, n_p2 = (24, 96) if self.tiny else (240, 960)
        corpus = du.two_cluster_corpus(n_p1=n_p1, n_p2=n_p2, seed=self.seed, n_specific=12,
                                       n_shared=60, specific_frac=0.2)
        self.tsv = self.workdir / "corpus.tsv"
        self.out = self.workdir / "text-sweep.csv"
        du.write_text_tsv(corpus, self.tsv)
        self.config = du.SweepConfig(rules=("random", "lr-cos"), budget_fractions=self.budgets,
                                     seeds=tuple(range(1 if self.tiny else 10)),
                                     master_seed=self.seed)
        self.pipeline = du.PipelineConfig(
            tfidf=du.TfidfConfig(max_features=2000, ngram_min=1, ngram_max=1,
                                 sublinear_tf=True, min_df=1),
            train_fraction=0.7, downsample_ratio=5.0, l2_strength=1e-3,
            max_iter=500, tol=1e-7, p1_label=1)

    def items(self):
        return len(self.config.rules) * len(self.budgets) * len(self.config.seeds)

    def run_pass(self, api):
        corpus = api.load_text_tsv(self.tsv)
        result = api.run_dataset_sweep(corpus, self.pipeline, self.config)
        api.emit(result, "csv", self.out)
        return result

    def check(self, result):
        misses = []
        if len(result.rows) != self.items():
            misses.append(f"{len(result.rows)} cells, expected {self.items()}")
        for row in result.rows:
            cell = (row.rule, row.budget_fraction, row.seed)
            if row.failed:
                # A cell may fail only because its training set lost a class.
                if "single class" not in (row.failure_reason or ""):
                    misses.append(f"{cell} failed: {row.failure_reason}")
                continue
            for name, value in row.metrics.items():
                if name == "f":
                    continue
                if name == "logloss":
                    if not (value >= 0.0 and math.isfinite(value)):
                        misses.append(f"{cell} logloss {value}")
                elif value is not None and not 0.0 <= value <= 1.0:
                    misses.append(f"{cell} {name}={value} outside [0, 1]")
        return _sha(self.out.read_bytes()), misses


class GaussianSweep(Workload):
    """Univariate Gaussian sweep at n1 = n2 = 1e5: plan builders and refits."""

    name = "gaussian-sweep"

    def setup(self):
        self.n = 1000 if self.tiny else 100_000
        self.out = self.workdir / "gaussian-sweep.csv"
        self.config = du.SweepConfig(rules=("random", "selective-gaussian"),
                                     budget_fractions=self.budgets,
                                     seeds=tuple(range(2 if self.tiny else 5)),
                                     master_seed=self.seed)

    def items(self):
        return len(self.config.rules) * len(self.budgets) * len(self.config.seeds)

    def run_pass(self, api):
        result = api.run_gaussian_sweep(0.5, self.n, self.n, self.config)
        saved = api.saving(result, "random", "selective-gaussian", "alpha_remaining")
        api.emit(result, "csv", self.out)
        return result, saved

    def check(self, output):
        result, saved = output
        misses = []
        if len(result.rows) != self.items() or result.n_failed():
            misses.append(f"{len(result.rows)} cells with {result.n_failed()} failed")
        for seed in self.config.seeds:
            alphas = [result.cell("selective-gaussian", b, seed).metrics["alpha"]
                      for b in self.budgets]
            # Near full deletion the few forget samples left sit at the
            # preserve mean, so by sampling alone alpha can dip by ~1e-5 of
            # its range at the last step (seen: 3e-5 at seed 12).  A wrong
            # deletion order moves it by a large share of the range.
            slack = 1e-3 * (max(alphas) - min(alphas))
            for b, lo, hi in zip(self.budgets[1:], alphas, alphas[1:]):
                if hi < lo - slack:
                    misses.append(f"selective alpha falls at budget {b}, seed {seed}")
        return _sha(self.out.read_bytes(), saved), misses


class FeatureScore(Workload):
    """`distunlearn score` at scale: dense CSV ingest, three rules, 21 plans each."""

    name = "feature-score"
    rules = ("knn-ratio", "lr-maha", "cos-mu2")

    def setup(self):
        n, d = (60, 5) if self.tiny else (4000, 50)
        gen = np.random.default_rng([self.seed, 7])
        x1 = gen.normal(0.0, 1.0, (n, d))
        x2 = gen.normal(0.3, 1.0, (n, d))
        self.csv = self.workdir / "features.csv"
        with open(self.csv, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["id", "label", "group"] + [f"x{j}" for j in range(d)])
            for group, label, block in (("P1", 1, x1), ("P2", 0, x2)):
                for i, row in enumerate(block):
                    writer.writerow([f"{group}-{i}", label, group] + [repr(v) for v in row.tolist()])
        self.schema = {"label_col": "label", "group_col": "group", "id_col": "id"}
        self.n1 = n
        self.n_rows = 2 * n

    def items(self):
        return self.n_rows

    def run_pass(self, api):
        ds = api.load_features_csv(self.csv, self.schema)
        x1 = ds.features[ds.p1_positions()]
        x2 = ds.features[ds.p2_positions()]
        out = []
        for rule in self.rules:
            scored = api.score_features(x1, x2, rule, du.ScoringParams())
            plans = []
            for b in self.budgets:
                plan = api.plan_from_scores(scored, rule, int(round(b * x1.shape[0])))
                edited = api.apply_plan(ds, plan)
                plans.append((plan.removed_indices, edited.n,
                              int(np.count_nonzero(edited.group == "P2"))))
            out.append((rule, scored, plans))
        return out

    def check(self, out):
        misses = []
        digest = []
        n2 = self.n_rows - self.n1
        for rule, scored, plans in out:
            scores = np.array([s.score for s in scored])
            if scores.size != self.n1 or not np.all(np.isfinite(scores)):
                misses.append(f"{rule}: {scores.size} scores, not all finite")
            previous: set[int] = set()
            for removed, n_left, p2_left in plans:
                if not previous <= set(removed):
                    misses.append(f"{rule}: plan of size {len(removed)} is not nested")
                if n_left != self.n_rows - len(removed) or p2_left != n2:
                    misses.append(f"{rule}: apply_plan left {n_left} rows, {p2_left} in P2")
                previous = set(removed)
            digest += [rule, scores.tobytes(), [p[0] for p in plans]]
        return _sha(*digest), misses


class TheoryQueries(Workload):
    """A seeded mix of single bound, budget and frontier queries."""

    name = "theory-queries"
    batch = False
    kinds = ("bound_random", "bound_selective", "budget_random", "budget_selective",
             "frontier_gaussian", "frontier_expfamily")

    def setup(self):
        gen = np.random.default_rng([self.seed, 11])
        families = [du.bernoulli_family(0.3, 0.7)]
        for d in (1, 2, 10):
            a = gen.normal(0.0, 1.0, (d, d))
            cov = a @ a.T / d + np.eye(d)
            families.append(du.gaussian_family(np.zeros(d), gen.normal(0.0, 0.8, d), cov))
        self.families = [(fam, fam.divergence()) for fam in families]
        # Equal counts of each kind, and of each family among the frontier
        # queries, so the seed varies parameters and order but not the mix.
        count = 10 if self.tiny else 1000
        kinds = [k for k in self.kinds for _ in range(count)]
        kinds = [kinds[i] for i in gen.permutation(len(kinds))]
        self.queries = []
        n_frontier = 0
        for kind in kinds:
            n1 = int(10 ** gen.uniform(3, 5))
            n2 = int(10 ** gen.uniform(3, 5))
            delta = float(gen.choice([0.01, 0.05, 0.1]))
            div = float(gen.uniform(0.05, 3.0))
            if kind.startswith("bound"):
                args = (n1, n2, int(gen.integers(0, n1 + 1)), delta, div)
            elif kind.startswith("budget"):
                args = (n1, n2, delta, div, div * float(gen.uniform(0.02, 0.125)),
                        div * float(gen.uniform(0.05, 1.5)))
            elif kind == "frontier_gaussian":
                args = (div, div * float(gen.uniform(0.5, 4.0)))
            else:
                fam, fam_div = self.families[n_frontier % len(self.families)]
                n_frontier += 1
                args = (fam, fam_div * float(gen.uniform(1.05, 4.0)))
            self.queries.append((kind, args))

    def items(self):
        return len(self.queries)

    def run_pass(self, api):
        calls = [(getattr(api, kind), args) for kind, args in self.queries]
        results = []
        latencies = []
        self.latencies_ns.append(latencies)
        clock = time.perf_counter_ns
        for fn, args in calls:
            start = clock()
            result = fn(*args)
            latencies.append(clock() - start)
            results.append(result)
        return results

    def check(self, results):
        misses = []
        digest = []
        for (kind, args), res in zip(self.queries, results):
            if kind == "frontier_expfamily":
                alpha = args[1]
                if not res.residual <= 1e-9 * max(1.0, alpha):
                    misses.append(f"frontier residual {res.residual} at alpha {alpha}")
                digest.append((res.point.epsilon, res.lambda_star))
            elif kind == "frontier_gaussian":
                digest.append((res.epsilon, res.dominated))
            elif kind.startswith("bound"):
                if res.applicable and not (math.isfinite(res.alpha_lower)
                                           and math.isfinite(res.epsilon_upper)):
                    misses.append(f"{kind}{args}: non-finite applicable bound")
                digest.append((res.alpha_lower, res.epsilon_upper, res.applicable))
            else:
                n1, n2, delta, div, target_alpha, target_eps = args
                if res.applicable:
                    evaluate = (_bounds.bound_random if kind == "budget_random"
                                else _bounds.bound_selective)
                    bound = evaluate(n1, n2, res.f, delta, div)
                    if not (bound.applicable and bound.alpha_lower >= target_alpha
                            and bound.epsilon_upper <= target_eps):
                        misses.append(f"{kind}{args}: f={res.f} misses its targets")
                digest.append((res.f, res.applicable, res.binding))
        return _sha(digest), misses


WORKLOADS = {w.name: w for w in (TextSweep, GaussianSweep, FeatureScore, TheoryQueries)}
