"""Command-line interface.

Five subcommands, one per kind of output:

- ``frontier``   : (alpha, epsilon) frontier rows for a divergence level or
                   a named exponential family
- ``bounds``     : guarantee-bound rows over a budget grid, plus budget
                   solutions when targets are given
- ``simulate``   : synthetic Gaussian deletion sweeps
- ``score``      : one-shot scoring of a dataset (CSV: index, score, rule)
- ``experiment`` : full dataset sweeps (TF-IDF + logistic pipeline)

Each subcommand reads an INI-style config file (UTF-8 ``key = value`` lines
grouped into sections; see README for the key list) and accepts repeated
``--set section.key=value`` overrides plus a few dedicated flags.  ``--seed``
overrides the master seed.  Exit code is 0 on success and 1 when any sweep
cell failed, unless ``--allow-partial`` is given.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import sys

import numpy as np

from .bounds import bound_random, bound_selective, budget_random, budget_selective
from .data_io import (
    TfidfConfig,
    load_features_csv,
    load_text_tsv,
    read_schema_file,
)
from .frontier import bernoulli_family, frontier_expfamily, frontier_gaussian
from .mechanisms import ScoringParams, score_features
from .sweep import (
    PipelineConfig,
    SweepConfig,
    emit,
    half_target_budget,
    run_dataset_sweep,
    run_gaussian_sweep,
    saving,
)
from .synthetic import two_cluster_corpus

DEFAULT_BUDGETS = tuple(round(0.05 * i, 2) for i in range(21))
BOUND_MECHANISMS = {"random": (bound_random, budget_random),
                    "selective": (bound_selective, budget_selective)}


def _parse_floats(text: str) -> tuple[float, ...]:
    """Comma list of floats, or start:stop:step (stop included when reached)."""
    text = text.strip()
    if ":" in text:
        start, stop, step = (float(p) for p in text.split(":"))
        if step == 0.0 or not (stop - start) / step >= 0.0:
            raise ValueError(f"range {text!r}: step must be nonzero and lead from start to stop")
        # Floor, with a tolerance so that "0:0.3:0.1" still reaches 0.3.
        count = int((stop - start) / step + 1e-9)
        return tuple(round(start + i * step, 10) for i in range(count + 1))
    return tuple(float(p) for p in text.split(",") if p.strip())


def _parse_ints(text: str) -> tuple[int, ...]:
    """Comma list of ints, or a..b range (inclusive)."""
    text = text.strip()
    if ".." in text:
        lo, hi = (int(p) for p in text.split(".."))
        return tuple(range(lo, hi + 1))
    return tuple(int(p) for p in text.split(",") if p.strip())


def _load_config(args) -> configparser.ConfigParser:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            parser.read_file(fh)
    for item in args.set or []:
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise SystemExit(f"--set expects section.key=value, got {item!r}")
        key, value = item.split("=", 1)
        section, option = key.split(".", 1)
        if not parser.has_section(section.strip()):
            parser.add_section(section.strip())
        parser.set(section.strip(), option.strip(), value.strip())
    return parser


@contextlib.contextmanager
def _config_errors(where: str):
    """Exit with one line naming ``where``, like the other config errors."""
    try:
        yield
    except ValueError as exc:
        raise SystemExit(f"invalid {where}: {exc}") from exc


def _get(cfg, section, option, fallback=None, cast=str):
    """A config value parsed by ``cast``, or ``fallback`` (unparsed) if unset."""
    if cfg.has_option(section, option):
        raw = cfg.get(section, option)
        if cast is bool:
            return raw.strip().lower() in ("1", "true", "yes", "on")
        with _config_errors(f"{section}.{option}"):
            return cast(raw)
    return fallback


def _sweep_config(cfg, args, default_rules="random,selective-gaussian") -> SweepConfig:
    rules = tuple(r.strip() for r in _get(cfg, "sweep", "rules", default_rules).split(",")
                  if r.strip())
    budgets = _get(cfg, "sweep", "budgets", (), _parse_floats) or DEFAULT_BUDGETS
    seeds = _get(cfg, "sweep", "seeds", tuple(range(5)), _parse_ints)
    master = args.seed if args.seed is not None else _get(cfg, "sweep", "master_seed", 0, int)
    scoring = ScoringParams(
        k=_get(cfg, "scoring", "k", 10, int),
        sigma=_get(cfg, "scoring", "sigma", None, float),
        ridge_scale=_get(cfg, "scoring", "ridge_scale", 1e-6, float),
        seed=_get(cfg, "scoring", "seed", 0, int),
        bandwidth_cap=_get(cfg, "scoring", "bandwidth_cap", 2048, int),
    )
    with _config_errors("[sweep] config"):
        return SweepConfig(rules=rules, budget_fractions=budgets, seeds=seeds,
                           master_seed=master, scoring=scoring)


def _tfidf_config(cfg) -> TfidfConfig:
    with _config_errors("[tfidf] config"):
        return TfidfConfig(
            max_features=_get(cfg, "tfidf", "max_features", 20000, int),
            ngram_min=_get(cfg, "tfidf", "ngram_min", 1, int),
            ngram_max=_get(cfg, "tfidf", "ngram_max", 2, int),
            sublinear_tf=_get(cfg, "tfidf", "sublinear_tf", True, bool),
            min_df=_get(cfg, "tfidf", "min_df", 1, int),
            lowercase=_get(cfg, "tfidf", "lowercase", True, bool),
            stopword_removal=_get(cfg, "tfidf", "stopword_removal", False, bool),
        )


def _pipeline_config(cfg) -> PipelineConfig:
    return PipelineConfig(
        tfidf=_tfidf_config(cfg),
        train_fraction=_get(cfg, "pipeline", "train_fraction", 0.7, float),
        downsample_ratio=_get(cfg, "pipeline", "downsample_ratio", 5.0, float),
        l2_strength=_get(cfg, "train", "l2_strength", 1e-3, float),
        max_iter=_get(cfg, "train", "max_iter", 500, int),
        tol=_get(cfg, "train", "tol", 1e-6, float),
        p1_label=_get(cfg, "pipeline", "p1_label", 1, int),
    )


def _output(cfg, args):
    path = args.out or _get(cfg, "output", "path")
    if path is None:
        raise SystemExit("no output path: pass --out or set [output] path")
    fmt = _get(cfg, "output", "format", "csv")
    return path, fmt


def _load_dataset(cfg):
    kind = _get(cfg, "dataset", "kind")
    if kind is None:
        raise SystemExit("config needs [dataset] kind = tsv | csv | synthetic")
    if kind == "tsv":
        return load_text_tsv(_get(cfg, "dataset", "path"))
    if kind == "csv":
        schema_path = _get(cfg, "dataset", "schema")
        if schema_path is None:
            raise SystemExit("csv datasets need [dataset] schema = <sidecar path>")
        return load_features_csv(_get(cfg, "dataset", "path"), read_schema_file(schema_path))
    if kind == "synthetic":
        return two_cluster_corpus(
            n_p1=_get(cfg, "dataset", "n_p1", 240, int),
            n_p2=_get(cfg, "dataset", "n_p2", 960, int),
            seed=_get(cfg, "dataset", "seed", 1, int),
            n_specific=_get(cfg, "dataset", "n_specific", 12, int),
            n_shared=_get(cfg, "dataset", "n_shared", 60, int),
            specific_frac=_get(cfg, "dataset", "specific_frac", 0.2, float),
        )
    raise SystemExit(f"unknown dataset kind {kind!r}")


def _cmd_frontier(args) -> int:
    cfg = _load_config(args)
    alphas = _get(cfg, "frontier", "alphas", (), _parse_floats) or None
    family_kind = _get(cfg, "frontier", "family", "gaussian")
    rows = []
    if family_kind == "gaussian":
        divergence = _get(cfg, "frontier", "divergence", None, float)
        if divergence is None:
            mu1 = _get(cfg, "frontier", "mu1", 0.0, float)
            mu2 = _get(cfg, "frontier", "mu2", 2.0, float)
            sigma2 = _get(cfg, "frontier", "sigma2", 1.0, float)
            divergence = (mu2 - mu1) ** 2 / (2.0 * sigma2)
        if alphas is None:
            alphas = tuple(round(divergence * m, 12) for m in
                           (0.5, 1.0, 1.1, 1.5, 2.0, 3.0, 5.0, 10.0))
        for alpha in alphas:
            point = frontier_gaussian(divergence, alpha)
            rows.append({
                "alpha": point.alpha, "epsilon": point.epsilon,
                "dominated": point.dominated, "lambda_star": None,
                "divergence": divergence,
            })
    elif family_kind == "bernoulli":
        with _config_errors("[frontier] family"):
            fam = bernoulli_family(_get(cfg, "frontier", "q1", 0.3, float),
                                   _get(cfg, "frontier", "q2", 0.7, float))
        divergence = fam.divergence()
        if alphas is None:
            alphas = tuple(round(divergence * m, 12) for m in (1.1, 1.5, 2.0, 3.0, 5.0))
        for alpha in alphas:
            res = frontier_expfamily(fam, alpha)
            rows.append({
                "alpha": res.point.alpha, "epsilon": res.point.epsilon,
                "dominated": res.point.dominated, "lambda_star": res.lambda_star,
                "divergence": divergence,
            })
    else:
        raise SystemExit(f"unknown frontier family {family_kind!r}")
    path, fmt = _output(cfg, args)
    emit(rows, fmt, path,
         fieldnames=["alpha", "epsilon", "dominated", "lambda_star", "divergence"])
    print(f"wrote {len(rows)} frontier rows to {path}")
    return 0


def _cmd_bounds(args) -> int:
    cfg = _load_config(args)
    n1 = _get(cfg, "bounds", "n1", 1000, int)
    n2 = _get(cfg, "bounds", "n2", 1000, int)
    delta = _get(cfg, "bounds", "delta", 0.1, float)
    divergence = _get(cfg, "bounds", "divergence", 0.125, float)
    # For n1 < 0 the default grid is f = 0 alone, so the bound rejects n1.
    f_values = tuple(int(f) for f in _get(cfg, "bounds", "f", None, _parse_floats)
                     or range(0, max(n1, 0) + 1, max(1, n1 // 20)))
    mechanisms = tuple(m.strip() for m in
                       _get(cfg, "bounds", "mechanisms", "random,selective").split(","))
    for mechanism in mechanisms:
        if mechanism not in BOUND_MECHANISMS:
            raise SystemExit(f"invalid bounds.mechanisms: unknown mechanism {mechanism!r}; "
                             f"use {' or '.join(BOUND_MECHANISMS)}")
    target_alpha = _get(cfg, "bounds", "target_alpha", None, float)
    target_epsilon = _get(cfg, "bounds", "target_epsilon", None, float)
    rows = []
    for mechanism in mechanisms:
        evaluator, solver = BOUND_MECHANISMS[mechanism]
        for f in f_values:
            b = evaluator(n1, n2, f, delta, divergence)
            rows.append({
                "mechanism": mechanism, "f": f,
                "alpha_lower": b.alpha_lower, "epsilon_upper": b.epsilon_upper,
                "vacuous": b.vacuous, "binding_constraint": "",
            })
        if target_alpha is not None and target_epsilon is not None:
            budget = solver(n1, n2, delta, divergence, target_alpha, target_epsilon)
            if budget.applicable:
                b = evaluator(n1, n2, budget.f, delta, divergence)
                rows.append({
                    "mechanism": mechanism, "f": budget.f,
                    "alpha_lower": b.alpha_lower, "epsilon_upper": b.epsilon_upper,
                    "vacuous": b.vacuous, "binding_constraint": budget.binding,
                })
            else:
                print(f"{mechanism}: budget inapplicable ({budget.reason})", file=sys.stderr)
    path, fmt = _output(cfg, args)
    emit(rows, fmt, path, fieldnames=["mechanism", "f", "alpha_lower", "epsilon_upper",
                                      "vacuous", "binding_constraint"])
    print(f"wrote {len(rows)} bound rows to {path}")
    return 0


def _cmd_simulate(args) -> int:
    cfg = _load_config(args)
    sweep_cfg = _sweep_config(cfg, args)
    mu2 = _get(cfg, "gaussian", "mu2", 0.5, float)
    n1 = _get(cfg, "gaussian", "n1", 1000, int)
    n2 = _get(cfg, "gaussian", "n2", 1000, int)
    result = run_gaussian_sweep(mu2, n1, n2, sweep_cfg)
    path, fmt = _output(cfg, args)
    emit(result, fmt, path)
    print(f"wrote {len(result.rows)} cells to {path}")
    if 1.0 in sweep_cfg.budget_fractions and 0.0 in sweep_cfg.budget_fractions:
        for rule in sweep_cfg.rules:
            half = half_target_budget(result, rule, "alpha_remaining")
            print(f"half-target budget [{rule}]: "
                  f"{'not reached' if half is None else f'{half:.4f}'}")
        if len(sweep_cfg.rules) >= 2:
            base = sweep_cfg.rules[0]
            for rule in sweep_cfg.rules[1:]:
                s = saving(result, base, rule, "alpha_remaining")
                print(f"saving [{rule} vs {base}]: "
                      f"{'undefined' if s is None else f'{s:.4f}'}")
    return 1 if result.n_failed() and not args.allow_partial else 0


def _cmd_score(args) -> int:
    cfg = _load_config(args)
    source = _load_dataset(cfg)
    rule = _get(cfg, "score", "rule", "cos-mu2")
    params = _sweep_config(cfg, args).scoring
    if hasattr(source, "texts"):
        vec_cfg = _tfidf_config(cfg)
        from .data_io import TfidfVectorizer

        matrix = TfidfVectorizer(vec_cfg).fit_transform(source.texts)
        labels = np.asarray(source.labels)
        p1_label = _get(cfg, "pipeline", "p1_label", 1, int)
        p1_rows = matrix[labels == p1_label]
        p2_rows = matrix[labels != p1_label]
    else:
        p1_rows = source.features[source.p1_positions()]
        p2_rows = source.features[source.p2_positions()]
    scored = score_features(p1_rows, p2_rows, rule, params)
    rows = [{"index": s.index, "score": s.score, "rule": rule} for s in scored]
    path, fmt = _output(cfg, args)
    emit(rows, fmt, path, fieldnames=["index", "score", "rule"])
    print(f"wrote {len(rows)} scores to {path}")
    return 0


def _cmd_experiment(args) -> int:
    cfg = _load_config(args)
    sweep_cfg = _sweep_config(cfg, args, default_rules="random,lr-cos")
    source = _load_dataset(cfg)
    pipeline = _pipeline_config(cfg)
    result = run_dataset_sweep(source, pipeline, sweep_cfg)
    path, fmt = _output(cfg, args)
    emit(result, fmt, path)
    failed = result.n_failed()
    print(f"wrote {len(result.rows)} cells to {path} ({failed} failed)")
    if 0.0 in sweep_cfg.budget_fractions:
        for rule in sweep_cfg.rules:
            half = half_target_budget(result, rule, "recall_p1")
            print(f"half-target budget [{rule}]: "
                  f"{'not reached' if half is None else f'{half:.4f}'}")
    return 1 if failed and not args.allow_partial else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="distunlearn",
        description="Distributional unlearning: frontiers, bounds, deletion sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (
        ("frontier", _cmd_frontier),
        ("bounds", _cmd_bounds),
        ("simulate", _cmd_simulate),
        ("score", _cmd_score),
        ("experiment", _cmd_experiment),
    ):
        p = sub.add_parser(name)
        p.add_argument("--config", help="INI config file")
        p.add_argument("--set", action="append", metavar="SECTION.KEY=VALUE",
                       help="override a config value (repeatable)")
        p.add_argument("--seed", type=int, default=None, help="master seed override")
        p.add_argument("--out", help="output path override")
        p.add_argument("--allow-partial", action="store_true",
                       help="exit 0 even if some sweep cells failed")
        p.set_defaults(fn=fn)
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ValueError as exc:  # a value the library rejects, e.g. gaussian.n1=0
        raise SystemExit(f"invalid {args.command} input: {exc}") from exc


if __name__ == "__main__":
    sys.exit(main())
