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
grouped into sections, with the keys that ``KEYS`` declares; values are
literal, with no ``%`` interpolation) and accepts
repeated ``--set section.key=value`` overrides and ``--out``.  The sweeps also
take ``--seed`` (the master seed) and ``--allow-partial``: without it, a
sweep with a failed cell exits 1.  Both end in one summary: the cells written
and failed, each rule's half-target budget and each later rule's saving
against the first.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import sys

from .bounds import bound_random, bound_selective, budget_random, budget_selective
from .frontier import bernoulli_family, frontier_expfamily, frontier_gaussian
from .writer import FORMATS, write_rows

# The sweep, data and scoring modules load scipy.sparse, so only the
# commands that run them import them.

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


def _parse_seed(text) -> int:
    value = int(text)
    if value < 0:
        raise ValueError(f"{value} is negative; a seed is a non-negative integer")
    return value


def _parse_seeds(text: str) -> tuple[int, ...]:
    """Comma list of seeds, or a..b range (inclusive)."""
    text = text.strip()
    if ".." in text:
        lo, hi = (_parse_seed(p) for p in text.split(".."))
        if hi < lo:
            raise ValueError(f"range {text!r}: the end precedes the start")
        return tuple(range(lo, hi + 1))
    return tuple(_parse_seed(p) for p in text.split(",") if p.strip())


def _parse_names(text: str) -> tuple[str, ...]:
    return tuple(p.strip() for p in text.split(",") if p.strip())


def _parse_bool(text: str) -> bool:
    states = configparser.ConfigParser.BOOLEAN_STATES
    if text.lower() not in states:
        raise ValueError(f"{text!r} is not a boolean; use one of {', '.join(states)}")
    return states[text.lower()]


def _one_of(*allowed: str):
    """Parser that accepts exactly the names in ``allowed``."""
    def parse(text: str) -> str:
        if text not in allowed:
            raise ValueError(f"{text!r} is not one of {', '.join(allowed)}")
        return text
    return parse


# section -> key -> (parser, default).  A list parser that returns () keeps
# the default.  A None default means unset, and the command decides.
KEYS = {
    "sweep": {"rules": (_parse_names, None),
              "budgets": (_parse_floats, tuple(round(0.05 * i, 2) for i in range(21))),
              "seeds": (_parse_seeds, tuple(range(5))), "master_seed": (_parse_seed, 0)},
    "gaussian": {"mu2": (float, 0.5), "n1": (int, 1000), "n2": (int, 1000)},
    "dataset": {"kind": (_one_of("tsv", "csv", "synthetic"), None), "path": (str, None),
                "schema": (str, None), "n_p1": (int, 240), "n_p2": (int, 960),
                "seed": (_parse_seed, 1), "n_specific": (int, 12), "n_shared": (int, 60),
                "specific_frac": (float, 0.2)},
    "tfidf": {"max_features": (int, 20000), "ngram_min": (int, 1), "ngram_max": (int, 2),
              "sublinear_tf": (_parse_bool, True), "min_df": (int, 1),
              "lowercase": (_parse_bool, True), "stopword_removal": (_parse_bool, False)},
    "pipeline": {"train_fraction": (float, 0.7), "downsample_ratio": (float, 5.0),
                 "p1_label": (int, 1)},
    "train": {"l2_strength": (float, 1e-3), "max_iter": (int, 500), "tol": (float, 1e-6)},
    "scoring": {"k": (int, 10), "sigma": (float, None), "ridge_scale": (float, 1e-6),
                "bandwidth_cap": (int, 2048)},
    "score": {"rule": (str, "cos-mu2")},
    "frontier": {"family": (_one_of("gaussian", "bernoulli"), "gaussian"),
                 "divergence": (float, None), "q1": (float, None), "q2": (float, None),
                 "alphas": (_parse_floats, None)},
    "bounds": {"n1": (int, 1000), "n2": (int, 1000), "delta": (float, 0.1),
               "divergence": (float, 0.125), "f": (_parse_floats, None),
               "mechanisms": (lambda text: tuple(map(_one_of(*BOUND_MECHANISMS),
                                                     _parse_names(text))),
                              tuple(BOUND_MECHANISMS)),
               "target_alpha": (float, None), "target_epsilon": (float, None)},
    "output": {"path": (str, None), "format": (_one_of(*FORMATS), "csv")},
}


@contextlib.contextmanager
def _config_errors(where: str):
    """Exit with one line naming ``where``, like the other config errors."""
    try:
        yield
    except ValueError as exc:
        raise SystemExit(f"invalid {where}: {exc}") from exc


def _load_config(args) -> dict[str, dict]:
    """Section -> key -> value: each key of ``KEYS`` at its default, unless
    the config file or a ``--set`` override (which wins) gives it a value."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",), interpolation=None)
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            try:
                parser.read_file(fh)
            except configparser.Error as exc:  # no section header, a repeated key, ...
                raise SystemExit(f"invalid config file {args.config}: "
                                 + " ".join(str(exc).split())) from exc
    for item in args.set or []:
        name, eq, value = item.partition("=")
        section, dot, key = name.partition(".")
        if not (eq and dot):
            raise SystemExit(f"--set expects section.key=value, got {item!r}")
        parser.read_dict({section.strip(): {key.strip(): value.strip()}})
    cfg = {section: {key: default for key, (_, default) in keys.items()}
           for section, keys in KEYS.items()}
    for section in parser.sections():
        if section not in KEYS:
            keys = [f"{section}.{key}" for key in parser[section]]
            raise SystemExit(f"invalid config: unknown section [{section}]"
                             + (f" in {', '.join(keys)}" if keys else "")
                             + f"; known: {', '.join(KEYS)}")
        for key, raw in parser.items(section):
            if key not in KEYS[section]:
                raise SystemExit(f"invalid config: unknown key {section}.{key}; "
                                 f"known: {', '.join(KEYS[section])}")
            with _config_errors(f"{section}.{key}"):
                value = KEYS[section][key][0](raw)
            if value != ():
                cfg[section][key] = value
    return cfg


def _sweep_config(cfg, args, default_rules: tuple[str, ...]):
    from .mechanisms import ScoringParams
    from .sweep import SweepConfig

    sweep = cfg["sweep"]
    master_seed = sweep["master_seed"]
    if args.seed is not None:
        with _config_errors("--seed"):
            master_seed = _parse_seed(args.seed)
    with _config_errors("[sweep] config"):
        return SweepConfig(
            rules=sweep["rules"] or default_rules, budget_fractions=sweep["budgets"],
            seeds=sweep["seeds"], master_seed=master_seed,
            scoring=ScoringParams(**cfg["scoring"]))


def _tfidf_config(cfg):
    from .data_io import TfidfConfig

    with _config_errors("[tfidf] config"):
        return TfidfConfig(**cfg["tfidf"])


def _finish_sweep(result, sweep_cfg, cfg, args, metric: str) -> int:
    """Write a sweep's cells, print its summary and return its exit code; the
    half-target and saving lines on ``metric`` need a grid with budget 0."""
    from .sweep import emit, half_target_budget, saving

    path, fmt = _output(cfg, args)
    emit(result, fmt, path)
    failed = result.n_failed()
    print(f"wrote {len(result.rows)} cells to {path} ({failed} failed)")
    if 0.0 in sweep_cfg.budget_fractions:
        # half_target_budget raises for a rule with no budget-0 value
        agg = result.aggregate(metric)
        half = {rule: half_target_budget(result, rule, metric)
                for rule, budget in agg if budget == 0.0}
        for rule in sweep_cfg.rules:
            if rule not in half:  # every budget-0 cell of the rule failed
                text = "undefined (no budget-0 cell)"
            elif agg[(rule, 0.0)] <= 0.0:  # half of it is met before any deletion
                text = f"undefined (initial value {agg[(rule, 0.0)]:g})"
            else:
                text = "not reached" if half[rule] is None else f"{half[rule]:.4f}"
            print(f"half-target budget [{rule}]: {text}")
        base = sweep_cfg.rules[0]
        for rule in sweep_cfg.rules[1:]:
            s = (saving(result, base, rule, metric)
                 if None not in (half.get(base), half.get(rule)) else None)
            print(f"saving [{rule} vs {base}]: {'undefined' if s is None else f'{s:.4f}'}")
    return 1 if failed and not args.allow_partial else 0


def _output(cfg, args):
    path = args.out or cfg["output"]["path"]
    if path is None:
        raise SystemExit("no output path: pass --out or set [output] path")
    return path, cfg["output"]["format"]


def _load_dataset(cfg):
    from .data_io import load_features_csv, load_text_tsv, read_schema_file
    from .synthetic import two_cluster_corpus

    synthetic = dict(cfg["dataset"])
    kind, path, schema = (synthetic.pop(key) for key in ("kind", "path", "schema"))
    if kind == "synthetic":
        return two_cluster_corpus(**synthetic)
    if kind is None:
        raise SystemExit("invalid dataset.kind: set [dataset] kind = tsv | csv | synthetic")
    if path is None:
        raise SystemExit(f"invalid dataset.path: a {kind} dataset needs [dataset] path")
    if kind == "tsv":
        return load_text_tsv(path)
    if schema is None:
        raise SystemExit("invalid dataset.schema: csv datasets need [dataset] schema = "
                         "<sidecar path>")
    return load_features_csv(path, read_schema_file(schema))


def _cmd_frontier(args) -> int:
    cfg = _load_config(args)
    frontier = cfg["frontier"]
    # Each family reads its own keys, at these defaults when unset.
    own = {"divergence": 2.0} if frontier["family"] == "gaussian" else {"q1": 0.3, "q2": 0.7}
    for key in ("divergence", "q1", "q2"):
        if key in own and frontier[key] is None:
            frontier[key] = own[key]
        elif key not in own and frontier[key] is not None:
            raise SystemExit(f"invalid frontier.{key}: the {frontier['family']} family "
                             f"reads {', '.join(f'frontier.{k}' for k in own)} only")
    if "divergence" in own:
        family, divergence = None, frontier["divergence"]
        multiples = (0.5, 1.0, 1.1, 1.5, 2.0, 3.0, 5.0, 10.0)
    else:
        with _config_errors("[frontier] family"):
            family = bernoulli_family(frontier["q1"], frontier["q2"])
        divergence = family.divergence()
        multiples = (1.1, 1.5, 2.0, 3.0, 5.0)
    rows = []
    for alpha in frontier["alphas"] or tuple(round(divergence * m, 12) for m in multiples):
        if family is None:
            point, lambda_star = frontier_gaussian(divergence, alpha), None
        else:
            res = frontier_expfamily(family, alpha)
            point, lambda_star = res.point, res.lambda_star
        rows.append({"alpha": point.alpha, "epsilon": point.epsilon,
                     "dominated": point.dominated, "lambda_star": lambda_star,
                     "divergence": divergence})
    path, fmt = _output(cfg, args)
    write_rows(rows, fmt, path,
               ["alpha", "epsilon", "dominated", "lambda_star", "divergence"])
    print(f"wrote {len(rows)} frontier rows to {path}")
    return 0


def _cmd_bounds(args) -> int:
    cfg = _load_config(args)
    bounds = cfg["bounds"]
    n1, n2, delta, divergence = (bounds[key] for key in ("n1", "n2", "delta", "divergence"))
    # For n1 < 0 the default grid is f = 0 alone, so the bound rejects n1.
    f_grid = bounds["f"] or range(0, max(n1, 0) + 1, max(1, n1 // 20))
    for f in f_grid:
        if not float(f).is_integer():
            raise ValueError(f"bounds.f entry {f!r} is not a whole row count")
    targets = (bounds["target_alpha"], bounds["target_epsilon"])
    if targets.count(None) == 1:
        missing = "target_alpha" if targets[0] is None else "target_epsilon"
        raise ValueError(f"bounds.{missing} is unset; a budget needs both targets")

    def row(mechanism, f, binding=""):
        b = BOUND_MECHANISMS[mechanism][0](n1, n2, f, delta, divergence)
        return {"mechanism": mechanism, "f": f, "alpha_lower": b.alpha_lower,
                "epsilon_upper": b.epsilon_upper, "vacuous": b.vacuous,
                "binding_constraint": binding}

    rows = []
    for mechanism in bounds["mechanisms"]:
        rows += [row(mechanism, int(f)) for f in f_grid]
        if None not in targets:
            budget = BOUND_MECHANISMS[mechanism][1](n1, n2, delta, divergence, *targets)
            if budget.applicable:
                rows.append(row(mechanism, budget.f, budget.binding))
            else:
                print(f"{mechanism}: budget inapplicable ({budget.reason})", file=sys.stderr)
    path, fmt = _output(cfg, args)
    write_rows(rows, fmt, path, ["mechanism", "f", "alpha_lower", "epsilon_upper",
                                 "vacuous", "binding_constraint"])
    print(f"wrote {len(rows)} bound rows to {path}")
    return 0


def _cmd_simulate(args) -> int:
    from .sweep import run_gaussian_sweep

    cfg = _load_config(args)
    sweep_cfg = _sweep_config(cfg, args, ("random", "selective-gaussian"))
    result = run_gaussian_sweep(**cfg["gaussian"], config=sweep_cfg)
    return _finish_sweep(result, sweep_cfg, cfg, args, "alpha_remaining")


def _cmd_score(args) -> int:
    from .data_io import P1, TfidfVectorizer, forget_tags
    from .mechanisms import ScoringParams, score_features

    cfg = _load_config(args)
    source = _load_dataset(cfg)
    rule = cfg["score"]["rule"]
    if hasattr(source, "texts"):
        is_p1 = forget_tags(source, cfg["pipeline"]["p1_label"])[1] == P1
        matrix = TfidfVectorizer(_tfidf_config(cfg)).fit_transform(source.texts)
        p1_rows, p2_rows = matrix[is_p1], matrix[~is_p1]
    else:
        p1_rows = source.features[source.p1_positions()]
        p2_rows = source.features[source.p2_positions()]
    scored = score_features(p1_rows, p2_rows, rule, ScoringParams(**cfg["scoring"]))
    rows = [{"index": i, "score": s, "rule": rule} for i, s in enumerate(scored.score.tolist())]
    path, fmt = _output(cfg, args)
    write_rows(rows, fmt, path, ["index", "score", "rule"])
    print(f"wrote {len(rows)} scores to {path}")
    return 0


def _cmd_experiment(args) -> int:
    from .sweep import PipelineConfig, run_dataset_sweep

    cfg = _load_config(args)
    sweep_cfg = _sweep_config(cfg, args, ("random", "lr-cos"))
    with _config_errors("[pipeline]/[train] config"):
        pipeline = PipelineConfig(tfidf=_tfidf_config(cfg), **cfg["pipeline"], **cfg["train"])
    source = _load_dataset(cfg)
    result = run_dataset_sweep(source, pipeline, sweep_cfg)
    return _finish_sweep(result, sweep_cfg, cfg, args, "recall_p1")


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
        p.add_argument("--out", help="output path override")
        if name in ("simulate", "experiment"):
            p.add_argument("--seed", type=int, default=None, help="master seed override")
            p.add_argument("--allow-partial", action="store_true",
                           help="exit 0 even if some sweep cells failed")
        p.set_defaults(fn=fn)
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ValueError as exc:  # a value the library rejects, e.g. gaussian.n1=0
        raise SystemExit(f"invalid {args.command} input: {exc}") from exc
    except OSError as exc:  # an input file that cannot be read, or an output path
        raise SystemExit(f"{args.command} failed: {exc}") from exc


if __name__ == "__main__":
    sys.exit(main())
