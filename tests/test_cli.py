import argparse
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from distunlearn.cli import KEYS, _load_config, _parse_floats, main

README = Path(__file__).resolve().parent.parent / "README.md"


def run(argv):
    return main(argv)


def features_csv(directory, labels, values):
    """``--set`` arguments for a features CSV (and its schema) written to
    ``directory``: one row per label, with the label-1 rows in the forget
    group P1."""
    data, schema = directory / "features.csv", directory / "features.schema"
    rows = ["id,label,group," + ",".join(f"x{j}" for j in range(values.shape[1]))]
    rows += [f"r{i},{label},{'P1' if label == 1 else 'P2'}," + ",".join(f"{v:.6f}" for v in x)
             for i, (label, x) in enumerate(zip(labels, values))]
    data.write_text("\n".join(rows) + "\n", encoding="utf-8")
    schema.write_text("label_col=label\ngroup_col=group\nid_col=id\n", encoding="utf-8")
    return ["--set", "dataset.kind=csv", "--set", f"dataset.path={data}",
            "--set", f"dataset.schema={schema}"]


class TestParseFloats:
    def test_ranges_include_stop_in_either_direction(self):
        assert _parse_floats("0:1:0.5") == (0.0, 0.5, 1.0)
        assert _parse_floats("1:0:-0.5") == (1.0, 0.5, 0.0)

    def test_ranges_never_pass_their_stop(self):
        assert _parse_floats("0:59:2")[-1] == 58.0
        assert _parse_floats("0:0.3:0.1")[-1] == 0.3
        assert _parse_floats("1:0.25:-0.25") == (1.0, 0.75, 0.5, 0.25)

    @pytest.mark.parametrize("spec", ["0:1:0", "0:1:-0.5", "1:0:0.5"])
    def test_bad_step_names_the_spec(self, spec):
        with pytest.raises(ValueError, match=spec):
            _parse_floats(spec)


class TestConfigErrors:
    @pytest.mark.parametrize("argv, names", [
        (["simulate", "--set", "sweep.budgets=0:1:0"], ["sweep.budgets", "'0:1:0'"]),
        (["bounds", "--set", "bounds.f=10:0:5"], ["bounds.f", "'10:0:5'"]),
        (["simulate", "--set", "sweep.seeds=a..b"], ["sweep.seeds"]),
        (["simulate", "--set", "sweep.budgets=0.5,0.1"], ["[sweep]", "sorted"]),
        (["frontier", "--set", "frontier.family=bernoulli", "--set", "frontier.q1=1.5"],
         ["[frontier]", "1.5"]),
        # values that pass parsing but that the library or the command rejects
        (["simulate", "--set", "gaussian.n1=0"], ["simulate input", "n1 >= 1"]),
        (["bounds", "--set", "bounds.mechanisms=random,randm"],
         ["bounds.mechanisms", "'randm'"]),
        (["bounds", "--set", "bounds.f=2.5,3.9", "--set", "bounds.mechanisms=random"],
         ["bounds input", "bounds.f", "2.5"]),
        (["experiment", "--set", "dataset.kind=synthetic",
          "--set", "sweep.rules=random,selective-gaussian"],
         ["experiment input", "'selective-gaussian'"]),
        # keys and sections that are not in the table, and values their
        # parser rejects
        (["bounds", "--set", "bogus.key=1"], ["[bogus]", "bogus.key"]),
        (["bounds", "--set", "bounds.mechansims=random"], ["bounds.mechansims", "mechanisms"]),
        (["score", "--set", "dataset.kind=synthetic", "--set", "tfidf.sublinear_tf=ture"],
         ["tfidf.sublinear_tf", "'ture'"]),
        (["frontier", "--set", "frontier.family=poisson"], ["frontier.family", "'poisson'"]),
        (["score", "--set", "dataset.kind=tsv"], ["dataset.path"]),
        (["score", "--set", "dataset.kind=csv", "--set", "dataset.path=x.csv"],
         ["dataset.schema"]),
        # the Gaussian frontier takes its divergence alone, not mu1, mu2, sigma2
        (["frontier", "--set", "frontier.sigma2=1"], ["frontier.sigma2", "divergence"]),
        # each frontier family reads its own keys, not the other family's
        (["frontier", "--set", "frontier.family=bernoulli", "--set", "frontier.divergence=9"],
         ["frontier.divergence", "bernoulli", "frontier.q1"]),
        (["frontier", "--set", "frontier.q1=0.9"],
         ["frontier.q1", "gaussian", "frontier.divergence"]),
        # repeated rules or seeds, which would write a cell twice or run it once
        (["simulate", "--set", "sweep.rules=random,random"],
         ["[sweep] config", "rules must be distinct", "random, random"]),
        (["simulate", "--set", "sweep.seeds=0,0,1"],
         ["[sweep] config", "seeds must be distinct", "0, 0, 1"]),
        # a rule name that is not one of the known rules, in either command
        (["score", "--set", "dataset.kind=synthetic", "--set", "score.rule=tfidf-norm"],
         ["score input", "'tfidf-norm'", "'norm'", "'lr-cos'"]),
        (["experiment", "--set", "dataset.kind=synthetic",
          "--set", "sweep.rules=random,tfidf-norm"],
         ["experiment input", "'tfidf-norm'", "'norm'", "'lr-cos'"]),
        # no dataset kind, and a knn-ratio bandwidth estimate from fewer
        # than two rows
        (["score"], ["dataset.kind", "synthetic"]),
        (["score", "--set", "dataset.kind=synthetic", "--set", "score.rule=knn-ratio",
          "--set", "scoring.bandwidth_cap=1"], ["score input", "bandwidth_cap=1"]),
        (["score", "--set", "dataset.kind=synthetic", "--set", "score.rule=knn-ratio",
          "--set", "scoring.bandwidth_cap=0"], ["score input", "bandwidth_cap=0"]),
        # a budget target without its partner
        (["bounds", "--set", "bounds.target_alpha=0.004"],
         ["bounds input", "bounds.target_epsilon"]),
        (["bounds", "--set", "bounds.target_epsilon=0.05"],
         ["bounds input", "bounds.target_alpha"]),
        # a seed range that runs backwards, and negative seeds, by every key
        # and flag that sets one
        (["simulate", "--set", "sweep.seeds=3..1"], ["sweep.seeds", "'3..1'"]),
        (["simulate", "--set", "sweep.seeds=-1"], ["sweep.seeds", "-1"]),
        (["simulate", "--set", "sweep.master_seed=-2"], ["sweep.master_seed", "-2"]),
        (["score", "--set", "dataset.kind=synthetic", "--set", "dataset.seed=-1"],
         ["dataset.seed", "-1"]),
        (["simulate", "--seed", "-3"], ["--seed", "-3"]),
        # random is a deletion order of the sweeps, not a scoring rule, and
        # has no scoring seed
        (["score", "--set", "dataset.kind=synthetic", "--set", "score.rule=random"],
         ["score input", "'random'", "'norm'", "'lr-cos'"]),
        (["score", "--set", "dataset.kind=synthetic", "--set", "scoring.seed=0"],
         ["scoring.seed", "bandwidth_cap"]),
        # pipeline and training settings outside their range, rejected
        # before the dataset is read
        (["experiment", "--set", "dataset.kind=synthetic",
          "--set", "pipeline.downsample_ratio=0"], ["downsample_ratio", "0.0"]),
        (["experiment", "--set", "pipeline.train_fraction=1"], ["train_fraction", "1.0"]),
        (["experiment", "--set", "pipeline.train_fraction=0"], ["train_fraction", "0.0"]),
        (["experiment", "--set", "train.l2_strength=-1"], ["l2_strength", "-1.0"]),
        (["experiment", "--set", "train.max_iter=0"], ["max_iter", "0"]),
        (["experiment", "--set", "train.tol=-1"], ["tol", "-1.0"]),
        # an infinite penalty or tolerance would fit NaN or stop at once
        (["experiment", "--set", "dataset.kind=synthetic", "--set", "sweep.seeds=0",
          "--set", "sweep.budgets=0,0.5", "--set", "train.l2_strength=inf"],
         ["l2_strength", "finite", "inf"]),
        (["experiment", "--set", "dataset.kind=synthetic", "--set", "sweep.seeds=0",
          "--set", "sweep.budgets=0,0.5", "--set", "train.tol=inf"], ["tol", "finite", "inf"]),
        # a synthetic corpus needs words in both vocabularies
        (["experiment", "--set", "dataset.kind=synthetic", "--set", "dataset.n_specific=0"],
         ["experiment input", "n_specific", "0"]),
        (["score", "--set", "dataset.kind=synthetic", "--set", "dataset.n_shared=0"],
         ["score input", "n_shared", "0"]),
        (["score", "--set", "dataset.kind=synthetic", "--set", "dataset.n_p1=0"],
         ["score input", "at least one document"]),
        (["experiment", "--set", "dataset.kind=synthetic", "--set", "dataset.specific_frac=1"],
         ["experiment input", "specific_frac must lie in (0, 1)"]),
        # a forget label that no document carries
        (["experiment", "--set", "dataset.kind=synthetic", "--set", "pipeline.p1_label=5"],
         ["experiment input", "p1_label=5", "[0, 1]"]),
        (["score", "--set", "dataset.kind=synthetic", "--set", "pipeline.p1_label=5"],
         ["score input", "p1_label=5", "[0, 1]"]),
        # l2-normalised TF-IDF rows all have length 1 up to rounding
        (["score", "--set", "dataset.kind=synthetic", "--set", "score.rule=norm"],
         ["score input", "'norm'", "1e-12"]),
        # ten identical rows, five of them forget rows, have a median
        # distance of 0 up to rounding
        (["score", lambda tmp: features_csv(tmp, [1] * 5 + [0] * 5, np.full((10, 3), 0.3)),
          "--set", "score.rule=knn-ratio", "--set", "scoring.k=2"],
         ["score input", "median pairwise distance is 0"]),
        # a knn-ratio bandwidth that cannot rank: not finite, or so wide that
        # every score is exactly 1
        *[(["score", "--set", "dataset.kind=synthetic", "--set", "score.rule=knn-ratio",
            "--set", f"scoring.sigma={sigma}"], ["[scoring] config", "sigma", sigma])
          for sigma in ("inf", "nan")],
        *[(["score", "--set", "dataset.kind=synthetic", "--set", "score.rule=knn-ratio",
            "--set", f"scoring.sigma={sigma}"], ["score input", "'knn-ratio' cannot rank",
                                                 f"sigma={sigma}"])
          for sigma in ("1e+150", "1e+200")],
        # a Mahalanobis ridge that is negative or not finite
        *[(["score", "--set", "dataset.kind=synthetic", "--set", "score.rule=lr-maha",
            "--set", f"scoring.ridge_scale={ridge}"], ["[scoring] config", "ridge_scale", ridge])
          for ridge in ("-1.0", "nan", "inf")],
        (["experiment", "--set", "dataset.kind=synthetic", "--set", "scoring.sigma=nan"],
         ["[scoring] config", "sigma", "nan"]),
        # a lone forget document would stay in train, leaving recall_p1 empty
        (["experiment", "--set", "dataset.kind=synthetic", "--set", "dataset.n_p1=1",
          "--set", "sweep.budgets=0,0.5"], ["experiment input", "1 forget row(s)", "at least 2"]),
    ])
    def test_bad_value_exits_with_one_line(self, tmp_path, argv, names):
        out = tmp_path / "out.csv"
        # a callable stands for the --set arguments of a file it writes
        argv = [part for arg in argv for part in (arg(tmp_path) if callable(arg) else [arg])]
        with pytest.raises(SystemExit) as info:
            run(argv + ["--out", str(out)])
        message = str(info.value)
        assert message.startswith("invalid ") and "\n" not in message
        for name in names:
            assert name in message
        assert not out.exists()


class TestUsageErrors:
    @pytest.mark.parametrize("argv, message", [
        (["bounds", "--set", "bounds.n1", "--out", "{out}"],
         "--set expects section.key=value, got 'bounds.n1'"),
        (["bounds", "--set", "n1=5", "--out", "{out}"],
         "--set expects section.key=value, got 'n1=5'"),
        (["bounds"], "no output path: pass --out or set [output] path"),
    ])
    def test_exits_with_one_line(self, tmp_path, argv, message):
        out = tmp_path / "out.csv"
        with pytest.raises(SystemExit) as info:
            run([arg.format(out=out) for arg in argv])
        assert str(info.value) == message
        assert not out.exists()


class TestSweepOnlyFlags:
    @pytest.mark.parametrize("argv", [["bounds", "--seed", "3"],
                                      ["frontier", "--allow-partial"],
                                      ["score", "--seed", "3"]])
    def test_other_commands_reject_them(self, tmp_path, capsys, argv):
        out = tmp_path / "out.csv"
        with pytest.raises(SystemExit) as info:
            run(argv + ["--out", str(out)])
        assert info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not out.exists()


class TestMalformedConfigFile:
    @pytest.mark.parametrize("text, fragment", [
        ("n1 = 12\n", "no section headers"),
        ("[bounds]\nn1 = 12\nn1 = 13\n", "'n1'"),
    ])
    def test_exits_with_one_line_naming_the_file(self, tmp_path, text, fragment):
        ini = tmp_path / "run.ini"
        ini.write_text(text, encoding="utf-8")
        out = tmp_path / "out.csv"
        with pytest.raises(SystemExit) as info:
            run(["bounds", "--config", str(ini), "--out", str(out)])
        message = str(info.value)
        assert message.startswith(f"invalid config file {ini}: ") and "\n" not in message
        assert fragment in message
        assert not out.exists()

    def test_percent_in_a_value_is_literal(self, tmp_path):
        ini = tmp_path / "run.ini"
        ini.write_text(f"[bounds]\nn1 = 40\n[output]\npath = {tmp_path / 'a%b.csv'}\n",
                       encoding="utf-8")
        assert run(["bounds", "--config", str(ini)]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a%b.csv", "run.ini"]

    def test_percent_in_a_number_exits_with_one_line(self, tmp_path):
        ini = tmp_path / "run.ini"
        ini.write_text("[bounds]\nn1 = 5%\n", encoding="utf-8")
        out = tmp_path / "out.csv"
        with pytest.raises(SystemExit) as info:
            run(["bounds", "--config", str(ini), "--out", str(out)])
        assert str(info.value).startswith("invalid bounds.n1: ") and "'5%'" in str(info.value)
        assert not out.exists()


class TestResolvedConfig:
    @staticmethod
    def resolve(*overrides, config=None):
        return _load_config(argparse.Namespace(config=config, set=list(overrides)))

    def test_defaults_come_from_the_table(self):
        assert self.resolve() == {section: {key: default for key, (_, default) in keys.items()}
                                  for section, keys in KEYS.items()}

    def test_values_are_parsed_and_set_overrides_the_file(self, tmp_path):
        ini = tmp_path / "run.ini"
        ini.write_text("[tfidf]\nsublinear_tf = off  # inline comment\n"
                       "[bounds]\nn1 = 12\nmechanisms = selective\n", encoding="utf-8")
        cfg = self.resolve("bounds.n1=13", "scoring.sigma=0.5", config=str(ini))
        assert cfg["tfidf"]["sublinear_tf"] is False
        assert cfg["bounds"]["n1"] == 13
        assert cfg["bounds"]["mechanisms"] == ("selective",)
        assert cfg["scoring"]["sigma"] == 0.5

    @pytest.mark.parametrize("key", ["sweep.rules", "sweep.budgets", "sweep.seeds",
                                     "frontier.alphas", "bounds.f", "bounds.mechanisms"])
    def test_empty_list_keeps_the_default(self, key):
        section, option = key.split(".")
        assert self.resolve(f"{key}= ")[section][option] == KEYS[section][option][1]

    def test_readme_lists_every_key(self):
        text = README.read_text(encoding="utf-8")
        table = text.split("### Config keys", 1)[1].split("\n#", 1)[0]
        listed = {}
        for line in table.splitlines():
            cells = [c.strip() for c in re.split(r"(?<!\\)\|", line.strip())[1:-1]]
            if cells and re.fullmatch(r"`\[\w+\]`", cells[0]):
                listed[cells[0].strip("`[]")] = re.findall(r"`(\w+)`", cells[1])
        assert listed == {section: list(keys) for section, keys in KEYS.items()}


class TestIOErrors:
    def test_missing_input_file(self, tmp_path):
        missing = tmp_path / "missing.tsv"
        out = tmp_path / "out.csv"
        with pytest.raises(SystemExit) as info:
            run(["score", "--set", "dataset.kind=tsv", "--set", f"dataset.path={missing}",
                 "--out", str(out)])
        message = str(info.value)
        assert str(missing) in message and "\n" not in message
        assert not out.exists()

    def test_output_in_missing_directory(self, tmp_path):
        out = tmp_path / "absent" / "frontier.csv"
        with pytest.raises(SystemExit) as info:
            run(["frontier", "--out", str(out)])
        message = str(info.value)
        assert str(out) in message and "\n" not in message


class TestFrontierCommand:
    def test_gaussian_frontier_csv(self, tmp_path, capsys):
        out = tmp_path / "frontier.csv"
        code = run(["frontier", "--set", "frontier.divergence=2.0",
                    "--set", "frontier.alphas=2,8", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "alpha,epsilon,dominated,lambda_star,divergence"
        assert lines[1].startswith("2,0,false")
        cells = lines[2].split(",")
        assert cells[0] == "8" and cells[2] == "false"
        assert abs(float(cells[1]) - 2.0) < 1e-12

    def test_bernoulli_family(self, tmp_path):
        out = tmp_path / "frontier.csv"
        code = run(["frontier", "--set", "frontier.family=bernoulli",
                    "--set", "frontier.q1=0.3", "--set", "frontier.q2=0.7",
                    "--out", str(out)])
        assert code == 0
        assert len(out.read_text().splitlines()) > 1


class TestBoundsCommand:
    def test_grid_with_budget_rows(self, tmp_path):
        out = tmp_path / "bounds.csv"
        code = run(["bounds", "--set", "bounds.f=0,500,1000",
                    "--set", "bounds.divergence=0.125",
                    "--set", "bounds.target_alpha=0.004",
                    "--set", "bounds.target_epsilon=0.004",
                    "--set", "bounds.n1=12000", "--set", "bounds.n2=12000",
                    "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "mechanism,f,alpha_lower,epsilon_upper,vacuous,binding_constraint"
        budget_rows = [l for l in lines[1:] if l.split(",")[-1] != ""]
        assert len(budget_rows) == 2  # one solved budget per mechanism

    def test_unmet_targets_report_one_line_and_no_budget_row(self, tmp_path, capsys):
        out = tmp_path / "bounds.csv"
        code = run(["bounds", "--set", "bounds.mechanisms=selective",
                    "--set", "bounds.target_alpha=1", "--set", "bounds.target_epsilon=0.01",
                    "--out", str(out)])
        assert code == 0
        assert capsys.readouterr().err.splitlines() == [
            "selective: budget inapplicable (D=0.125 < 4 alpha = 4.0)"]
        rows = out.read_text().splitlines()[1:]
        assert [int(row.split(",")[1]) for row in rows] == list(range(0, 1001, 50))
        assert all(row.endswith(",") for row in rows)  # no binding constraint

    def test_default_grid_for_odd_n1_stops_at_n1(self, tmp_path):
        out = tmp_path / "bounds.csv"
        assert run(["bounds", "--set", "bounds.n1=59", "--out", str(out)]) == 0
        f_values = [int(line.split(",")[1]) for line in out.read_text().splitlines()[1:]]
        assert f_values == list(range(0, 59, 2)) * 2


class TestSimulateCommand:
    def test_runs_and_reports(self, tmp_path, capsys):
        out = tmp_path / "sim.csv"
        code = run(["simulate", "--set", "sweep.seeds=0,1",
                    "--set", "sweep.budgets=0.0:1.0:0.25",
                    "--set", "gaussian.n1=200", "--set", "gaussian.n2=200",
                    "--out", str(out), "--seed", "5"])
        assert code == 0
        printed = capsys.readouterr().out
        assert "half-target budget" in printed
        assert out.exists()

    def test_seed_range(self, tmp_path):
        out = tmp_path / "sim.csv"
        assert run(["simulate", "--set", "sweep.seeds=0..2", "--set", "sweep.budgets=0,1",
                    "--set", "sweep.rules=random",
                    "--set", "gaussian.n1=20", "--set", "gaussian.n2=20",
                    "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("rule,budget_fraction,seed,")
        assert [line.split(",")[2] for line in lines[1:]] == ["0", "1", "2"] * 2

    def test_byte_identical_reruns(self, tmp_path):
        args = ["simulate", "--set", "sweep.seeds=0,1",
                "--set", "sweep.budgets=0.0:1.0:0.5",
                "--set", "gaussian.n1=100", "--set", "gaussian.n2=100", "--seed", "9"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(args + ["--out", str(a)]) == 0
        assert run(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestSweepSummary:
    """Both sweeps end in one summary: cells written and failed, each rule's
    half-target budget, and each later rule's saving against the first."""

    SIMULATE = ["simulate", "--set", "sweep.seeds=0,1", "--set", "gaussian.n1=100",
                "--set", "gaussian.n2=100"]
    EXPERIMENT = ["experiment", "--set", "dataset.kind=synthetic", "--set", "dataset.n_p1=30",
                  "--set", "dataset.n_p2=120", "--set", "sweep.seeds=0",
                  "--set", "tfidf.max_features=300", "--set", "tfidf.ngram_max=1",
                  "--set", "train.max_iter=100", "--allow-partial"]

    @pytest.mark.parametrize("argv, rules, cells, failed", [
        (SIMULATE + ["--set", "sweep.budgets=0:1:0.25"], ["random", "selective-gaussian"],
         20, 0),
        (EXPERIMENT + ["--set", "sweep.budgets=0:0.9:0.15"], ["random", "lr-cos"], 14, 0),
        # budget 1 leaves one class, so those cells fail and random never halves
        (EXPERIMENT + ["--set", "sweep.budgets=0:1:0.25",
                       "--set", "sweep.rules=random,lr-cos,cos-mu2"],
         ["random", "lr-cos", "cos-mu2"], 15, 3),
        # every knn-ratio cell fails, its budget-0 cell too
        (EXPERIMENT + ["--set", "sweep.budgets=0,0.5", "--set", "sweep.rules=random,knn-ratio",
                       "--set", "scoring.k=100000"], ["random", "knn-ratio"], 4, 2),
        (EXPERIMENT + ["--set", "sweep.budgets=0,0.5", "--set", "sweep.rules=random,knn-ratio",
                       "--set", "scoring.sigma=1e200"], ["random", "knn-ratio"], 4, 2),
    ])
    def test_one_summary(self, tmp_path, capsys, argv, rules, cells, failed):
        out = tmp_path / "sweep.csv"
        assert run(argv + ["--out", str(out)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == f"wrote {cells} cells to {out} ({failed} failed)"
        assert len(lines) == 2 * len(rules)
        half = {}
        for rule, line in zip(rules, lines[1:]):
            prefix = f"half-target budget [{rule}]: "
            assert line.startswith(prefix)
            text = line[len(prefix):]
            undefined = text in ("not reached", "undefined (no budget-0 cell)")
            half[rule] = None if undefined else float(text)
        for rule, line in zip(rules[1:], lines[1 + len(rules):]):
            prefix = f"saving [{rule} vs {rules[0]}]: "
            assert line.startswith(prefix)
            if half[rule] is None or half[rules[0]] is None:
                assert line == prefix + "undefined"
            else:  # the printed budgets carry 4 decimals
                assert float(line[len(prefix):]) == pytest.approx(
                    1.0 - half[rule] / half[rules[0]], abs=1e-3)

    def test_grid_without_full_deletion_prints_half_target_and_saving(self, tmp_path, capsys):
        # alpha_remaining is on every grid, so a grid without budget 1.0
        # summarises it too, with the half-target budget of the full grid
        out = tmp_path / "sweep.csv"
        summaries = []
        for grid in ("0,0.5", "0,0.5,1"):
            assert run(self.SIMULATE + ["--set", f"sweep.budgets={grid}", "--out", str(out)]) == 0
            summaries.append(capsys.readouterr().out.splitlines())
        assert summaries[0] == [f"wrote 8 cells to {out} (0 failed)",
                                "half-target budget [random]: not reached",
                                summaries[1][2],
                                "saving [selective-gaussian vs random]: undefined"]
        assert summaries[1][2] == "half-target budget [selective-gaussian]: 0.3508"


class TestScoreCommand:
    def test_synthetic_scoring(self, tmp_path):
        out = tmp_path / "scores.csv"
        code = run(["score", "--set", "dataset.kind=synthetic",
                    "--set", "dataset.n_p1=30", "--set", "dataset.n_p2=90",
                    "--set", "score.rule=cos-mu2",
                    "--set", "tfidf.max_features=300", "--set", "tfidf.ngram_max=1",
                    "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "index,score,rule"
        assert len(lines) == 31

    def test_feature_csv_scoring(self, tmp_path):
        data = tmp_path / "feats.csv"
        schema = tmp_path / "feats.schema"
        gen = np.random.default_rng(0)
        rows = ["id,x0,x1,label,group"]
        for i in range(12):
            x = gen.normal(size=2)
            rows.append(f"r{i},{x[0]},{x[1]},{i % 2},{'P1' if i < 4 else 'P2'}")
        data.write_text("\n".join(rows) + "\n", encoding="utf-8")
        schema.write_text("label_col=label\ngroup_col=group\nid_col=id\n", encoding="utf-8")
        out = tmp_path / "scores.csv"
        code = run(["score", "--set", "dataset.kind=csv",
                    "--set", f"dataset.path={data}",
                    "--set", f"dataset.schema={schema}",
                    "--set", "score.rule=maha-mu2", "--out", str(out)])
        assert code == 0
        assert len(out.read_text().splitlines()) == 5


class TestExperimentCommand:
    COMMON = ["experiment", "--set", "dataset.kind=synthetic",
              "--set", "dataset.n_p1=30", "--set", "dataset.n_p2=120",
              "--set", "sweep.rules=random,lr-cos",
              "--set", "sweep.seeds=0", "--set", "tfidf.max_features=300",
              "--set", "tfidf.ngram_max=1", "--set", "train.max_iter=100"]

    def test_failed_cells_exit_code(self, tmp_path):
        # budget 1.0 leaves a single class: the cell fails and so does the run
        out = tmp_path / "exp.csv"
        args = self.COMMON + ["--set", "sweep.budgets=0.0,1.0", "--out", str(out)]
        assert run(args) == 1
        assert run(args + ["--allow-partial"]) == 0

    def test_clean_run_exit_zero(self, tmp_path):
        out = tmp_path / "exp.csv"
        args = self.COMMON + ["--set", "sweep.budgets=0.0,0.5", "--out", str(out)]
        assert run(args) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 5  # header + 2 rules x 2 budgets x 1 seed

    def test_rule_without_budget_zero_cell_is_reported(self, tmp_path, capsys):
        # knn-ratio cannot score with k above the row count, so every cell
        # of that rule fails, its budget-0 cell too
        out = tmp_path / "exp.csv"
        args = self.COMMON + ["--set", "sweep.rules=random,knn-ratio",
                              "--set", "scoring.k=100000",
                              "--set", "sweep.budgets=0,0.5", "--out", str(out)]
        assert run(args + ["--allow-partial"]) == 0
        printed = capsys.readouterr().out
        assert "(2 failed)" in printed
        assert "half-target budget [knn-ratio]: undefined (no budget-0 cell)" in printed
        assert len(out.read_text().splitlines()) == 5
        assert run(args) == 1

    def test_rule_whose_initial_value_is_zero_is_reported(self, tmp_path, capsys):
        # strong regularisation predicts no forget row: recall_p1 is 0 from
        # budget 0 on, which leaves no half target and no saving
        out = tmp_path / "exp.csv"
        args = self.COMMON + ["--set", "train.l2_strength=100", "--set", "sweep.budgets=0,0.5",
                              "--out", str(out)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(args) == 0
        assert capsys.readouterr().out.splitlines()[1:] == [
            "half-target budget [random]: undefined (initial value 0)",
            "half-target budget [lr-cos]: undefined (initial value 0)",
            "saving [lr-cos vs random]: undefined"]

    def test_budget_zero_cells_without_a_value_are_reported(self, tmp_path):
        # the lone forget document would go to train, so no cell could have a
        # recall_p1: the run exits 1 before any cell runs
        out = tmp_path / "exp.csv"
        args = self.COMMON + ["--set", "dataset.n_p1=1", "--set", "sweep.budgets=0,0.5",
                              "--out", str(out)]
        with pytest.raises(SystemExit, match=r"^invalid experiment input: 1 forget row\(s\) "
                                             r"carry pipeline.p1_label=1, need at least 2;"):
            run(args)
        assert not out.exists()

    @pytest.mark.parametrize("classes", [None, 2, 3], ids=["synthetic", "csv-2", "csv-3"])
    def test_byte_identical_reruns(self, tmp_path, classes):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        if classes is None:
            args, count = self.COMMON + ["--set", "sweep.budgets=0.0,0.5", "--seed", "4"], 5
        else:
            # 150 feature rows of which 30 forget rows; a third class runs the
            # softmax fit, the CLI's only path to it
            gen = np.random.default_rng(0)
            labels = [1 if i < 30 else 2 if classes == 3 and i % 2 else 0 for i in range(150)]
            means = np.array([{1: 0.0, 0: 1.0, 2: -1.0}[label] for label in labels])
            values = gen.normal(means[:, None], 1.0, (150, 3))
            args = ["experiment", *features_csv(tmp_path, labels, values),
                    "--set", "sweep.seeds=0,1", "--set", "sweep.budgets=0,0.5",
                    "--set", "sweep.rules=random,lr-maha"]
            count = 9  # a header and 2 rules x 2 budgets x 2 seeds
        assert run(args + ["--out", str(a)]) == 0
        assert run(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        lines = a.read_text().splitlines()
        assert len(lines) == count
        assert ("acc_class_2" in lines[0].split(",")) == (classes == 3)


class TestConfigFile:
    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text(
            "[sweep]\nseeds = 0,1\nbudgets = 0.0:1.0:0.5\n"
            "[gaussian]\nmu2 = 0.5\nn1 = 100\nn2 = 100\n"
            "[output]\npath = unused.csv\n",
            encoding="utf-8",
        )
        out = tmp_path / "sim.csv"
        code = run(["simulate", "--config", str(cfg), "--out", str(out),
                    "--set", "gaussian.n1=150"])
        assert code == 0
        assert out.exists()
