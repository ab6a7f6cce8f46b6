import numpy as np
import pytest

from distunlearn.cli import _parse_floats, main


def run(argv):
    return main(argv)


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
    ])
    def test_bad_value_exits_with_one_line(self, tmp_path, argv, names):
        out = tmp_path / "out.csv"
        with pytest.raises(SystemExit) as info:
            run(argv + ["--out", str(out)])
        message = str(info.value)
        assert message.startswith("invalid ") and "\n" not in message
        for name in names:
            assert name in message
        assert not out.exists()


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

    def test_byte_identical_reruns(self, tmp_path):
        args = ["simulate", "--set", "sweep.seeds=0,1",
                "--set", "sweep.budgets=0.0:1.0:0.5",
                "--set", "gaussian.n1=100", "--set", "gaussian.n2=100", "--seed", "9"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(args + ["--out", str(a)]) == 0
        assert run(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


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

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = self.COMMON + ["--set", "sweep.budgets=0.0,0.5", "--seed", "4"]
        assert run(args + ["--out", str(a)]) == 0
        assert run(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


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
