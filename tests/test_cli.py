"""CLI verbs exercised through main()."""
import pytest

from mcqd.cli import main

CONFIG = """\
case: cli-toy
seed: 3
replicates: 1
containers:
  bin_budget: 50
  grids:
    - {shape: [5, 5], fd: ae, count: 2}
task:
  name: rastrigin_toy
search:
  sharing: non_shared
  initialization_budget: 20
  evaluation_budget: 40
  batch_size: 20
  mutation: {probability: 0.5, eta: 20.0}
training:
  strategy: online
  period: 30
  epochs: 2
  learning_rate: 0.01
  batch_size: 16
  hidden: [8]
"""


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "exp.yaml"
    path.write_text(CONFIG)
    return path


class TestRun:
    def test_run_writes_artifacts(self, config_file, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["run", str(config_file), "--out", str(out)]) == 0
        assert (out / "rep_000" / "metrics.csv").exists()
        assert "run directory" in capsys.readouterr().out

    def test_invalid_config_exits_nonzero(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text(CONFIG + "  typo_key: 1\n")
        assert main(["run", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "typo_key" in err and "line" in err

    def test_config_error_creates_no_run_directory(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text(CONFIG + "  latent_dim: 3\n")
        out = tmp_path / "out"
        assert main(["run", str(bad), "--out", str(out)]) == 2
        assert "latent_dim" in capsys.readouterr().err
        assert not out.exists()

    def test_mistyped_value_exits_with_message(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text(CONFIG.replace("  batch_size: 20", "  batch_size: ten"))
        out = tmp_path / "out"
        assert main(["run", str(bad), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "batch_size" in err and "line" in err and "Traceback" not in err
        assert not out.exists()

    def test_task_dependent_error_exits_before_the_run_directory(self, tmp_path,
                                                                  capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text(CONFIG.replace("bin_budget: 50", "bin_budget: 25").replace(
            "{shape: [5, 5], fd: ae, count: 2}", "{shape: [5, 5], fd: hardcoded}").replace(
            "  strategy: online", "  strategy: none"))
        out = tmp_path / "out"
        assert main(["run", str(bad), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "rastrigin_toy" in err and "only 0 hardcoded FD pairs" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("params,key", [
        ("{episode_step: 150}", "episode_step"),
        ("{n_timepoints: 0}", "n_timepoints"),
    ], ids=["unknown", "zero"])
    def test_bad_task_parameter_exits_before_the_run_directory(self, tmp_path,
                                                               capsys, params, key):
        bad = tmp_path / "bad.yaml"
        bad.write_text(CONFIG.replace("  name: rastrigin_toy",
                                      f"  name: rastrigin_toy\n  params: {params}"))
        out = tmp_path / "out"
        assert main(["run", str(bad), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "rastrigin_toy" in err and key in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["rough", "-0.1"], ids=["non-numeric", "negative"])
    def test_bad_terrain_roughness_exits_before_the_run_directory(self, tmp_path,
                                                                  capsys, value):
        bad = tmp_path / "bad.yaml"
        bad.write_text(CONFIG.replace(
            "  name: rastrigin_toy",
            f"  name: surrogate_walker\n  params: {{terrain_roughness: {value}}}"))
        out = tmp_path / "out"
        assert main(["run", str(bad), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "terrain_roughness" in err and "Traceback" not in err
        assert not out.exists()

    def test_config_every_replicate_would_fail_exits_before_the_run_directory(
            self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text(CONFIG.replace("bin_budget: 50", "bin_budget: 10").replace(
            "{shape: [5, 5], fd: ae, count: 2}", "{shape: [-2, -5], fd: ae}"))
        out = tmp_path / "out"
        assert main(["run", str(bad), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "grid 0 has shape [-2, -5]" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("old,new,first_key,message", [
        ("  period: 30", "  period: -5", "  strategy: online",
         "training.period must be >= 1"),
        ("bin_budget: 50", "bin_budget: 49", "  bin_budget: 49",
         "grid capacities sum to 50, bin budget is 49"),
    ], ids=["period", "bin-budget"])
    def test_validation_error_names_the_section_line(self, tmp_path, capsys, old, new,
                                                     first_key, message):
        text = CONFIG.replace(old, new)
        line = text.splitlines().index(first_key) + 1  # the section's first line
        bad = tmp_path / "bad.yaml"
        bad.write_text(text)
        out = tmp_path / "out"
        assert main(["run", str(bad), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"error: line {line}: {message}\n" in err and "Traceback" not in err
        assert not out.exists()

    def test_negative_seed_exits_before_the_run_directory(self, config_file,
                                                          tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["run", str(config_file), "--out", str(out), "--seed", "-1"]) == 2
        err = capsys.readouterr().err
        assert "seed must be >= 0" in err and "Traceback" not in err
        assert not out.exists()

    def test_every_replicate_failed(self, config_file, tmp_path, capsys):
        # A directory where each metrics.csv goes fails each replicate's
        # first write inside its worker process.
        out = tmp_path / "out"
        for k in range(2):
            (out / f"rep_{k:03d}" / "metrics.csv").mkdir(parents=True)
        assert main(["run", str(config_file), "--out", str(out),
                     "--replicates", "2"]) == 1
        printed = capsys.readouterr().out
        for k, seed in enumerate((3, 4)):
            path = out / f"rep_{k:03d}" / "metrics.csv"
            assert (f"seed {seed}: FAILED (IsADirectoryError: [Errno 21] "
                    f"Is a directory: '{path}')") in printed
        assert (out / "rep_000" / "FAILED").exists()
        assert (out / "rep_001" / "FAILED").exists()
        assert not (out / "aggregate.csv").exists()

    def test_overrides(self, config_file, tmp_path):
        out = tmp_path / "out2"
        assert main(["run", str(config_file), "--out", str(out),
                     "--seed", "99", "--replicates", "2"]) == 0
        head = (out / "rep_001" / "metrics.csv").read_text().splitlines()[0]
        assert "seed=100" in head


class TestPreset:
    def test_list(self, capsys):
        assert main(["preset", "--list"]) == 0
        out = capsys.readouterr().out
        assert "qt-reco-4-ns" in out and "hardcoded-1" in out

    def test_unknown_preset(self, capsys):
        assert main(["preset", "qt-bogus"]) == 2
        assert "unknown preset" in capsys.readouterr().err


class TestPlotAndAggregate:
    def test_plotdata_and_aggregate(self, config_file, tmp_path, capsys):
        out = tmp_path / "out3"
        main(["run", str(config_file), "--out", str(out)])
        assert main(["plotdata", str(out)]) == 0
        assert (out / "plot" / "curves.csv").exists()
        agg = tmp_path / "agg.csv"
        assert main(["aggregate", str(out), "--out", str(agg)]) == 0
        assert agg.exists()

    def test_aggregate_of_several_runs_needs_out(self, config_file, tmp_path, capsys):
        """Without --out, aggregating two runs would overwrite the first
        run's own aggregate.csv; it exits 2 and leaves every byte."""
        runs = [tmp_path / "a", tmp_path / "b"]
        for run in runs:
            assert main(["run", str(config_file), "--out", str(run)]) == 0
        before = (runs[0] / "aggregate.csv").read_bytes()
        capsys.readouterr()
        assert main(["aggregate", *map(str, runs)]) == 2
        assert "--out" in capsys.readouterr().err
        assert (runs[0] / "aggregate.csv").read_bytes() == before

    def test_aggregate_missing_dir(self, tmp_path, capsys):
        assert main(["aggregate", str(tmp_path / "nope")]) == 2
