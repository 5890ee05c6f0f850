"""End-to-end runs: artifacts, determinism, aggregation, plot data."""
import hashlib
import json

import numpy as np
import pytest

from mcqd.config import ExperimentConfig
from mcqd.runner import (
    build_engine,
    emit_plot_data,
    read_metrics_csv,
    resolve_run_dir,
    run_experiment,
    write_aggregate,
)

TOY_YAML = """\
case: toy-run
seed: 9
replicates: 2
containers:
  bin_budget: 72
  grids:
    - {shape: [6, 6], fd: ae_qt, count: 2}
task:
  name: rastrigin_toy
search:
  sharing: shared
  initialization_budget: 25
  evaluation_budget: 80
  batch_size: 20
  mutation: {probability: 0.5, eta: 20.0}
training:
  strategy: online
  period: 25
  epochs: 2
  learning_rate: 0.01
  batch_size: 16
  hidden: [8]
  quantiles: 40
"""


@pytest.fixture(scope="module")
def toy_run(tmp_path_factory):
    config = ExperimentConfig.from_yaml(TOY_YAML)
    out = tmp_path_factory.mktemp("runs") / "toy"
    result = run_experiment(config, out)
    return config, result


class TestArtifacts:
    def test_layout(self, toy_run):
        config, result = toy_run
        assert not result.failed
        d = result.run_dir
        assert (d / "config.yaml").exists()
        assert (d / "aggregate.csv").exists()
        for k in range(config.replicates):
            rep = d / f"rep_{k:03d}"
            for name in ("metrics.csv", "batches.jsonl", "containers.jsonl",
                         "checkpoint.npz"):
                assert (rep / name).exists(), name

    def test_metric_rows_per_batch(self, toy_run):
        config, result = toy_run
        table = read_metrics_csv(result.run_dir / "rep_000" / "metrics.csv")
        # row 0 after initialization plus one per batch (80 evals / 20)
        assert sorted(table) == [0, 1, 2, 3, 4]
        for row in table.values():
            assert row["unique_qd_score"] <= row["qd_score"] + 1e-12
            assert row["unique_coverage_pct"] <= row["coverage_pct"] + 1e-12

    def test_metadata_headers(self, toy_run):
        config, result = toy_run
        head = (result.run_dir / "rep_000" / "metrics.csv").read_text().splitlines()[0]
        assert head.startswith("# mcqd-metrics v1")
        assert f"config={config.hash()}" in head
        assert "seed=9" in head
        first = json.loads((result.run_dir / "rep_000" / "batches.jsonl")
                           .read_text().splitlines()[0])
        assert first["record"] == "meta"

    def test_batch_log_contents(self, toy_run):
        _, result = toy_run
        lines = (result.run_dir / "rep_000" / "batches.jsonl").read_text().splitlines()
        records = [json.loads(ln) for ln in lines[1:]]
        assert [r["batch"] for r in records] == [1, 2, 3, 4]
        assert all(r["evals"] == 20 for r in records)
        assert any(r["retrain"] is not None for r in records)
        for r in records:
            assert r["adds"] + r["evictions"] + r["rejections"] > 0
            assert len(r["occupancy"]) == 2

    def test_container_snapshot_fields(self, toy_run):
        _, result = toy_run
        lines = (result.run_dir / "rep_000" / "containers.jsonl").read_text().splitlines()
        records = [json.loads(ln) for ln in lines[1:]]
        assert records
        expected_order = ["container_id", "bin", "solution_id", "fitness",
                          "fd", "genome"]
        for r in records:
            assert list(r.keys()) == expected_order
            assert len(r["bin"]) == 2
            assert len(r["genome"]) == 2
            assert all(0.0 <= v <= 1.0 for v in r["fd"])

    def test_replicates_differ(self, toy_run):
        _, result = toy_run
        a = (result.run_dir / "rep_000" / "metrics.csv").read_text()
        b = (result.run_dir / "rep_001" / "metrics.csv").read_text()
        assert a != b


class TestDeterminism:
    def test_rerun_is_byte_identical(self, tmp_path):
        config = ExperimentConfig.from_yaml(TOY_YAML.replace("replicates: 2",
                                                             "replicates: 1"))
        r1 = run_experiment(config, tmp_path / "a")
        r2 = run_experiment(config, tmp_path / "b")
        for name in ("metrics.csv", "batches.jsonl", "containers.jsonl"):
            b1 = (r1.run_dir / "rep_000" / name).read_bytes()
            b2 = (r2.run_dir / "rep_000" / name).read_bytes()
            assert b1 == b2, name
        assert (r1.run_dir / "aggregate.csv").read_bytes() == \
            (r2.run_dir / "aggregate.csv").read_bytes()


# A tiny hardcoded-walker run: walker evaluation, hardcoded extraction and
# the FD correlation, with no descriptor training.
HARDCODED_WALKER_YAML = """\
case: golden-hc-walker
seed: 4
replicates: 1
containers:
  bin_budget: 50
  grids:
    - {shape: [5, 5], fd: hardcoded, count: 2}
task:
  name: surrogate_walker
  params: {episode_steps: 60, obs_window: 6, episodes_per_eval: 2}
search:
  sharing: shared
  initialization_budget: 40
  evaluation_budget: 60
  batch_size: 20
training:
  strategy: none
"""

# sha256 of the run's artifacts, recorded before the descriptor, walker and
# sigmoid hot loops were vectorised.  The meta header lines carry the config
# hash and the package version, so a version bump changes these on purpose.
HARDCODED_WALKER_GOLDEN_SHA256 = {
    "metrics.csv": "ce39ac929ad2faf7046008afc0a0ed580876c0fddf403cc2448c2703b6b7daf4",
    "containers.jsonl": "f4169532e5577fc5a2e402949c542931eb0c00f5e56be8b5bde80441a51a7007",
}


# A tiny learned-descriptor walker run: initial training, then two online
# retrains that warm-start the ensemble, refit the quantiles and reindex.
LEARNED_WALKER_YAML = """\
case: golden-ae-walker
seed: 5
replicates: 1
containers:
  bin_budget: 50
  grids:
    - {shape: [5, 5], fd: ae_qt, count: 2}
task:
  name: surrogate_walker
  params: {episode_steps: 60, obs_window: 6, episodes_per_eval: 2}
search:
  sharing: non_shared
  initialization_budget: 40
  evaluation_budget: 60
  batch_size: 20
training:
  strategy: online
  period: 6
  epochs: 3
  batch_size: 16
  hidden: [8, 4]
  quantiles: 20
"""

# sha256 of the learned run's text artifacts and of its checkpoint arrays
# (name, dtype, shape and bytes of each, in name order; the .npz container
# itself stamps its write time), recorded before the ensemble training step
# was restructured.
LEARNED_WALKER_GOLDEN_SHA256 = {
    "metrics.csv":
        "835603ece70a4719014e7dd88c22e093c250479c8c7c5216d921c390776f9676",
    "containers.jsonl":
        "b787009aefaf5ead9c52e2c3daafd397d041389490b2b3c70f4c18e3c568b0d5",
    "checkpoint.npz":
        "7878b9c7bb14c34a0d1b7a57d1186f16dd8317c4422fb2fc0cf730f643c17e43",
}


def _npz_sha256(path) -> str:
    digest = hashlib.sha256()
    with np.load(path, allow_pickle=False) as data:
        for name in sorted(data.files):
            a = data[name]
            digest.update(f"{name}:{a.dtype.str}:{a.shape}".encode())
            digest.update(a.tobytes())
    return digest.hexdigest()


class TestGolden:
    def test_hardcoded_walker_artifacts(self, tmp_path):
        config = ExperimentConfig.from_yaml(HARDCODED_WALKER_YAML)
        result = run_experiment(config, tmp_path / "golden")
        assert not result.failed
        rep = result.run_dir / "rep_000"
        digests = {name: hashlib.sha256((rep / name).read_bytes()).hexdigest()
                   for name in HARDCODED_WALKER_GOLDEN_SHA256}
        assert digests == HARDCODED_WALKER_GOLDEN_SHA256

    def test_learned_walker_artifacts(self, tmp_path):
        config = ExperimentConfig.from_yaml(LEARNED_WALKER_YAML)
        result = run_experiment(config, tmp_path / "golden")
        assert not result.failed
        rep = result.run_dir / "rep_000"
        records = [json.loads(ln) for ln in
                   (rep / "batches.jsonl").read_text().splitlines()[1:]]
        assert any(r["retrain"] is not None for r in records)
        digests = {name: hashlib.sha256((rep / name).read_bytes()).hexdigest()
                   for name in ("metrics.csv", "containers.jsonl")}
        digests["checkpoint.npz"] = _npz_sha256(rep / "checkpoint.npz")
        assert digests == LEARNED_WALKER_GOLDEN_SHA256


class TestAggregate:
    def test_aggregate_matches_recomputation(self, toy_run, tmp_path):
        _, result = toy_run
        again = write_aggregate([result.run_dir], tmp_path / "agg.csv")
        assert again.read_bytes() == (result.run_dir / "aggregate.csv").read_bytes()

    def test_aggregate_quantile_columns(self, toy_run):
        _, result = toy_run
        lines = (result.run_dir / "aggregate.csv").read_text().splitlines()
        assert lines[1].split(",") == ["iteration", "metric", "mean", "std",
                                       "min", "q25", "q75", "max"]
        # one row per iteration per metric
        assert len(lines) == 2 + 5 * 8

    def test_aggregate_values_correct(self, toy_run):
        _, result = toy_run
        tables = [read_metrics_csv(result.run_dir / f"rep_{k:03d}" / "metrics.csv")
                  for k in range(2)]
        lines = (result.run_dir / "aggregate.csv").read_text().splitlines()[2:]
        for line in lines:
            parts = line.split(",")
            it, metric = int(parts[0]), parts[1]
            values = np.array([t[it][metric] for t in tables])
            values = values[~np.isnan(values)]
            if values.size == 0:
                assert parts[2] == ""
            else:
                assert float(parts[2]) == pytest.approx(values.mean())
                assert float(parts[7]) == pytest.approx(values.max())

    def test_missing_replicates_error(self, tmp_path):
        with pytest.raises(FileNotFoundError) as err:
            write_aggregate([tmp_path], tmp_path / "agg.csv")
        assert "rep_*/metrics.csv" in str(err.value)


class TestPlotData:
    def test_heatmaps_and_curves(self, toy_run):
        config, result = toy_run
        plot_dir = emit_plot_data(result.run_dir)
        curves = (plot_dir / "curves.csv").read_bytes()
        assert curves == (result.run_dir / "aggregate.csv").read_bytes()
        heatmap = plot_dir / "heatmap_rep_000_c0.csv"
        assert heatmap.exists()
        rows = heatmap.read_text().splitlines()
        assert len(rows) == 6 and all(len(r.split(",")) == 6 for r in rows)
        snapshot = [json.loads(ln) for ln in
                    (result.run_dir / "rep_000" / "containers.jsonl")
                    .read_text().splitlines()[1:]]
        filled = sum(1 for r in rows for v in r.split(",") if v != "")
        assert filled == sum(1 for r in snapshot if r["container_id"] == 0)

    def test_missing_artifacts_diagnostic(self, tmp_path):
        with pytest.raises(FileNotFoundError) as err:
            emit_plot_data(tmp_path)
        assert "config.yaml" in str(err.value)


class TestFailureIsolation:
    def test_failed_replicate_marked_and_skipped(self, tmp_path, monkeypatch):
        config = ExperimentConfig.from_yaml(TOY_YAML)
        calls = {"n": 0}
        import mcqd.runner as runner_mod
        real = runner_mod.build_engine

        def flaky(cfg, seed):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("synthetic failure")
            return real(cfg, seed)

        monkeypatch.setattr(runner_mod, "build_engine", flaky)
        result = run_experiment(config, tmp_path / "flaky")
        assert len(result.failed) == 1
        assert (result.run_dir / "rep_000" / "FAILED").exists()
        agg = (result.run_dir / "aggregate.csv").read_text().splitlines()[0]
        assert "replicates=1" in agg


class TestOutputRoot:
    def test_env_var_roots_relative_dirs(self, tmp_path, monkeypatch):
        monkeypatch.setenv("MCQD_OUTPUT_ROOT", str(tmp_path))
        config = ExperimentConfig.from_yaml(TOY_YAML)
        assert resolve_run_dir(config) == tmp_path / "toy-run"
        assert resolve_run_dir(config, "sub/dir") == tmp_path / "sub" / "dir"
        absolute = tmp_path / "abs"
        assert resolve_run_dir(config, absolute) == absolute
