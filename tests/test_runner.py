"""End-to-end runs: artifacts, determinism, aggregation, plot data."""
import hashlib
import json
import logging
import multiprocessing
import os
import pickle
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

import mcqd
from mcqd.config import (
    DIVERSITY_KINDS,
    FD_TYPES,
    SHARING_STRATEGIES,
    TRAINING_STRATEGIES,
    ExperimentConfig,
    build_preset,
)
from mcqd import runner
from mcqd.core import ConfigurationError
from mcqd.engine import Engine
from mcqd.runner import (
    build_engine,
    emit_plot_data,
    read_metrics_csv,
    replicate_finished,
    resolve_run_dir,
    run_experiment,
    run_replicate,
    write_aggregate,
)
from mcqd.tasks import make_task

from conftest import outputs_at_blas_threads

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
        depot_size = read_metrics_csv(result.run_dir / "rep_000" / "metrics.csv")
        for r in records:
            if r["retrain"] is None:
                continue
            assert list(r["retrain"]) == ["diverged", "message", "train_loss", "val_loss",
                                          "epochs", "corpus", "reindex"]
            assert not r["retrain"]["diverged"]
            assert r["retrain"]["epochs"] == 2
            assert r["retrain"]["corpus"] == depot_size[r["batch"]]["depot_size"]
            for key in ("train_loss", "val_loss"):
                assert isinstance(r["retrain"][key], float)
                assert 0.0 < r["retrain"][key] < float("inf")

    def test_diverged_retrain_logs_null_losses(self, tmp_path, monkeypatch):
        import mcqd.engine as engine_mod
        from mcqd.autoencoder import TrainReport

        real = engine_mod.train_ensemble
        calls = {"n": 0}

        def diverges_after_initial(ensemble, inputs, cfg, rng, scaler):
            calls["n"] += 1
            if calls["n"] == 1:
                return real(ensemble, inputs, cfg, rng, scaler)
            return TrainReport(train_losses=[0.5], diverged=True,
                               message="non-finite training loss at epoch 1")

        monkeypatch.setattr(engine_mod, "train_ensemble", diverges_after_initial)
        config = ExperimentConfig.from_yaml(TOY_YAML.replace("replicates: 2",
                                                             "replicates: 1"))
        result = run_experiment(config, tmp_path / "diverged")
        assert not result.failed
        text = (result.run_dir / "rep_000" / "batches.jsonl").read_text()
        assert "NaN" not in text and "Infinity" not in text
        retrains = [json.loads(ln)["retrain"] for ln in text.splitlines()[1:]]
        retrains = [r for r in retrains if r is not None]
        assert retrains
        for r in retrains:
            assert r["diverged"] and r["reindex"] == []
            assert r["train_loss"] is None and r["val_loss"] is None
            assert r["epochs"] == 1 and r["corpus"] > 0

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

# sha256 of the run's artifacts, re-recorded when the walker's controller
# products moved from einsum to a stacked matmul.  The meta header lines carry
# the config hash and the package version, so a version bump changes these on
# purpose.
HARDCODED_WALKER_GOLDEN_SHA256 = {
    "metrics.csv": "31659754e0c575d8d38cdbf197898ea7398ef6c20f60ecd6e50eb20a035f8579",
    "containers.jsonl": "4c1db975a25c05347e4629ae09acd641f952f326e56b5bc15fd093278f65f78b",
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
# itself stamps its write time).  ``containers.jsonl`` was re-recorded when
# learned FDs came to be extracted once per batch and once over the whole
# depot after a retrain, instead of one row at a time: its FDs moved in the
# last bits.
LEARNED_WALKER_GOLDEN_SHA256 = {
    "metrics.csv":
        "3d3193e8809ff953b6724727b4533a05813f6ab9227f936c2b94c9ab6a75cc39",
    "containers.jsonl":
        "4dbb1e0f25f58443493cd6de3230771b39e4cd0004101d87f4ea5597a340ad4c",
    "checkpoint.npz":
        "d9212a3b547db140ddf2b1308bfc823c70dc8d00a094acb58386a1d0947d83da",
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

    def test_run_directory_with_retired_n_workers(self, toy_run, tmp_path):
        """Run directories written while the evaluation thread pool existed
        carry ``n_workers: 1`` in their config.yaml."""
        _, result = toy_run
        old = tmp_path / "old_run"
        shutil.copytree(result.run_dir, old, ignore=shutil.ignore_patterns("plot"))
        text = (old / "config.yaml").read_text()
        assert "n_workers" not in text
        (old / "config.yaml").write_text(
            text.replace("  batch_size: 20\n", "  batch_size: 20\n  n_workers: 1\n", 1))
        plot_dir = emit_plot_data(old)
        assert (plot_dir / "curves.csv").read_bytes() == \
            (result.run_dir / "aggregate.csv").read_bytes()
        assert (plot_dir / "heatmap_rep_000_c0.csv").exists()

    def test_missing_artifacts_diagnostic(self, tmp_path):
        with pytest.raises(FileNotFoundError) as err:
            emit_plot_data(tmp_path)
        assert "config.yaml" in str(err.value)


class TestFailureIsolation:
    def test_failed_replicate_marked_and_skipped(self, tmp_path):
        # A directory where rep_000's metrics.csv goes fails that replicate's
        # first write inside its worker process.
        (tmp_path / "flaky" / "rep_000" / "metrics.csv").mkdir(parents=True)
        config = ExperimentConfig.from_yaml(TOY_YAML)
        result = run_experiment(config, tmp_path / "flaky")
        assert len(result.failed) == 1
        failed = (result.run_dir / "rep_000" / "FAILED").read_text().splitlines()
        assert failed[0] == "phase=write batch=0"
        assert failed[-1].startswith("IsADirectoryError: ")
        agg = (result.run_dir / "aggregate.csv").read_text().splitlines()[0]
        assert "replicates=1" in agg

    @pytest.mark.parametrize("phase,method,batch", [
        ("initialize", "initialize", 0),
        ("batch", "run_batch", 2),
        ("retrain", "maybe_retrain", 3),
    ])
    def test_failed_names_the_phase_and_batch(self, tmp_path, monkeypatch, phase,
                                              method, batch):
        import mcqd.engine as engine_mod

        real = getattr(engine_mod.Engine, method)
        calls = {"n": 0}

        def fails_on_call(engine, *args):
            calls["n"] += 1
            if calls["n"] == max(batch, 1):
                raise RuntimeError("synthetic failure")
            return real(engine, *args)

        # one replicate runs in this process, where the patch applies
        monkeypatch.setattr(engine_mod.Engine, method, fails_on_call)
        config = ExperimentConfig.from_yaml(TOY_YAML.replace("replicates: 2",
                                                             "replicates: 1"))
        result = run_experiment(config, tmp_path / "run")
        assert [r.error for r in result.failed] == ["RuntimeError: synthetic failure"]
        lines = (result.run_dir / "rep_000" / "FAILED").read_text().splitlines()
        assert lines[0] == f"phase={phase} batch={batch}"
        assert lines[1] == "Traceback (most recent call last):"
        assert lines[-1] == "RuntimeError: synthetic failure"


# A learned walker run whose training minibatches (600 rows) are longer than
# the 256-row blocks of the weight gradients' sums.  Its bits would follow
# the BLAS thread count if the weight gradients did.
BLOCK_WALKER_YAML = """\
case: block-walker
seed: 6
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
  initialization_budget: 800
  evaluation_budget: 100
  batch_size: 50
training:
  strategy: online
  period: 50
  epochs: 2
  batch_size: 1024
  hidden: [16, 5]
  quantiles: 20
"""

BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
ARTIFACTS = ("metrics.csv", "batches.jsonl", "containers.jsonl", "checkpoint.npz")

_RUN_THREADS_SCRIPT = f"""
import hashlib, tempfile
from pathlib import Path
from mcqd.config import ExperimentConfig
from mcqd.runner import run_experiment
with tempfile.TemporaryDirectory() as tmp:
    run = Path(tmp) / "run"
    result = run_experiment(ExperimentConfig.from_yaml({BLOCK_WALKER_YAML!r}), run)
    if result.failed:
        raise SystemExit(result.failed[0].error)
    for name in {ARTIFACTS!r}:
        print(name, hashlib.sha256((run / "rep_000" / name).read_bytes()).hexdigest())
"""


def test_learned_run_independent_of_blas_threads():
    one, two = outputs_at_blas_threads(_RUN_THREADS_SCRIPT)
    assert one.splitlines() == two.splitlines()


def _cpu_has_avx2() -> bool:
    try:
        return "avx2" in Path("/proc/cpuinfo").read_text().split()
    except OSError:
        return False


@pytest.mark.skipif(not _cpu_has_avx2(), reason="OpenBLAS's Haswell kernel needs AVX2")
def test_learned_run_independent_of_blas_threads_on_the_haswell_kernel():
    """On OpenBLAS's Haswell kernel a 256-row weight-gradient block gives
    other bits at 2 threads than at 1.  A run's bytes hold anyway, because
    ``run_replicate`` runs BLAS on one thread."""
    one, two = outputs_at_blas_threads(_RUN_THREADS_SCRIPT,
                                       {"OPENBLAS_CORETYPE": "Haswell"})
    assert one.splitlines() == two.splitlines()


class TestOneBlasThread:
    """``run_replicate`` runs BLAS on one thread, in-process or in a worker,
    and gives the caller back its own count."""

    CALLER_THREADS = 2

    @pytest.fixture
    def thread_count(self):
        """The getter of BLAS's thread count, which is CALLER_THREADS until
        the test ends."""
        set_count, get_count = runner._blas_thread_calls()
        saved = get_count()
        set_count(self.CALLER_THREADS)
        yield get_count
        set_count(saved)

    @staticmethod
    def _record_threads(monkeypatch, get_count, out_dir):
        """Make ``Engine.initialize`` write its process id and BLAS's thread
        count to ``out_dir/seed_<seed>``."""
        initialize = Engine.initialize

        def recording(engine):
            (out_dir / f"seed_{engine.seed}").write_text(f"{os.getpid()} {get_count()}")
            return initialize(engine)

        monkeypatch.setattr(Engine, "initialize", recording)

    def test_numpy_openblas_has_a_setter(self):
        """numpy's bundled OpenBLAS exports a thread-count setter, so the pin
        is not a silent no-op."""
        assert runner._blas_thread_calls() is not None

    def test_in_process_replicate_runs_on_one_thread(self, tmp_path, monkeypatch,
                                                     thread_count):
        self._record_threads(monkeypatch, thread_count, tmp_path)
        run_replicate(ExperimentConfig.from_yaml(TOY_YAML), 9, tmp_path / "rep")
        assert (tmp_path / "seed_9").read_text() == f"{os.getpid()} 1"
        assert thread_count() == self.CALLER_THREADS

    def test_count_restored_when_the_replicate_raises(self, tmp_path, monkeypatch,
                                                      thread_count):
        def fail(engine, batch_size):
            raise RuntimeError("synthetic failure")

        self._record_threads(monkeypatch, thread_count, tmp_path)
        monkeypatch.setattr(Engine, "run_batch", fail)
        with pytest.raises(RuntimeError, match="synthetic failure"):
            run_replicate(ExperimentConfig.from_yaml(TOY_YAML), 9, tmp_path / "rep")
        assert (tmp_path / "seed_9").read_text() == f"{os.getpid()} 1"
        assert thread_count() == self.CALLER_THREADS

    def test_worker_replicates_run_on_one_thread(self, tmp_path, monkeypatch,
                                                 thread_count):
        """A forked worker inherits the patched ``Engine.initialize``."""
        self._record_threads(monkeypatch, thread_count, tmp_path)
        result = run_experiment(ExperimentConfig.from_yaml(TOY_YAML), tmp_path / "run")
        assert not result.failed
        for seed in (9, 10):
            pid, count = (tmp_path / f"seed_{seed}").read_text().split()
            assert int(pid) != os.getpid()
            assert count == "1"
        assert thread_count() == self.CALLER_THREADS


class TestWorkers:
    def test_workers_match_in_process_replicates(self, tmp_path):
        """Three replicates on at most two forked workers give the bytes that
        ``run_replicate`` gives in this process."""
        config = ExperimentConfig.from_yaml(
            BLOCK_WALKER_YAML.replace("replicates: 1", "replicates: 3"))
        env = {name: os.environ.get(name) for name in BLAS_ENV}
        result = run_experiment(config, tmp_path / "workers")
        assert not result.failed
        assert multiprocessing.active_children() == []
        assert {name: os.environ.get(name) for name in BLAS_ENV} == env
        here = tmp_path / "here"
        for k in range(3):
            run_replicate(config, config.seed + k, here / f"rep_{k:03d}")
        for k in range(3):
            for name in ARTIFACTS:
                got = (result.run_dir / f"rep_{k:03d}" / name).read_bytes()
                assert got == (here / f"rep_{k:03d}" / name).read_bytes(), (k, name)
        write_aggregate([here], here / "aggregate.csv")
        assert (result.run_dir / "aggregate.csv").read_bytes() == \
            (here / "aggregate.csv").read_bytes()

    @staticmethod
    def _when_running(run_dir, action):
        """Call action() from a thread once rep_000 has started writing."""
        def wait():
            deadline = time.monotonic() + 120
            while not (run_dir / "rep_000" / "metrics.csv").exists():
                if time.monotonic() > deadline:
                    return
                time.sleep(0.01)
            action()
        thread = threading.Thread(target=wait, daemon=True)
        thread.start()
        return thread

    # long enough that no replicate finishes before the action
    LONG_YAML = BLOCK_WALKER_YAML.replace("replicates: 1", "replicates: 3").replace(
        "evaluation_budget: 100", "evaluation_budget: 20000")

    def test_killed_worker_fails_its_replicates(self, tmp_path):
        killed, results = [], []

        def kill_a_worker():
            worker = multiprocessing.active_children()[0]
            os.kill(worker.pid, signal.SIGKILL)
            killed.append(worker.pid)

        run_dir = tmp_path / "killed"
        config = ExperimentConfig.from_yaml(self.LONG_YAML)
        killer = self._when_running(run_dir, kill_a_worker)
        run = threading.Thread(target=lambda: results.append(run_experiment(config, run_dir)),
                               daemon=True)
        run.start()
        run.join(timeout=120)
        killer.join(timeout=10)
        assert not run.is_alive(), "run_experiment hung after a worker was killed"
        assert killed
        assert multiprocessing.active_children() == []
        assert len(results[0].failed) == 3
        for k in range(3):
            lines = (run_dir / f"rep_{k:03d}" / "FAILED").read_text().splitlines()
            assert lines[0] == "phase=unknown batch=unknown"
            assert lines[-1].startswith("BrokenProcessPool: ")
        assert not (run_dir / "aggregate.csv").exists()

    def test_interrupt_stops_the_workers(self, tmp_path):
        run_dir = tmp_path / "interrupted"
        env = {name: os.environ.get(name) for name in BLAS_ENV}
        main = threading.main_thread().ident
        thread = self._when_running(
            run_dir, lambda: signal.pthread_kill(main, signal.SIGINT))
        with pytest.raises(KeyboardInterrupt):
            run_experiment(ExperimentConfig.from_yaml(self.LONG_YAML), run_dir)
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert multiprocessing.active_children() == []
        assert {name: os.environ.get(name) for name in BLAS_ENV} == env

    def test_script_without_main_guard_runs_several_replicates(self, tmp_path):
        """A forked worker does not import the caller's main script, so a
        script with no ``if __name__ == "__main__":`` guard can run several
        replicates."""
        run_dir = tmp_path / "run"
        script = tmp_path / "unguarded.py"
        script.write_text(
            "from mcqd.config import ExperimentConfig\n"
            "from mcqd.runner import run_experiment\n"
            f"result = run_experiment(ExperimentConfig.from_yaml({TOY_YAML!r}), "
            f"{str(run_dir)!r})\n"
            "print(len(result.replicates), [r.error for r in result.failed])\n")
        out = subprocess.run([sys.executable, str(script)], env=_src_env(),
                             capture_output=True, text=True, timeout=300)
        assert out.returncode == 0, out.stderr
        assert out.stdout.splitlines() == ["2 []"]
        assert all(replicate_finished(run_dir / f"rep_{k:03d}") for k in range(2))


def _src_env() -> dict:
    """This process's environment with mcqd's source tree on PYTHONPATH."""
    src = str(Path(mcqd.__file__).resolve().parent.parent)
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def _python(script: str, stdin: bytes = b"") -> str:
    """Standard output of ``python -c script`` in a fresh process."""
    out = subprocess.run([sys.executable, "-c", script], env=_src_env(), input=stdin,
                         capture_output=True, timeout=300)
    assert out.returncode == 0, out.stderr.decode()
    return out.stdout.decode()


class TestWhatEachProcessLoads:
    """A process imports only what it uses."""

    def test_replicate_worker_loads_no_yaml(self, tmp_path):
        """A replicate job gets its config pickled and never parses YAML: a
        fresh process that runs the job, as a worker does, has no PyYAML."""
        config = ExperimentConfig.from_yaml(TOY_YAML.replace("replicates: 2",
                                                             "replicates: 1"))
        rep_dir = tmp_path / "rep_000"
        out = _python(
            "import pickle, sys\n"
            "from mcqd.runner import _replicate_job\n"
            "print(repr(_replicate_job(*pickle.loads(sys.stdin.buffer.read()))))\n"
            "print('yaml' in sys.modules)\n",
            pickle.dumps((config, config.seed, rep_dir)))
        assert out.splitlines() == ["''", "False"]
        assert replicate_finished(rep_dir)

    def test_no_module_imports_yaml(self):
        """PyYAML is imported where a config is parsed or dumped, never when
        a module of mcqd is."""
        out = _python(
            "import importlib, pkgutil, sys, mcqd\n"
            "for m in pkgutil.iter_modules(mcqd.__path__):\n"
            "    importlib.import_module('mcqd.' + m.name)\n"
            "print('yaml' in sys.modules)\n")
        assert out == "False\n"

    def test_multi_replicate_parent_loads_no_random(self, tmp_path):
        """The parent of a multi-replicate run builds no engine, so it never
        imports ``numpy.random``; its workers do."""
        out = _python(
            "import sys\n"
            "from mcqd.config import ExperimentConfig\n"
            "from mcqd.runner import run_experiment\n"
            "config = ExperimentConfig.from_yaml(sys.stdin.read())\n"
            f"result = run_experiment(config, {str(tmp_path / 'run')!r})\n"
            "print(len(result.replicates), len(result.failed))\n"
            "print('numpy.random' in sys.modules)\n",
            TOY_YAML.encode())
        assert out.splitlines() == ["2 0", "False"]


def _mcqd_cli(*args) -> subprocess.Popen:
    """``python -m mcqd.cli args`` in a new process, its output piped."""
    return subprocess.Popen([sys.executable, "-m", "mcqd.cli", *map(str, args)],
                            env=_src_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)


class TestUnfinishedReplicates:
    """A replicate has finished when it has ``containers.jsonl``, written
    last, and no ``FAILED``.  Aggregates and plot data skip every other
    replicate and name it in a warning."""

    def test_killed_in_process_replicate_is_skipped_and_named(self, toy_run,
                                                              tmp_path):
        config = tmp_path / "long.yaml"
        config.write_text(TOY_YAML.replace("replicates: 2", "replicates: 1").replace(
            "evaluation_budget: 80", "evaluation_budget: 100000000"))
        run_dir = tmp_path / "killed"
        killed = run_dir / "rep_000"
        run = _mcqd_cli("run", config, "--out", run_dir)
        try:
            deadline = time.monotonic() + 120
            # a few batches in, mid-search
            while not ((killed / "metrics.csv").exists() and
                       (killed / "metrics.csv").read_text().count("\n") >= 6):
                assert run.poll() is None and time.monotonic() < deadline
                time.sleep(0.01)
        finally:
            run.kill()
            run.communicate()
        assert sorted(p.name for p in killed.iterdir()) == ["batches.jsonl",
                                                            "metrics.csv"]
        assert not replicate_finished(killed)

        alone = _mcqd_cli("aggregate", run_dir)
        _, err = alone.communicate(timeout=120)
        assert alone.returncode == 2
        assert "no finished replicate" in err and str(killed) in err

        finished = toy_run[1].run_dir / "rep_001"
        shutil.copytree(finished, run_dir / "rep_001")
        shutil.copytree(finished, tmp_path / "only" / "rep_001")
        both = _mcqd_cli("aggregate", run_dir, "--out", tmp_path / "agg.csv")
        _, err = both.communicate(timeout=120)
        assert both.returncode == 0
        assert "WARNING skipping 1 unfinished replicate" in err and str(killed) in err
        expected = write_aggregate([tmp_path / "only"], tmp_path / "only.csv")
        assert (tmp_path / "agg.csv").read_bytes() == expected.read_bytes()

    def test_half_written_last_metrics_line_is_skipped(self, toy_run, tmp_path,
                                                       caplog):
        """A replicate killed while it wrote a metrics row: the row is cut
        short and no ``containers.jsonl`` or ``checkpoint.npz`` exists."""
        _, result = toy_run
        run = tmp_path / "run"
        shutil.copytree(result.run_dir, run,
                        ignore=shutil.ignore_patterns("plot", "aggregate.csv"))
        cut = run / "rep_001"
        text = (cut / "metrics.csv").read_text()
        (cut / "metrics.csv").write_text(text[:-25])
        (cut / "containers.jsonl").unlink()
        (cut / "checkpoint.npz").unlink()
        shutil.copytree(result.run_dir / "rep_000", tmp_path / "only" / "rep_000")
        expected = write_aggregate([tmp_path / "only"], tmp_path / "only.csv")
        with caplog.at_level(logging.WARNING, logger="mcqd.runner"):
            got = write_aggregate([run], tmp_path / "agg.csv")
            plot_dir = emit_plot_data(run)
        assert got.read_bytes() == expected.read_bytes()
        assert (plot_dir / "curves.csv").read_bytes() == expected.read_bytes()
        assert (plot_dir / "heatmap_rep_000_c0.csv").exists()
        assert not list(plot_dir.glob("heatmap_rep_001_*"))
        warnings = [r.getMessage() for r in caplog.records]
        assert len(warnings) == 2 and all(str(cut) in w for w in warnings)

    def test_containers_are_written_last(self, tmp_path, monkeypatch):
        import mcqd.runner as runner_mod

        real, seen = runner_mod.save_checkpoint, []

        def save_checkpoint(path, *args):
            seen.append(sorted(p.name for p in path.parent.iterdir()))
            real(path, *args)

        monkeypatch.setattr(runner_mod, "save_checkpoint", save_checkpoint)
        config = ExperimentConfig.from_yaml(TOY_YAML.replace("replicates: 2",
                                                             "replicates: 1"))
        rep = run_experiment(config, tmp_path / "run").run_dir / "rep_000"
        assert seen == [["batches.jsonl", "metrics.csv"]]
        assert sorted(p.name for p in rep.iterdir()) == [
            "batches.jsonl", "checkpoint.npz", "containers.jsonl", "metrics.csv"]
        assert replicate_finished(rep)


class TestTaskDependentConfigErrors:
    """Errors that need the task's definition surface before any run
    directory exists, not as a FAILED file in every replicate."""

    GRID_CASES = pytest.mark.parametrize("task,budget,grid,message", [
        ("rastrigin_toy", 25, "{shape: [5, 5], fd: hardcoded}",
         "task 'rastrigin_toy' declares only 0 hardcoded FD pairs"),
        ("surrogate_walker", 125, "{shape: [5, 5], fd: hardcoded, count: 5}",
         "only 4 hardcoded FD pairs"),
        ("surrogate_walker", 50, "{shape: [5, 5, 2], fd: hardcoded}",
         "FD spec has 2 dims"),
    ], ids=["missing-channel", "too-many-grids", "grid-dimension"])

    @staticmethod
    def _grid_config(task, budget, grid):
        return ExperimentConfig.from_yaml(
            f"case: task-error\ncontainers:\n  bin_budget: {budget}\n"
            f"  grids:\n    - {grid}\ntask:\n  name: {task}\n"
            "training:\n  strategy: none\n")

    @GRID_CASES
    def test_raised_before_the_run_directory(self, tmp_path, task, budget, grid,
                                             message):
        config = self._grid_config(task, budget, grid)
        with pytest.raises(ConfigurationError) as err:
            run_experiment(config, tmp_path / "run")
        assert message in str(err.value)
        assert not (tmp_path / "run").exists()

    @GRID_CASES
    def test_engine_raises_the_same_error(self, tmp_path, task, budget, grid,
                                          message):
        """``run_experiment`` checks without building an engine; an engine
        built from the same config fails with the same message."""
        config = self._grid_config(task, budget, grid)
        with pytest.raises(ConfigurationError) as from_run:
            run_experiment(config, tmp_path / "run")
        with pytest.raises(ConfigurationError) as from_engine:
            Engine(make_task(config.task.name, config.task.params), config.grids,
                   config.search, config.training, config.seed)
        assert str(from_engine.value) == str(from_run.value)
        assert message in str(from_engine.value)

    @pytest.mark.parametrize("task,params,key", [
        ("surrogate_walker", "{episode_step: 150}", "episode_step"),
        ("surrogate_walker", "{obs_window: 0}", "obs_window"),
        ("surrogate_walker", "{episode_steps: -150}", "episode_steps"),
        ("surrogate_walker", "{episodes_per_eval: 2.5}", "episodes_per_eval"),
        ("surrogate_walker", "{obs_window: true}", "obs_window"),
        ("rastrigin_toy", "{n_timepoints: 0}", "n_timepoints"),
        ("surrogate_walker", "{terrain_roughness: rough}", "terrain_roughness"),
        ("surrogate_walker", "{terrain_roughness: -0.1}", "terrain_roughness"),
        ("surrogate_walker", "{terrain_roughness: .inf}", "terrain_roughness"),
    ], ids=["unknown", "zero-window", "negative-steps", "fractional-episodes",
            "boolean-window", "toy-zero-timepoints", "non-numeric-roughness",
            "negative-roughness", "infinite-roughness"])
    def test_bad_task_parameter_raised_before_the_run_directory(self, tmp_path,
                                                                task, params, key):
        config = ExperimentConfig.from_yaml(
            "case: task-error\ncontainers:\n  bin_budget: 25\n"
            "  grids:\n    - {shape: [5, 5], fd: ae}\n"
            f"task:\n  name: {task}\n  params: {params}\n")
        with pytest.raises(ConfigurationError) as err:
            run_experiment(config, tmp_path / "run")
        assert f"task {task!r}" in str(err.value) and repr(key) in str(err.value)
        assert not (tmp_path / "run").exists()


class TestPythonBuiltConfigErrors:
    """``run_experiment`` validates first: a config built in Python and then
    made invalid fails before the run directory exists, as a loaded one
    does, instead of failing every replicate."""

    @pytest.mark.parametrize("preset,key,value,message", [
        ("reco-4", "strategy", "none", "learned descriptors need training strategy"),
        ("hardcoded-4", "strategy", "online", "hardcoded descriptors require training"),
        ("reco-4", "latent_dim", 3, "must have training.latent_dim = 3 dimensions"),
    ], ids=["learned-without-training", "hardcoded-with-online", "latent-dim"])
    def test_raised_before_the_run_directory(self, tmp_path, preset, key, value,
                                             message):
        config = build_preset(preset, desk=True)
        setattr(config.training, key, value)
        with pytest.raises(ConfigurationError) as err:
            run_experiment(config, tmp_path / "run")
        assert message in str(err.value)
        assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("budget", [3, 4, 5])
def test_small_initial_collection_trains_under_cov(tmp_path, budget):
    """Three to five initial rows split into one validation row at the
    default split; under cov that row is kept for training instead."""
    config = ExperimentConfig.from_yaml(
        TOY_YAML.replace("fd: ae_qt", "fd: ae").replace(
            "initialization_budget: 25", f"initialization_budget: {budget}").replace(
            "  quantiles: 40", "  quantiles: 40\n  diversity: {kind: cov}"))
    result = run_experiment(config, tmp_path / "run")
    assert not result.failed, [r.error for r in result.failed]


@st.composite
def small_toy_configs(draw):
    """A one-replicate ``rastrigin_toy`` config dict over every fd type,
    sharing, training strategy and diversity kind, with small budgets.  The
    toy task declares no hardcoded FD, so hardcoded grids are drawn alone."""
    first = draw(st.sampled_from(FD_TYPES))
    learned = first != "hardcoded"
    fds = [first] + draw(st.lists(st.sampled_from(("ae", "ae_qt")) if learned
                                  else st.just(first), max_size=2))
    latent = draw(st.integers(1, 2))
    grids = [{"shape": draw(st.lists(st.integers(1, 4), min_size=latent,
                                     max_size=latent)), "fd": fd} for fd in fds]
    return {
        "case": "fuzz", "seed": draw(st.integers(0, 99)), "replicates": 1,
        "containers": {"bin_budget": sum(int(np.prod(g["shape"])) for g in grids),
                       "grids": grids},
        "task": {"name": "rastrigin_toy",
                 "params": {"n_timepoints": draw(st.integers(1, 6))}},
        "search": {
            "sharing": draw(st.sampled_from(SHARING_STRATEGIES)),
            "initialization_budget": draw(st.integers(1, 24)),
            "evaluation_budget": draw(st.integers(1, 48)),
            "batch_size": draw(st.integers(1, 16)),
        },
        "training": {
            "strategy": draw(st.sampled_from(
                [s for s in TRAINING_STRATEGIES if s != "none"] if learned
                else ["none"])),
            "period": draw(st.integers(1, 24)),
            "epochs": draw(st.integers(1, 3)),
            "learning_rate": draw(st.sampled_from((0.0, 0.01, 0.1))),
            "batch_size": draw(st.integers(1, 16)),
            "latent_dim": latent,
            "hidden": draw(st.lists(st.integers(1, 6), max_size=2)),
            "dropout": draw(st.sampled_from((0.0, 0.2))),
            "quantiles": draw(st.integers(2, 20)),
            "diversity": {"kind": draw(st.sampled_from(DIVERSITY_KINDS)),
                          "weight": draw(st.sampled_from((0.0, 1.0))),
                          "sign": draw(st.sampled_from((1, -1)))},
        },
    }


@settings(max_examples=40, derandomize=True, deadline=None)
@given(small_toy_configs())
def test_a_config_that_loads_runs(data):
    """Every small toy config that loads either runs its replicate to the
    end or, with a hardcoded grid, is rejected before its run directory
    exists: the toy task declares no hardcoded FDs."""
    try:
        config = ExperimentConfig.from_dict(data)
    except ConfigurationError:
        reject()
    with tempfile.TemporaryDirectory() as tmp:
        run_dir = os.path.join(tmp, "run")
        if any(g.fd == "hardcoded" for g in config.grids):
            with pytest.raises(ConfigurationError, match="declares only 0 hardcoded"):
                run_experiment(config, run_dir)
            assert not os.path.exists(run_dir)
            return
        result = run_experiment(config, run_dir)
        assert not result.failed, result.failed[0].error


class TestOutputRoot:
    def test_env_var_roots_relative_dirs(self, tmp_path, monkeypatch):
        monkeypatch.setenv("MCQD_OUTPUT_ROOT", str(tmp_path))
        config = ExperimentConfig.from_yaml(TOY_YAML)
        assert resolve_run_dir(config) == tmp_path / "toy-run"
        assert resolve_run_dir(config, "sub/dir") == tmp_path / "sub" / "dir"
        absolute = tmp_path / "abs"
        assert resolve_run_dir(config, absolute) == absolute
