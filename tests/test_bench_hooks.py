"""The names of mcqd that the benchmark in ``perfbench/`` resolves.

The benchmark wraps mcqd's functions and methods from its own side and
builds some of its inputs directly, so a refactor that renames or drops one
of those names breaks no import inside mcqd.  These tests fail instead.
"""
import math
from pathlib import Path

import pytest

import mcqd.runner
from mcqd.config import ExperimentConfig
from mcqd.runner import run_experiment

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# Probe targets that no longer resolve; the benchmark reports them missing
# and reads the metrics that need them as 0 until its probe table is fixed
# (ROADMAP item 6).
STALE_PROBES = {
    "mcqd.descriptors:HardcodedExtractor.extract",
    "mcqd.descriptors:LearnedExtractor.extract",
    "mcqd.descriptors:DescriptorExtractor.extract_many",
    "mcqd.core:DepotContainer.record",
}

TOY_YAML = """\
case: bench-hooks
seed: 4
containers:
  bin_budget: 72
  grids:
    - {shape: [6, 6], fd: ae_qt, count: 2}
task:
  name: rastrigin_toy
search:
  sharing: non_shared
  initialization_budget: 25
  evaluation_budget: 80
  batch_size: 20
  mutation: {probability: 0.5, eta: 20.0}
training:
  strategy: online
  period: 10
  epochs: 2
  batch_size: 16
  hidden: [8]
  quantiles: 40
"""

# One grid of each extractor kind on the walker, with a retrain: a run that
# reaches every probed layer.
WALKER_YAML = """\
case: bench-hooks-walker
seed: 2
containers:
  bin_budget: 50
  grids:
    - {shape: [5, 5], fd: hardcoded}
    - {shape: [5, 5], fd: ae_qt}
task:
  name: surrogate_walker
  params: {episode_steps: 20, obs_window: 5, episodes_per_eval: 2}
search:
  sharing: shared
  initialization_budget: 20
  evaluation_budget: 40
  batch_size: 10
training:
  strategy: online
  period: 10
  epochs: 2
  batch_size: 16
  hidden: [8]
  quantiles: 20
"""


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))


def test_every_probe_but_the_stale_ones_resolves(perfbench):
    from tracer import Probes, Tracer

    with Probes(Tracer()) as probes:
        missing = set(probes.missing)
    assert missing <= STALE_PROBES


def test_a_traced_run_reads_every_counter(perfbench, tmp_path):
    """The counters read fields of what the probed calls return (the retrain
    report, the reindex records, the training report); a traced run with a
    retrain must read them all."""
    from tracer import Probes, Tracer

    tracer = Tracer()
    with Probes(tracer):
        result = run_experiment(ExperimentConfig.from_yaml(TOY_YAML), tmp_path / "run")
    assert not result.failed
    assert not tracer.count_errors
    assert tracer.counts[("engine.retrain", "fired")] >= 1
    assert tracer.counts[("autoencoder.train", "module_epochs")] > 0


def test_every_installed_probe_fires(perfbench, tmp_path):
    """A probed name can still resolve after a refactor and yet no longer be
    called, which leaves its metrics at 0.  The run goes through the module
    attribute, so the probe on ``run_experiment`` sees it too."""
    from tracer import Probes, Tracer

    tracer = Tracer()
    with Probes(tracer) as probes:
        result = mcqd.runner.run_experiment(ExperimentConfig.from_yaml(WALKER_YAML),
                                            tmp_path / "run")
    assert not result.failed
    silent = sorted(span for span in probes.installed_spans
                    if span not in tracer.spans or tracer.spans[span].calls == 0)
    assert not silent


def test_micro_probes_run(perfbench):
    import micro

    config = ExperimentConfig.from_yaml(TOY_YAML)
    values = {**micro.task_ms_per_eval(config, 1),
              **micro.train_ms_per_epoch_module(config, 1)}
    assert set(values) == (
        {f"tasks.ms_per_eval.b{b}" for b in micro.TASK_BATCHES}
        | {f"autoencoder.train.ms_per_epoch_module.m{m}" for m in micro.TRAIN_MODULES})
    assert all(math.isfinite(v) and v > 0 for v in values.values())
