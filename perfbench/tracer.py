"""Span tracer for the traced benchmark run.

Probes wrap public functions and methods of the ``mcqd`` modules from the
benchmark's side, so nothing under ``src/`` changes.  Each wrapper opens a
span on a stack; a span's self time is its duration minus the time its
child spans cover, and every second inside a traced call is charged to
exactly one layer.  Spans are aggregated by name as they close.

The tracer keeps one span stack: it sees the calls of one thread in one
process.  Work moved into worker threads or processes goes unrecorded
there unless the probes are installed in those workers too.

A probe whose target no longer exists (a refactor renamed or removed it) is
reported missing, together with every metric that reads it; the run goes
on.
"""
from __future__ import annotations

import functools
import importlib
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass, field


# Descriptor rows count only where another layer calls in: the learned
# extract calls extract_many and the base extract_many calls extract, so
# counting nested calls would count rows twice.
def _one_row(args, result, entry):
    return {"rows": 1} if entry else {}


def _rows(args, result, entry):
    return {"rows": len(result)} if entry else {}


def _evals(args, result, entry):
    return {"evals": len(result)}


def _accepted(args, result, entry):
    return {"accepted": int(result[0].accepted)}


def _reindexed(args, result, entry):
    return {"retained": sum(r.retained for r in result),
            "dropped": sum(r.dropped for r in result)}


def _retrain(args, result, entry):
    if result is None:
        return {}
    return {"fired": int(not result.diverged), "diverged": int(result.diverged)}


def _trained(args, result, entry):
    ensemble, inputs = args[0], args[1]
    return {"rows": len(inputs), "module_epochs": result.epochs_run * ensemble.n_modules}


def _depot_rows(args, result, entry):
    return {"rows": len(args[1])}


# layer -> [(target "module:attribute.path", span name, counter or None)].
# A method is wrapped on the class that defines it, so an inherited method
# is never wrapped twice.  Functions that one module imports from another
# are wrapped where the caller looks them up.
PROBES = {
    "config": [
        ("mcqd.runner:build_engine", "config.build_engine", None),
    ],
    "tasks": [
        ("mcqd.tasks:Task.evaluate_many", "tasks.evaluate", _evals),
        ("mcqd.tasks:SurrogateWalkerTask.evaluate_many", "tasks.evaluate", _evals),
    ],
    "descriptors": [
        ("mcqd.descriptors:HardcodedExtractor.extract", "descriptors.extract", _one_row),
        ("mcqd.descriptors:LearnedExtractor.extract", "descriptors.extract", _one_row),
        ("mcqd.descriptors:DescriptorExtractor.extract_many",
         "descriptors.extract_many", _rows),
        ("mcqd.descriptors:LearnedExtractor.extract_many",
         "descriptors.extract_many", _rows),
    ],
    "core": [
        ("mcqd.core:GridContainer.add", "core.add", _accepted),
        ("mcqd.core:DepotContainer.record", "core.depot_record", None),
        ("mcqd.core:DepotContainer.observation_corpus", "core.depot_corpus", None),
    ],
    "engine": [
        ("mcqd.engine:Engine.initialize", "engine.initialize", None),
        ("mcqd.engine:Engine.run_batch", "engine.run_batch", None),
        ("mcqd.engine:Engine.maybe_retrain", "engine.retrain", _retrain),
        ("mcqd.engine:Engine.reindex_all", "engine.reindex", _reindexed),
        ("mcqd.engine:select_curiosity_roulette", "engine.select", None),
        ("mcqd.engine:mutate_polynomial", "engine.mutate", None),
    ],
    "autoencoder": [
        ("mcqd.engine:train_ensemble", "autoencoder.train", _trained),
        ("mcqd.autoencoder:ModularAutoEncoderEnsemble.encode", "autoencoder.encode", None),
        ("mcqd.autoencoder:ModularAutoEncoderEnsemble.build", "autoencoder.build", None),
        ("mcqd.autoencoder:ModularAutoEncoderEnsemble.clone", "autoencoder.build", None),
        ("mcqd.autoencoder:ObservationScaler.fit", "autoencoder.scale", None),
        ("mcqd.autoencoder:ObservationScaler.transform", "autoencoder.scale", None),
    ],
    "postprocess": [
        ("mcqd.postprocess:QuantileTransform.fit", "postprocess.fit", None),
        ("mcqd.postprocess:QuantileTransform.apply", "postprocess.apply", None),
    ],
    "metrics": [
        ("mcqd.runner:snapshot", "metrics.snapshot", None),
        ("mcqd.metrics:fd_abs_correlation", "metrics.fd_abs_corr", _depot_rows),
    ],
    "runner": [
        ("mcqd.runner:run_experiment", "runner.run_experiment", None),
        ("mcqd.runner:run_replicate", "runner.run_replicate", None),
        ("mcqd.runner:write_container_snapshots", "runner.write", None),
        ("mcqd.runner:save_checkpoint", "runner.write", None),
        ("mcqd.runner:write_aggregate", "runner.write", None),
    ],
}


SPAN_LAYER = {span: layer for layer, probes in PROBES.items() for _, span, _ in probes}
# Spans whose every call duration is kept, for the percentile metrics.
TIMED_SPANS = {"engine.run_batch"}


@dataclass
class SpanStats:
    layer: str
    calls: int = 0
    entries: int = 0  # calls made from another layer (or from outside)
    total_s: float = 0.0
    self_s: float = 0.0
    durations: list[float] = field(default_factory=list)  # TIMED_SPANS only


class Tracer:
    def __init__(self):
        self.reset()

    def reset(self) -> None:
        self.stack: list[list] = []  # [layer, seconds covered by child spans]
        self.spans: dict[str, SpanStats] = {}
        self.counts: dict[tuple[str, str], float] = defaultdict(float)
        self.layer_self: dict[str, float] = defaultdict(float)
        self.count_errors: set[str] = set()

    def call(self, layer, span, count, fn, args, kwargs):
        parent = self.stack[-1] if self.stack else None
        entry = parent is None or parent[0] != layer
        frame = [layer, 0.0]
        self.stack.append(frame)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            self.stack.pop()
            if parent is not None:
                parent[1] += elapsed
            stats = self.spans.get(span)
            if stats is None:
                stats = self.spans[span] = SpanStats(layer)
            stats.calls += 1
            stats.entries += entry
            stats.total_s += elapsed
            stats.self_s += elapsed - frame[1]
            if span in TIMED_SPANS:
                stats.durations.append(elapsed)
            self.layer_self[layer] += elapsed - frame[1]
        if count is not None:
            try:
                for key, value in count(args, result, entry).items():
                    self.counts[(span, key)] += value
            except Exception:  # noqa: BLE001 - a stale counter must not stop the run
                self.count_errors.add(span)
        return result


def _resolve(target: str):
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr, vars(owner)[attr]


def _wrap(tracer: Tracer, layer: str, span: str, count, raw):
    if isinstance(raw, (classmethod, staticmethod)):
        return type(raw)(_wrap(tracer, layer, span, count, raw.__func__))

    @functools.wraps(raw)
    def traced(*args, **kwargs):
        return tracer.call(layer, span, count, raw, args, kwargs)
    return traced


class Probes:
    """Installs every probe of ``PROBES`` on entry and restores the
    originals on exit; ``missing`` lists the targets that did not resolve."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.missing: list[str] = []
        self.installed_spans: set[str] = set()
        self._undo: list[tuple] = []

    def __enter__(self):
        for layer, probes in PROBES.items():
            for target, span, count in probes:
                try:
                    owner, attr, raw = _resolve(target)
                except (ImportError, AttributeError, KeyError):
                    self.missing.append(target)
                    continue
                setattr(owner, attr, _wrap(self.tracer, layer, span, count, raw))
                self._undo.append((owner, attr, raw))
                self.installed_spans.add(span)
        return self

    def __exit__(self, *exc):
        for owner, attr, raw in reversed(self._undo):
            setattr(owner, attr, raw)
        self._undo.clear()
        return False


class Missing(Exception):
    """A metric read a span whose probe is not installed."""


class _View:
    """Read access to one traced repeat; reading an uninstalled span or a
    failed counter raises Missing."""

    def __init__(self, tracer: Tracer, installed: set[str]):
        self._tracer = tracer
        self._installed = installed

    def _span(self, span: str) -> SpanStats:
        if span not in self._installed:
            raise Missing(span)
        return self._tracer.spans.get(span, SpanStats(SPAN_LAYER[span]))

    def calls(self, span):
        return self._span(span).calls

    def entries(self, span):
        return self._span(span).entries

    def total(self, span):
        return self._span(span).total_s

    def self_time(self, span):
        return self._span(span).self_s

    def durations(self, span):
        return self._span(span).durations

    def count(self, span, key):
        self._span(span)
        if span in self._tracer.count_errors:
            raise Missing(span)
        return self._tracer.counts.get((span, key), 0.0)

    def layer(self, layer):
        if not any(s in self._installed for _, s, _ in PROBES[layer]):
            raise Missing(layer)
        return self._tracer.layer_self.get(layer, 0.0)


def _ratio(num, den):
    return num / den if den else 0.0


def _percentile_ms(values, q):
    if not values:
        return 0.0
    if len(values) == 1:
        return 1000.0 * values[0]
    return 1000.0 * statistics.quantiles(values, n=10, method="inclusive")[q - 1]


# Per-layer metrics read from one traced repeat: name -> (unit, reader).
LAYER_METRICS = {
    "config.self_s": ("s", lambda v: v.layer("config")),
    "tasks.calls": ("count", lambda v: v.calls("tasks.evaluate")),
    "tasks.evals": ("count", lambda v: v.count("tasks.evaluate", "evals")),
    "tasks.self_s": ("s", lambda v: v.layer("tasks")),
    "tasks.ms_per_eval": ("ms", lambda v: 1000.0 * _ratio(
        v.layer("tasks"), v.count("tasks.evaluate", "evals"))),
    "descriptors.extract.calls": ("count", lambda v: v.entries("descriptors.extract")),
    "descriptors.extract_many.calls": (
        "count", lambda v: v.entries("descriptors.extract_many")),
    "descriptors.rows": ("count", lambda v: v.count("descriptors.extract", "rows")
                         + v.count("descriptors.extract_many", "rows")),
    "descriptors.self_s": ("s", lambda v: v.layer("descriptors")),
    "core.add.calls": ("count", lambda v: v.calls("core.add")),
    "core.add.accept_ratio": ("ratio", lambda v: _ratio(
        v.count("core.add", "accepted"), v.calls("core.add"))),
    "core.add.self_s": ("s", lambda v: v.self_time("core.add")),
    "core.depot_corpus_s": ("s", lambda v: v.total("core.depot_corpus")),
    "core.self_s": ("s", lambda v: v.layer("core")),
    "engine.select.self_s": ("s", lambda v: v.self_time("engine.select")),
    "engine.mutate.self_s": ("s", lambda v: v.self_time("engine.mutate")),
    "engine.run_batch.self_s": ("s", lambda v: v.self_time("engine.run_batch")),
    "engine.batch_ms.p50": ("ms", lambda v: _percentile_ms(
        v.durations("engine.run_batch"), 5)),
    "engine.batch_ms.p90": ("ms", lambda v: _percentile_ms(
        v.durations("engine.run_batch"), 9)),
    "engine.initialize_s": ("s", lambda v: v.total("engine.initialize")),
    "engine.reindex_s": ("s", lambda v: v.total("engine.reindex")),
    "engine.reindex.retained_ratio": ("ratio", lambda v: _ratio(
        v.count("engine.reindex", "retained"),
        v.count("engine.reindex", "retained") + v.count("engine.reindex", "dropped"))),
    "engine.retrains": ("count", lambda v: v.count("engine.retrain", "fired")),
    "engine.retrains_diverged": ("count", lambda v: v.count("engine.retrain", "diverged")),
    "engine.self_s": ("s", lambda v: v.layer("engine")),
    "autoencoder.train.calls": ("count", lambda v: v.calls("autoencoder.train")),
    "autoencoder.train_s": ("s", lambda v: v.total("autoencoder.train")),
    "autoencoder.train.rows": ("count", lambda v: v.count("autoencoder.train", "rows")),
    "autoencoder.train.ms_per_epoch_module": ("ms", lambda v: 1000.0 * _ratio(
        v.total("autoencoder.train"), v.count("autoencoder.train", "module_epochs"))),
    "autoencoder.encode.calls": ("count", lambda v: v.calls("autoencoder.encode")),
    "autoencoder.encode_s": ("s", lambda v: v.total("autoencoder.encode")),
    "autoencoder.self_s": ("s", lambda v: v.layer("autoencoder")),
    "postprocess.fit.calls": ("count", lambda v: v.calls("postprocess.fit")),
    "postprocess.fit_s": ("s", lambda v: v.total("postprocess.fit")),
    "postprocess.apply.calls": ("count", lambda v: v.calls("postprocess.apply")),
    "postprocess.apply_s": ("s", lambda v: v.total("postprocess.apply")),
    "postprocess.self_s": ("s", lambda v: v.layer("postprocess")),
    "metrics.snapshot.calls": ("count", lambda v: v.calls("metrics.snapshot")),
    "metrics.snapshot_s": ("s", lambda v: v.total("metrics.snapshot")),
    "metrics.fd_abs_corr_s": ("s", lambda v: v.total("metrics.fd_abs_corr")),
    "metrics.fd_abs_corr.rows": ("count", lambda v: v.count("metrics.fd_abs_corr", "rows")),
    "metrics.self_s": ("s", lambda v: v.layer("metrics")),
    "runner.self_s": ("s", lambda v: v.layer("runner") - v.self_time("runner.write")),
    "runner.write_s": ("s", lambda v: v.self_time("runner.write")),
}


def read_layer_metrics(tracer: Tracer, probes: Probes) -> tuple[dict, set]:
    """(metric -> value, names of the metrics whose probes are missing)."""
    view = _View(tracer, probes.installed_spans)
    values, missing = {}, set()
    for name, (_, reader) in LAYER_METRICS.items():
        try:
            values[name] = float(reader(view))
        except Missing:
            values[name] = 0.0
            missing.add(name)
    return values, missing
