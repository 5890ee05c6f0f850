"""Experiment orchestration: seeded replicates, logs, snapshots, aggregates.

Per-replicate artifacts (all deterministic given config + seed, no
timestamps anywhere):

* ``metrics.csv``    one row per batch iteration (row 0 = state right after
                     initialization), columns in ``metrics.METRIC_COLUMNS``
                     order, empty field = metric undefined.
* ``batches.jsonl``  one record per batch: its index, the fields of
                     ``engine.BatchStats`` and ``engine.RetrainReport``
                     (null without a retrain), per-container occupancy.
* ``checkpoint.npz`` descriptor model(s), input scaling, quantile landmarks.
* ``containers.jsonl`` final container snapshots, one record per occupied
                     cell with fields (container_id, bin, solution_id,
                     fitness, fd, genome) in that order.  Written last, and
                     atomically: a replicate has finished when it has this
                     file and no ``FAILED`` (``replicate_finished``).
* ``FAILED``         only when the replicate failed: a first line
                     ``phase=<initialize|batch|retrain|write> batch=<k>``
                     (``unknown`` for both when its worker process died),
                     then the traceback.

Each text artifact starts with a metadata line carrying the config hash,
seed, and code version.  ``aggregate.csv`` holds per-iteration cross-
replicate statistics (mean, std, min, q25, q75, max) per metric.
"""
from __future__ import annotations

import csv
import ctypes
import functools
import io
import json
import logging
import os
import traceback
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .autoencoder import save_checkpoint
from .config import ExperimentConfig
from .engine import Engine, check_task_grids
from .metrics import METRIC_COLUMNS, snapshot
from .tasks import make_task

log = logging.getLogger(__name__)

OUTPUT_ROOT_ENV = "MCQD_OUTPUT_ROOT"


def build_engine(config: ExperimentConfig, seed: int) -> Engine:
    """Wire a task and an engine from a validated config."""
    task = make_task(config.task.name, config.task.params)
    return Engine(task, config.grids, config.search, config.training, seed)


# ---------------------------------------------------------------------------
# Formatting helpers (byte-stable output)
# ---------------------------------------------------------------------------

def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _meta_line(kind: str, config: ExperimentConfig, seed: int | None = None) -> str:
    parts = [f"# mcqd-{kind} v1", f"case={config.case}", f"config={config.hash()}"]
    if seed is not None:
        parts.append(f"seed={seed}")
    parts.append(f"version={__version__}")
    return " ".join(parts)


def _json_meta(config: ExperimentConfig, seed: int | None = None) -> dict:
    meta = {"record": "meta", "case": config.case, "config": config.hash(),
            "version": __version__}
    if seed is not None:
        meta["seed"] = seed
    return meta


# ---------------------------------------------------------------------------
# Replicate execution
# ---------------------------------------------------------------------------

@dataclass
class ReplicateResult:
    seed: int
    directory: Path
    failed: bool = False
    error: str = ""


@dataclass
class RunResult:
    run_dir: Path
    replicates: list[ReplicateResult] = field(default_factory=list)

    @property
    def failed(self) -> list[ReplicateResult]:
        return [r for r in self.replicates if r.failed]


def resolve_run_dir(config: ExperimentConfig, out_dir=None) -> Path:
    """Output directory: explicit argument, else the config's, else the case
    name; relative paths are rooted at $MCQD_OUTPUT_ROOT (default: cwd)."""
    target = Path(out_dir or config.output_dir or config.case)
    if not target.is_absolute():
        target = Path(os.environ.get(OUTPUT_ROOT_ENV, ".")) / target
    return target


@dataclass
class ReplicateProgress:
    """Where a replicate is: the phase it runs (``initialize``, ``batch``,
    ``retrain`` or ``write``) and its batch index, 0 before the first batch."""
    phase: str = "initialize"
    batch: int = 0


@functools.cache
def _blas_thread_calls():
    """The setter and getter of the thread count of numpy's bundled
    OpenBLAS, looked up once per process; None, after one warning that names
    the library, where it has no setter."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    paths = sorted(libs.glob("*openblas*"))
    for path in paths:
        lib = ctypes.CDLL(str(path))
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"),
                               ("openblas", "")):
            setter = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            getter = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            if setter is not None and getter is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], None
                return setter, getter
    log.warning("no OpenBLAS thread-count setter in %s; replicates run BLAS "
                "at its default thread count, and their learned bits may then "
                "follow that count",
                ", ".join(path.name for path in paths) or f"{libs} (no OpenBLAS)")
    return None


@contextmanager
def _one_blas_thread():
    """Run BLAS on one thread inside the block, then restore the caller's
    count.  Two workers at two threads each would oversubscribe a 2-core box
    and run several times slower."""
    calls = _blas_thread_calls()
    if calls is None:
        yield
        return
    set_count, get_count = calls
    saved = get_count()
    set_count(1)
    try:
        yield
    finally:
        set_count(saved)


@_one_blas_thread()
def run_replicate(config: ExperimentConfig, seed: int, rep_dir: Path,
                  progress: ReplicateProgress | None = None) -> None:
    """Execute one seeded replicate and write its artifacts, keeping
    ``progress``, when given, at the phase and batch being run.  BLAS runs on
    one thread for the replicate's duration (``_one_blas_thread``), so its
    bytes do not depend on the caller's thread count."""
    at = progress if progress is not None else ReplicateProgress()
    engine = build_engine(config, seed)
    bounds = engine.task.definition.fitness_bounds

    at.phase = "write"
    rep_dir.mkdir(parents=True, exist_ok=True)
    metrics_path = rep_dir / "metrics.csv"
    batches_path = rep_dir / "batches.jsonl"
    with open(metrics_path, "w", newline="") as mfh, open(batches_path, "w") as bfh:
        mfh.write(_meta_line("metrics", config, seed) + "\n")
        writer = csv.writer(mfh)
        writer.writerow(METRIC_COLUMNS)
        bfh.write(json.dumps(_json_meta(config, seed)) + "\n")

        at.phase = "initialize"
        engine.initialize()
        at.phase = "write"
        writer.writerow([_fmt(v) for v in
                         snapshot(0, engine.containers, engine.depot, bounds).as_row()])

        while engine.eval_budget_used < config.search.evaluation_budget:
            at.batch += 1
            at.phase = "batch"
            stats = engine.run_batch(config.search.batch_size)
            at.phase = "retrain"
            retrain = engine.maybe_retrain()
            at.phase = "write"
            snap = snapshot(at.batch, engine.containers, engine.depot, bounds)
            writer.writerow([_fmt(v) for v in snap.as_row()])
            record = {"batch": at.batch, **asdict(stats),
                      "retrain": None if retrain is None else asdict(retrain),
                      "occupancy": [c.occupancy for c in engine.containers]}
            bfh.write(json.dumps(record) + "\n")

    if engine.ensemble is not None:
        save_checkpoint(rep_dir / "checkpoint.npz", engine.ensemble, engine.scaler,
                        engine.quantile_transforms)
    write_container_snapshots(engine, rep_dir / "containers.jsonl", config, seed)


def replicate_finished(rep_dir: Path) -> bool:
    """Whether a replicate ran to its end: it wrote ``containers.jsonl``, its
    last artifact, and no ``FAILED``.  A replicate killed from outside has
    neither."""
    return (rep_dir / "containers.jsonl").exists() and not (rep_dir / "FAILED").exists()


def _write_failed(rep_dir: Path, where: str, error: str) -> None:
    rep_dir.mkdir(parents=True, exist_ok=True)
    (rep_dir / "FAILED").write_text(f"{where}\n{error}")


def _replicate_job(config: ExperimentConfig, seed: int, rep_dir: Path) -> str:
    """Run one replicate, in-process or in a worker.  Returns "" on success;
    on failure writes ``FAILED`` (the phase and batch index, then the
    traceback) and returns the error."""
    at = ReplicateProgress()
    try:
        run_replicate(config, seed, rep_dir, at)
    except Exception as exc:  # noqa: BLE001 - replicate isolation
        _write_failed(rep_dir, f"phase={at.phase} batch={at.batch}",
                      traceback.format_exc())
        return f"{type(exc).__name__}: {exc}"
    return ""


def _run_in_workers(jobs: list[tuple]) -> list[str]:
    """``_replicate_job`` for every job in a fork-context process pool, one
    worker per core at most; returns the errors in job order.

    A forked worker shares the modules its parent imported, so it starts
    without importing anything, and a script that runs several replicates
    needs no ``if __name__ == "__main__":`` guard.  ``run_replicate`` runs
    BLAS on one thread wherever it runs, so a replicate's bytes do not depend
    on where it ran.  A worker that dies breaks the pool: its replicate and
    every one not yet done are marked FAILED.  An interrupt stops the workers
    before it propagates.
    """
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    with ProcessPoolExecutor(min(len(jobs), len(os.sched_getaffinity(0))),
                             mp_context=multiprocessing.get_context("fork")) as pool:
        errors = []
        try:
            futures = [pool.submit(_replicate_job, *job) for job in jobs]
            for (_, _, rep_dir), future in zip(jobs, futures):
                try:
                    errors.append(future.result())
                except BrokenProcessPool as exc:
                    error = f"{type(exc).__name__}: {exc}"
                    _write_failed(rep_dir, "phase=unknown batch=unknown", error + "\n")
                    errors.append(error)
        except BaseException:
            # The executor offers no public way to stop calls that run.
            for process in list(pool._processes.values()):
                process.terminate()
            raise
    return errors


def write_container_snapshots(engine: Engine, path: Path,
                              config: ExperimentConfig, seed: int) -> None:
    """One JSON record per occupied cell, in (container, bin) order.

    Field order per record: container_id, bin, solution_id, fitness, fd,
    genome.  Bins come in the grid's C order, which is sorted bin order.
    The records go to a temporary file that then replaces ``path``, so
    ``path`` exists only once it is whole.
    """
    depot = engine.depot
    part = path.with_name(path.name + ".part")
    with open(part, "w") as fh:
        fh.write(json.dumps(_json_meta(config, seed)) + "\n")
        for container in engine.containers:
            cid = container.container_id
            cells = np.flatnonzero(container.grid >= 0)
            bins = np.unravel_index(cells, container.shape)
            for k, row in enumerate(container.grid.ravel()[cells].tolist()):
                record = {
                    "container_id": cid,
                    "bin": [int(axis[k]) for axis in bins],
                    "solution_id": int(depot.ids[row]),
                    "fitness": float(depot.fitness[row]),
                    "fd": depot.fds[cid][row].tolist(),
                    "genome": depot.genomes[row].tolist(),
                }
                fh.write(json.dumps(record) + "\n")
    os.replace(part, path)


def run_experiment(config: ExperimentConfig, out_dir=None) -> RunResult:
    """All replicates of one experiment plus the cross-replicate aggregate.

    Replicate k runs with seed (config.seed + k) in ``rep_<k>``.  Several
    replicates run in worker processes (``_run_in_workers``); a single one
    runs in-process.  A replicate that raises is recorded in a FAILED file
    and skipped by the aggregate; its partial artifacts are kept.  The
    aggregate is written once every replicate has finished; with no
    successful replicate there is nothing to aggregate, and none is
    written.  Every config error is raised before the run directory is
    created: ``config.validate`` makes the checks that need no task, and
    ``make_task`` and ``check_task_grids`` the ones that do, without
    building an engine.
    """
    config.validate()
    check_task_grids(make_task(config.task.name, config.task.params), config.grids)
    run_dir = resolve_run_dir(config, out_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    (run_dir / "config.yaml").write_text(
        _meta_line("config", config) + "\n" + config.to_yaml())

    jobs = [(config, config.seed + k, run_dir / f"rep_{k:03d}")
            for k in range(config.replicates)]
    errors = _run_in_workers(jobs) if len(jobs) > 1 else [_replicate_job(*jobs[0])]
    result = RunResult(run_dir=run_dir)
    for k, ((_, seed, rep_dir), error) in enumerate(zip(jobs, errors)):
        result.replicates.append(ReplicateResult(seed=seed, directory=rep_dir,
                                                 failed=bool(error), error=error))
        if error:
            log.error("replicate %d (seed %d) failed: %s", k, seed, error)
        else:
            log.info("replicate %d (seed %d) done", k, seed)

    if len(result.failed) < len(result.replicates):
        write_aggregate([run_dir], run_dir / "aggregate.csv")
    return result


# ---------------------------------------------------------------------------
# Aggregation and plot data
# ---------------------------------------------------------------------------

def read_metrics_csv(path: Path) -> dict[int, dict[str, float]]:
    """Parse one metrics.csv into {iteration: {metric: value}} (NaN = missing)."""
    rows = {}
    with open(path) as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    reader = csv.DictReader(io.StringIO("".join(lines)))
    for row in reader:
        it = int(row["iteration"])
        rows[it] = {
            name: float(row[name]) if row[name] != "" else float("nan")
            for name in METRIC_COLUMNS if name != "iteration"
        }
    return rows


def _finished_replicates(run_dirs) -> list[Path]:
    """The finished replicates' directories under ``run_dirs``, in order.
    Logs a warning that names every other ``rep_*`` directory, and raises
    FileNotFoundError when no replicate has finished."""
    finished, skipped = [], []
    for run_dir in run_dirs:
        for rep in sorted(Path(run_dir).glob("rep_*")):
            (finished if replicate_finished(rep) else skipped).append(rep)
    if skipped:
        log.warning("skipping %d unfinished replicate(s), FAILED or without "
                    "containers.jsonl: %s", len(skipped), ", ".join(map(str, skipped)))
    if not finished:
        raise FileNotFoundError(
            f"no finished replicate under {[str(d) for d in run_dirs]}; expected "
            "rep_*/metrics.csv and rep_*/containers.jsonl, without rep_*/FAILED")
    return finished


def write_aggregate(run_dirs, out_path: Path) -> Path:
    """Per-iteration mean/std/min/q25/q75/max of every metric over the
    finished replicates (``replicate_finished``); the others are named in a
    warning and skipped.

    Recomputing this from the per-replicate logs always reproduces the file
    byte for byte.
    """
    return _write_aggregate(_finished_replicates(run_dirs), out_path)


def _write_aggregate(reps: list[Path], out_path: Path) -> Path:
    tables = [read_metrics_csv(rep / "metrics.csv") for rep in reps]
    iterations = sorted({it for table in tables for it in table})
    out_path = Path(out_path)
    with open(out_path, "w", newline="") as fh:
        fh.write(f"# mcqd-aggregate v1 replicates={len(reps)} version={__version__}\n")
        writer = csv.writer(fh)
        writer.writerow(["iteration", "metric", "mean", "std", "min", "q25",
                         "q75", "max"])
        for it in iterations:
            for name in METRIC_COLUMNS:
                if name == "iteration":
                    continue
                values = np.array([t[it][name] for t in tables if it in t])
                values = values[~np.isnan(values)]
                if values.size == 0:
                    row = [it, name, "", "", "", "", "", ""]
                elif values.size == 1:
                    v = repr(float(values[0]))
                    row = [it, name, v, "", v, v, v, v]
                else:
                    row = [it, name,
                           repr(float(values.mean())),
                           repr(float(values.std(ddof=1))),
                           repr(float(values.min())),
                           repr(float(np.quantile(values, 0.25))),
                           repr(float(np.quantile(values, 0.75))),
                           repr(float(values.max()))]
                writer.writerow(row)
    return out_path


def emit_plot_data(run_dir) -> Path:
    """Write plot-ready tables under <run_dir>/plot/.

    ``curves.csv`` repeats the aggregate statistics (one row per iteration
    per metric); ``heatmap_rep<k>_c<i>.csv`` holds one fitness matrix per
    container per finished replicate, with empty cells as nan.  Only 2-D
    grids can be rendered as heatmaps.  Unfinished replicates are named in
    a warning and skipped, as ``write_aggregate`` skips them.
    """
    run_dir = Path(run_dir)
    if not (run_dir / "config.yaml").exists():
        raise FileNotFoundError(f"{run_dir} is not a run directory; missing: config.yaml")
    reps = _finished_replicates([run_dir])

    config = ExperimentConfig.from_file(run_dir / "config.yaml")

    plot_dir = run_dir / "plot"
    plot_dir.mkdir(exist_ok=True)
    _write_aggregate(reps, plot_dir / "curves.csv")

    for rep in reps:
        grids = {cid: np.full(g.shape, np.nan)
                 for cid, g in enumerate(config.grids) if len(g.shape) == 2}
        with open(rep / "containers.jsonl") as fh:
            for line in fh:
                record = json.loads(line)
                if record.get("record") == "meta":
                    continue
                cid = record["container_id"]
                if cid in grids:
                    grids[cid][tuple(record["bin"])] = record["fitness"]
        for cid, matrix in grids.items():
            out = plot_dir / f"heatmap_{rep.name}_c{cid}.csv"
            with open(out, "w", newline="") as fh:
                writer = csv.writer(fh)
                for row in matrix:
                    writer.writerow([_fmt(float(v)) if np.isfinite(v) else ""
                                     for v in row])
    return plot_dir
