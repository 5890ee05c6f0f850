"""Experiment orchestration: seeded replicates, logs, snapshots, aggregates.

Per-replicate artifacts (all deterministic given config + seed, no
timestamps anywhere):

* ``metrics.csv``    one row per batch iteration (row 0 = state right after
                     initialization), columns in ``metrics.METRIC_COLUMNS``
                     order, empty field = metric undefined.
* ``batches.jsonl``  one record per batch: its index, the fields of
                     ``engine.BatchStats`` and ``engine.RetrainReport``
                     (null without a retrain), per-container occupancy.
* ``containers.jsonl`` final container snapshots, one record per occupied
                     cell with fields (container_id, bin, solution_id,
                     fitness, fd, genome) in that order.
* ``checkpoint.npz`` descriptor model(s), input scaling, quantile landmarks.

Each text artifact starts with a metadata line carrying the config hash,
seed, and code version.  ``aggregate.csv`` holds per-iteration cross-
replicate statistics (mean, std, min, q25, q75, max) per metric.
"""
from __future__ import annotations

import csv
import io
import json
import logging
import os
import traceback
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .autoencoder import save_checkpoint
from .config import ExperimentConfig
from .core import ConfigurationError
from .engine import ContainerSpec, Engine
from .metrics import METRIC_COLUMNS, snapshot
from .tasks import make_task

log = logging.getLogger(__name__)

OUTPUT_ROOT_ENV = "MCQD_OUTPUT_ROOT"


def build_engine(config: ExperimentConfig, seed: int) -> Engine:
    """Wire a task and an engine from a validated config."""
    task = make_task(config.task.name, config.task.params)
    return Engine(task, container_specs(config, task), config.search,
                  config.training, seed)


def container_specs(config: ExperimentConfig, task) -> list[ContainerSpec]:
    """One spec per grid, the hardcoded ones taking the task's declared FD
    pairs in order.  Its errors need the task's definition but no
    evaluation, so ``run_experiment`` checks them before writing anything."""
    d = task.definition
    wanted = sum(grid.fd == "hardcoded" for grid in config.grids)
    if wanted > len(d.hardcoded_fds):
        raise ConfigurationError(
            f"task {d.name!r} declares only {len(d.hardcoded_fds)} hardcoded FD "
            f"pairs, the config has {wanted} hardcoded grids")
    pairs = iter(d.hardcoded_fds)
    return [ContainerSpec(shape=grid.shape, fd_type=grid.fd,
                          hardcoded=next(pairs) if grid.fd == "hardcoded" else None)
            for grid in config.grids]


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


def run_replicate(config: ExperimentConfig, seed: int, rep_dir: Path) -> None:
    """Execute one seeded replicate and write its artifacts."""
    rep_dir.mkdir(parents=True, exist_ok=True)
    engine = build_engine(config, seed)
    bounds = engine.task.definition.fitness_bounds

    metrics_path = rep_dir / "metrics.csv"
    batches_path = rep_dir / "batches.jsonl"
    with open(metrics_path, "w", newline="") as mfh, open(batches_path, "w") as bfh:
        mfh.write(_meta_line("metrics", config, seed) + "\n")
        writer = csv.writer(mfh)
        writer.writerow(METRIC_COLUMNS)
        bfh.write(json.dumps(_json_meta(config, seed)) + "\n")

        engine.initialize()
        writer.writerow([_fmt(v) for v in
                         snapshot(0, engine.containers, engine.depot, bounds).as_row()])

        iteration = 0
        while engine.eval_budget_used < engine.eval_budget:
            iteration += 1
            stats = engine.run_batch(config.search.batch_size)
            retrain = engine.maybe_retrain()
            snap = snapshot(iteration, engine.containers, engine.depot, bounds)
            writer.writerow([_fmt(v) for v in snap.as_row()])
            record = {"batch": iteration, **asdict(stats),
                      "retrain": None if retrain is None else asdict(retrain),
                      "occupancy": [c.occupancy for c in engine.containers]}
            bfh.write(json.dumps(record) + "\n")

    write_container_snapshots(engine, rep_dir / "containers.jsonl", config, seed)
    if engine.ensemble is not None:
        save_checkpoint(rep_dir / "checkpoint.npz", engine.ensemble, engine.scaler,
                        engine.quantile_transforms)


def write_container_snapshots(engine: Engine, path: Path,
                              config: ExperimentConfig, seed: int) -> None:
    """One JSON record per occupied cell, in (container, bin) order.

    Field order per record: container_id, bin, solution_id, fitness, fd,
    genome.  Bins come in the grid's C order, which is sorted bin order.
    """
    depot = engine.depot
    with open(path, "w") as fh:
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


def run_experiment(config: ExperimentConfig, out_dir=None) -> RunResult:
    """All replicates of one experiment plus the cross-replicate aggregate.

    Replicate k runs with seed (config.seed + k) in ``rep_<k>``.  A replicate
    that raises is recorded in a FAILED file and skipped by the aggregate;
    its partial artifacts are kept.  With no successful replicate there is
    nothing to aggregate, and no aggregate is written.  Every config error,
    with or without the task, is raised before the run directory is created.
    """
    config.validate()
    container_specs(config, make_task(config.task.name, config.task.params))
    run_dir = resolve_run_dir(config, out_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    (run_dir / "config.yaml").write_text(
        _meta_line("config", config) + "\n" + config.to_yaml())

    result = RunResult(run_dir=run_dir)
    for k in range(config.replicates):
        seed = config.seed + k
        rep_dir = run_dir / f"rep_{k:03d}"
        outcome = ReplicateResult(seed=seed, directory=rep_dir)
        try:
            run_replicate(config, seed, rep_dir)
            log.info("replicate %d (seed %d) done", k, seed)
        except Exception as exc:  # noqa: BLE001 - replicate isolation
            outcome.failed = True
            outcome.error = f"{type(exc).__name__}: {exc}"
            rep_dir.mkdir(parents=True, exist_ok=True)
            (rep_dir / "FAILED").write_text(traceback.format_exc())
            log.error("replicate %d (seed %d) failed: %s", k, seed, outcome.error)
        result.replicates.append(outcome)

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


def _replicate_metric_files(run_dirs) -> list[Path]:
    files = []
    for run_dir in run_dirs:
        run_dir = Path(run_dir)
        for rep in sorted(run_dir.glob("rep_*")):
            if (rep / "FAILED").exists():
                continue
            path = rep / "metrics.csv"
            if path.exists():
                files.append(path)
    return files


def write_aggregate(run_dirs, out_path: Path) -> Path:
    """Per-iteration mean/std/min/q25/q75/max of every metric over replicates.

    Recomputing this from the per-replicate logs always reproduces the file
    byte for byte.
    """
    files = _replicate_metric_files(run_dirs)
    if not files:
        raise FileNotFoundError(
            f"no replicate metrics found under {[str(d) for d in run_dirs]}; "
            "expected rep_*/metrics.csv")
    tables = [read_metrics_csv(f) for f in files]
    iterations = sorted({it for table in tables for it in table})
    out_path = Path(out_path)
    with open(out_path, "w", newline="") as fh:
        fh.write(f"# mcqd-aggregate v1 replicates={len(files)} version={__version__}\n")
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
    container per replicate, with empty cells as nan.  Only 2-D grids can be
    rendered as heatmaps.
    """
    run_dir = Path(run_dir)
    missing = []
    if not (run_dir / "config.yaml").exists():
        missing.append("config.yaml")
    if not list(run_dir.glob("rep_*/metrics.csv")):
        missing.append("rep_*/metrics.csv")
    if missing:
        raise FileNotFoundError(
            f"{run_dir} is not a run directory; missing: {', '.join(missing)}")

    config_text = (run_dir / "config.yaml").read_text()
    body = "\n".join(ln for ln in config_text.splitlines() if not ln.startswith("#"))
    config = ExperimentConfig.from_yaml(body)

    plot_dir = run_dir / "plot"
    plot_dir.mkdir(exist_ok=True)
    write_aggregate([run_dir], plot_dir / "curves.csv")

    for rep in sorted(run_dir.glob("rep_*")):
        snap_path = rep / "containers.jsonl"
        if (rep / "FAILED").exists() or not snap_path.exists():
            continue
        grids = {cid: np.full(g.shape, np.nan)
                 for cid, g in enumerate(config.grids) if len(g.shape) == 2}
        with open(snap_path) as fh:
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
