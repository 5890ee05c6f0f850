"""Output checks, artifact digest and quality figures for one benchmark run.

A run directory is what ``mcqd.runner.run_experiment`` leaves behind:
``config.yaml``, ``aggregate.csv`` and one ``rep_<k>/`` per replicate.
"""
from __future__ import annotations

import csv
import hashlib
import json
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np

# The artifacts covered by the determinism contract.  Anything else a run
# writes (a wall-clock sidecar, say) stays out of the digest.
RUN_ARTIFACTS = ("config.yaml", "aggregate.csv")
REPLICATE_ARTIFACTS = ("metrics.csv", "batches.jsonl", "containers.jsonl",
                       "checkpoint.npz")


def _npz_arrays(path: Path) -> dict[str, tuple[str, tuple, bytes]]:
    """Array name -> (dtype, shape, bytes).  The zip container of an .npz
    stamps its write time, so files are compared by their arrays."""
    with np.load(path, allow_pickle=False) as data:
        return {name: (data[name].dtype.str, data[name].shape, data[name].tobytes())
                for name in data.files}


def _data_lines(path: Path) -> list[str]:
    with open(path) as fh:
        return [ln for ln in fh if not ln.startswith("#")]


def _records(path: Path) -> list[dict]:
    records = [json.loads(ln) for ln in _data_lines(path)]
    return [r for r in records if r.get("record") != "meta"]


def check_replicate(rep_dir: Path, learned: bool) -> list[str]:
    """Problems found in one replicate's artifacts; empty when it passes."""
    failed = rep_dir / "FAILED"
    if failed.exists():
        lines = failed.read_text().strip().splitlines()
        return [f"{rep_dir.name}: FAILED ({lines[-1] if lines else 'no message'})"]
    problems = []
    batches = _records(rep_dir / "batches.jsonl")
    metric_rows = len(_data_lines(rep_dir / "metrics.csv")) - 1  # minus header
    if metric_rows != len(batches) + 1:
        problems.append(f"{rep_dir.name}: {metric_rows} metrics.csv rows for "
                        f"{len(batches)} batches")

    cells = _records(rep_dir / "containers.jsonl")
    stored = Counter(r["container_id"] for r in cells)
    expected = batches[-1]["occupancy"] if batches else []
    found = [stored.get(cid, 0) for cid in range(len(expected))]
    if found != expected or sum(stored.values()) != sum(expected):
        problems.append(f"{rep_dir.name}: containers.jsonl occupancy {found} "
                        f"!= last batch occupancy {expected}")

    checkpoint = rep_dir / "checkpoint.npz"
    if learned and not checkpoint.exists():
        problems.append(f"{rep_dir.name}: no checkpoint.npz for a learned run")
    elif checkpoint.exists() and not _round_trips(checkpoint):
        problems.append(f"{rep_dir.name}: checkpoint.npz does not round-trip")
    return problems


def _round_trips(path: Path) -> bool:
    """Load the checkpoint and save it again; both must hold the same arrays."""
    from mcqd.autoencoder import load_checkpoint, save_checkpoint

    ensemble, scaler, transforms = load_checkpoint(path)
    with tempfile.TemporaryDirectory(dir=path.parent) as tmp:
        again = Path(tmp) / "again.npz"
        save_checkpoint(again, ensemble, scaler, transforms)
        return _npz_arrays(again) == _npz_arrays(path)


def digest(run_dir: Path) -> str:
    """SHA-256 over the deterministic artifacts of a run, in a fixed order."""
    h = hashlib.sha256()
    paths = [run_dir / name for name in RUN_ARTIFACTS]
    for rep in sorted(run_dir.glob("rep_*")):
        paths.extend(rep / name for name in REPLICATE_ARTIFACTS)
    for path in paths:
        if not path.exists():
            continue
        h.update(path.relative_to(run_dir).as_posix().encode() + b"\0")
        if path.suffix == ".npz":
            for name, (dtype, shape, data) in sorted(_npz_arrays(path).items()):
                h.update(f"{name}:{dtype}:{shape}".encode() + b"\0" + data)
        else:
            h.update(path.read_bytes())
    return h.hexdigest()


def final_quality(run_dir: Path) -> tuple[float, float]:
    """(qd_score, coverage_pct) of the last metrics.csv row, averaged over
    the replicates that finished."""
    qd, cov = [], []
    for rep in sorted(run_dir.glob("rep_*")):
        if (rep / "FAILED").exists():
            continue
        rows = list(csv.DictReader(_data_lines(rep / "metrics.csv")))
        qd.append(float(rows[-1]["qd_score"]))
        cov.append(float(rows[-1]["coverage_pct"]))
    if not qd:
        return float("nan"), float("nan")
    return sum(qd) / len(qd), sum(cov) / len(cov)


def artifact_bytes(run_dir: Path) -> int:
    return sum(p.stat().st_size for p in run_dir.rglob("*") if p.is_file())
