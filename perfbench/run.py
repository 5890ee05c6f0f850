"""mcqd benchmark: run one workload for a fixed time and print its metrics.

Run from the repository root:

    python3 perfbench/run.py --workload walker-hc4-shared --seed 1 \
        --seconds 60 --trace 0

The run repeats ``mcqd.runner.run_experiment`` on the workload's config
until the time is up, checking every repeat's artifacts.  Between the
repeats, from the second one on, it times ``SETUP_PROBES`` fresh-process
set-ups (import mcqd, load and validate the config file, build the
engine), spread evenly over the run's time.  With ``--trace 0`` it
reports the end-to-end metrics; with ``--trace 1`` it also runs the
micro-probes and times half of the repeats with every probe of
``tracer.PROBES`` installed, and reports the per-layer metrics.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

BLAS runs with the program's default thread count, which the ``env`` line
records.
"""
from __future__ import annotations

import argparse
import ctypes
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

ROOT = Path.cwd()
BENCH = Path(__file__).resolve().parent
WORK_ROOT = ROOT / ".perfbench"
SETUP_PROBES = 16
MAX_REPEATS = 25

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "evals_per_s": "1/s",
    "peak_rss_mb": "MB",
    "final_qd_score": "score",
    "final_coverage_pct": "%",
}
# Per-layer metrics measured here rather than read from the trace.
RUN_LAYER_UNITS = {
    "import_s": "s",
    "config.load_s": "s",
    "config.build_engine_s": "s",
    "runner.artifact_bytes": "bytes",
    "trace.run_s": "s",
    "trace.unattributed_s": "s",
    "trace.overhead_pct": "%",
}


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


# ---------------------------------------------------------------------------
# Environment record
# ---------------------------------------------------------------------------

def _blas_threads(numpy) -> int | None:
    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                return int(getter())
    return None


def _git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment() -> dict:
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": _blas_threads(numpy),
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_commit": _git_commit(),
        "src.lines": sum(len(p.read_text().splitlines())
                         for p in sorted((ROOT / "src" / "mcqd").rglob("*.py"))),
    }


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------

def _setup_probe(config_path: Path) -> dict:
    start = time.monotonic()
    out = subprocess.run([sys.executable, str(BENCH / "setup_probe.py"), str(config_path)],
                         cwd=ROOT, capture_output=True, text=True, timeout=120,
                         check=True)
    record = json.loads(out.stdout.strip().splitlines()[-1])
    record["setup_s"] = record.pop("ready") - start
    return record


def _repeat_until(deadline: float, fn, at_least: int) -> list[dict]:
    """Call fn(i) at least ``at_least`` times, and again while a call as
    long as the last one would still end before the deadline."""
    records: list[dict] = []
    last_s = 0.0
    while len(records) < MAX_REPEATS:
        if len(records) >= at_least and time.monotonic() + last_s > deadline:
            break
        start = time.monotonic()
        records.append(fn(len(records)))
        last_s = time.monotonic() - start
    return records


class Session:
    """One workload and seed: its config, output area and repeat records."""

    def __init__(self, work: Path):
        import checks
        from mcqd import runner
        from mcqd.config import ExperimentConfig

        self.checks = checks
        self.runner = runner
        self.work = work
        self.config = ExperimentConfig.from_file(work / "config.yaml")
        self.learned = any(g.fd != "hardcoded" for g in self.config.grids)

    def repeat(self, index: int, tracer=None, probes=None) -> dict:
        """One run_experiment on a fresh directory, timed, checked, removed."""
        out_dir = self.work / f"repeat_{index:03d}"
        if tracer is not None:
            tracer.reset()
        gc.collect()  # the previous repeat's garbage is not this repeat's cost
        error = None
        start = time.perf_counter()
        try:
            # Looked up at call time, so an installed probe wraps it.
            self.runner.run_experiment(self.config, out_dir)
        except Exception as exc:  # noqa: BLE001 - a failed run is counted, not fatal
            error = f"run_experiment raised {type(exc).__name__}: {exc}"
        run_s = time.perf_counter() - start
        record = {"run_s": run_s}
        if tracer is not None:
            from tracer import read_layer_metrics

            layers, missing = read_layer_metrics(tracer, probes)
            layers["trace.run_s"] = run_s
            layers["trace.unattributed_s"] = run_s - sum(tracer.layer_self.values())
            record.update(layers=layers, missing=missing, spans=dict(tracer.spans))

        replicates = self.config.replicates
        problems = [error] if error else []
        failed = replicates if error else 0
        reps = sorted(out_dir.glob("rep_*"))
        if not error:
            if len(reps) != replicates:
                problems.append(f"{len(reps)} replicate directories, expected {replicates}")
                failed += replicates - len(reps)
            for rep in reps:
                found = self.checks.check_replicate(rep, self.learned)
                problems.extend(found)
                failed += bool(found)
        record.update(
            attempted=replicates, failed=min(failed, replicates), problems=problems,
            digest=self.checks.digest(out_dir) if out_dir.exists() else "none",
            quality=self.checks.final_quality(out_dir) if reps else (float("nan"),) * 2,
            artifact_bytes=self.checks.artifact_bytes(out_dir) if out_dir.exists() else 0)
        shutil.rmtree(out_dir, ignore_errors=True)
        # The children count too, so replicates run in worker processes
        # still show their memory.
        record["peak_rss_mb"] = max(
            resource.getrusage(who).ru_maxrss
            for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024.0
        return record


def measure(args, work: Path) -> tuple[dict, list[dict], list[dict], list[dict]]:
    """(micro-probe values, set-up records, untraced repeats, traced repeats)."""
    start = time.monotonic()
    deadline = start + args.seconds
    session = Session(work)
    setups: list[dict] = []

    def take_setups(share: float) -> None:
        """Take set-up probes until ``share`` of SETUP_PROBES are done."""
        while len(setups) < min(SETUP_PROBES, math.ceil(share * SETUP_PROBES)):
            setups.append(_setup_probe(work / "config.yaml"))

    def untraced_repeat(i: int) -> dict:
        record = session.repeat(i)
        # Set-up probes start after repeat 1, whose record holds the
        # peak_rss_mb reading: its children's peak then covers only
        # processes the program started.  From then on they keep pace
        # with the clock, so that they sample the box's speed all through
        # the run rather than in one burst.
        if i >= 1:
            take_setups((time.monotonic() - start) / (deadline - start))
        return record

    if not args.trace:
        # Two repeats at least, so the determinism check compares something.
        untraced = _repeat_until(deadline, untraced_repeat, 2)
        take_setups(1.0)
        return {}, setups, untraced, []

    import micro
    from tracer import Probes, Tracer

    micro_values = {}
    probes_to_run = [micro.task_ms_per_eval]
    if session.learned:
        probes_to_run.append(micro.train_ms_per_epoch_module)
    for probe in probes_to_run:
        try:
            micro_values.update(probe(session.config, args.seed))
        except Exception as exc:  # noqa: BLE001 - a stale micro-probe is reported missing
            print(f"micro-probe {probe.__name__} failed: {type(exc).__name__}: {exc}")
    if not session.learned:
        micro_values.update({f"autoencoder.train.ms_per_epoch_module.m{m}": 0.0
                             for m in micro.TRAIN_MODULES})

    midpoint = time.monotonic() + (deadline - time.monotonic()) / 2
    untraced = _repeat_until(midpoint, untraced_repeat, 1)
    take_setups(1.0)
    tracer = Tracer()
    with Probes(tracer) as probes:
        for target in probes.missing:
            print(f"missing probe {target}")
        traced = _repeat_until(
            deadline, lambda i: session.repeat(len(untraced) + i, tracer, probes), 1)
    return micro_values, setups, untraced, traced


# ---------------------------------------------------------------------------
# Report
# ---------------------------------------------------------------------------

def _metric_line(name, values, unit) -> str:
    q1, q3 = _quartiles(values)
    return (f"metric {name} = {statistics.median(values):.6g} {unit} "
            f"(median of {len(values)}; q1 {q1:.6g}, q3 {q3:.6g}; "
            f"values {' '.join(f'{v:.6g}' for v in values)})")


def report(args, env, micro_values, setups, untraced, traced) -> dict:
    import micro
    from tracer import LAYER_METRICS

    builder, _ = WORKLOADS[args.workload]
    spec = builder(args.seed)
    replicates = spec["replicates"]
    evals = (spec["search"]["initialization_budget"]
             + spec["search"]["evaluation_budget"]) * replicates
    repeats = untraced + traced

    digest = repeats[0]["digest"]
    for rec in repeats:
        if rec["digest"] != digest:
            rec["problems"].append(f"artifact digest {rec['digest']} differs "
                                   f"from repeat 0")
            rec["failed"] = rec["attempted"]
    attempted = sum(r["attempted"] for r in repeats)
    failed = sum(r["failed"] for r in repeats)

    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    print(f"digest {args.workload} seed={args.seed} {digest}")
    print(f"repeats untraced={len(untraced)} traced={len(traced)} setups={len(setups)}")
    for i, rec in enumerate(repeats):
        for problem in rec["problems"]:
            print(f"FAIL repeat {i}: {problem}")
    print(f"metric failed_frac = {failed / attempted:.6g} ratio "
          f"({failed} failed of {attempted} replicate runs)")

    run_s = [r["run_s"] for r in untraced]
    series = {
        "setup_s": [s["setup_s"] for s in setups],
        "run_s": run_s,
        "evals_per_s": [evals / s for s in run_s],
        # After the first two repeats: a fixed amount of work, so a faster
        # program that fits in more repeats is not charged for them.
        "peak_rss_mb": [untraced[min(1, len(untraced) - 1)]["peak_rss_mb"]],
        "final_qd_score": [r["quality"][0] for r in untraced],
        "final_coverage_pct": [r["quality"][1] for r in untraced],
    }
    metrics = {}
    if not args.trace:
        for name, unit in END_TO_END_UNITS.items():
            print(_metric_line(name, series[name], unit))
            metrics[name] = {"value": statistics.median(series[name]), "unit": unit}
        return {"correct": failed == 0, "attempted": attempted, "failed": failed,
                "metrics": metrics}

    layer_series = {name: [r["layers"][name] for r in traced]
                    for name in [*LAYER_METRICS, "trace.run_s", "trace.unattributed_s"]}
    for name in ("import_s", "config.load_s", "config.build_engine_s"):
        layer_series[name] = [s[name] for s in setups]
    layer_series["runner.artifact_bytes"] = [r["artifact_bytes"] for r in traced]
    traced_s = statistics.median(layer_series["trace.run_s"])
    layer_series["trace.overhead_pct"] = [100.0 * (traced_s / statistics.median(run_s) - 1.0)]
    units = {name: unit for name, (unit, _) in LAYER_METRICS.items()}
    units.update(RUN_LAYER_UNITS)
    expected_micro = [f"tasks.ms_per_eval.b{b}" for b in micro.TASK_BATCHES] + [
        f"autoencoder.train.ms_per_epoch_module.m{m}" for m in micro.TRAIN_MODULES]
    missing = set().union(*(r["missing"] for r in traced))
    for name in expected_micro:
        units[name] = "ms"
        if name in micro_values:
            layer_series[name] = [micro_values[name]]
        else:
            layer_series[name] = [0.0]
            missing.add(name)

    spans = {}
    for rec in traced:
        for name, s in rec["spans"].items():
            spans.setdefault(name, []).append(s)
    for name in sorted(spans):
        runs = spans[name]
        print(f"span {name} layer={runs[0].layer} calls={runs[0].calls} "
              f"entries={runs[0].entries} "
              f"total_s={statistics.median([s.total_s for s in runs]):.6g} "
              f"self_s={statistics.median([s.self_s for s in runs]):.6g}")
    for name in sorted(missing):
        print(f"missing metric {name}")
    for name in sorted(layer_series):
        print(_metric_line(name, layer_series[name], units[name]))
        metrics[name] = {"value": statistics.median(layer_series[name]), "unit": units[name]}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "mcqd" / "__init__.py").is_file():
        print(f"perfbench: {ROOT} holds no src/mcqd; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    builder, _ = WORKLOADS[args.workload]
    work = WORK_ROOT / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    work.mkdir(parents=True)
    try:
        # JSON is YAML, so the program loads this with its own config parser.
        (work / "config.yaml").write_text(json.dumps(builder(args.seed), indent=1) + "\n")
        measured = measure(args, work)
        env = environment()
        result = report(args, env, *measured)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
