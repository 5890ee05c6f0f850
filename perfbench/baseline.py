"""Run every workload over several seeds and write a BENCH_<n>.json summary.

Run from the repository root:

    python3 perfbench/baseline.py --runs 10 --out perfbench/BENCH_1.json

Each run is a fresh ``perfbench/run.py`` process with its own seed, one at
a time, for ``run_seconds`` from BENCHMARK.json.  For every end-to-end
metric the summary holds the per-run values, their median and quartiles
(``statistics.quantiles(values, n=4)``) and the spread (q3 - q1) / median
next to the metric's bound.  One traced run per workload adds the
per-layer values.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
RUN = Path(__file__).resolve().parent / "run.py"


def _run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """(final JSON line, env record) of one benchmark process."""
    out = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900, check=True)
    lines = out.stdout.strip().splitlines()
    env = next(json.loads(ln[4:]) for ln in lines if ln.startswith("env "))
    digest = next(ln.split()[-1] for ln in lines if ln.startswith("digest "))
    repeats = next(ln.split()[1:3] for ln in lines if ln.startswith("repeats "))
    result = json.loads(lines[-1])
    result["digest"] = digest
    result["repeats"] = sum(int(field.split("=")[1]) for field in repeats)
    return result, env


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    names = [w["name"] for w in bench["workloads"]]
    seeds = list(range(1, args.runs + 1))

    command = " ".join(["python3", "perfbench/baseline.py", *(argv or sys.argv[1:])])
    summary = {"command": command, "run_seconds": seconds, "workloads": {}}
    for name in names:
        runs = []
        for seed in seeds:
            result, env = _run(name, seed, seconds, 0)
            runs.append(result)
            print(f"{name} seed={seed} correct={result['correct']} " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
        summary.setdefault("machine", dict(env, cpu=_cpu_model()))
        entry = {"runs": len(runs), "seeds": seeds,
                 "attempted": sum(r["attempted"] for r in runs),
                 "failed": sum(r["failed"] for r in runs),
                 "correct": all(r["correct"] for r in runs),
                 "digests": {str(s): r["digest"] for s, r in zip(seeds, runs)},
                 "repeats_per_run": [r["repeats"] for r in runs],
                 "end_to_end": {}}
        for metric in runs[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            entry["end_to_end"][metric] = {
                "unit": runs[0]["metrics"][metric]["unit"], "median": median,
                "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
                "bound": bounds.get(metric), "values": values}
            print(f"  {metric}: median {median:.6g} spread {(q3 - q1) / median:.4f} "
                  f"bound {bounds.get(metric)}", flush=True)
        traced, _ = _run(name, seeds[0], seconds, 1)
        entry["per_layer"] = {"seed": seeds[0], "metrics": traced["metrics"]}
        summary["workloads"][name] = entry

    args.out.write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
