"""The benchmark's workloads: plain experiment configs built from a seed.

Each workload is a desk-scale slice of the case matrix, written as the dict
form of an mcqd YAML config so the program only ever sees a config file.
Budgets are sized so that a workload's retrain count does not depend on
the seed and a 60-second benchmark run on a 2-core box holds several
repeats of it, with their set-up probes: one repeat takes about 5 seconds
on `walker-hc4-shared` and 11 to 14 on `walker-qt9-ns-online`.  The seed
moves the final quality figures: over seeds 1..10 their quartile spread
is a fiftieth of the median on `walker-hc4-shared` and about a sixth on
`walker-qt9-ns-online`.

The Rastrigin toy (four learned grids, batch 10, a retrain every 25 depot
additions) is not a workload.  Its retrain count and depot size follow the
seed, so its run time moved by about a sixth from seed to seed even with
the box's speed factored out, and a third workload would have cut every
run to about 40 seconds within the benchmark's time limit.
"""
from __future__ import annotations

WALKER_PARAMS = {"episode_steps": 150, "obs_window": 15, "episodes_per_eval": 5}
DESK_TRAINING = {"period": 500, "epochs": 50, "learning_rate": 0.01,
                 "batch_size": 1024, "validation_split": 0.25, "latent_dim": 2,
                 "hidden": [16, 5], "dropout": 0.2, "quantiles": 1000}


def _grids(fd: str, count: int) -> list[dict]:
    return [{"shape": [10, 10], "fd": fd, "count": count}]


def walker_hc4_shared(seed: int) -> dict:
    """Desk `hardcoded-4`: walker evaluation, hardcoded extraction (four
    container writes per child) and the depot-wide FD correlation do the
    work; no descriptor model exists, so `autoencoder` and `postprocess`
    stay idle."""
    return {
        "case": "walker-hc4-shared", "seed": seed, "replicates": 1,
        "containers": {"bin_budget": 400, "grids": _grids("hardcoded", 4)},
        "task": {"name": "surrogate_walker", "params": dict(WALKER_PARAMS)},
        "search": {"sharing": "shared", "initialization_budget": 500,
                   "evaluation_budget": 2000, "batch_size": 100},
        "training": {**DESK_TRAINING, "strategy": "none"},
    }


def walker_qt9_ns_online(seed: int) -> dict:
    """Desk `qt-reco-9-ns`: nine quantile-transformed learned grids, one
    container write per child, online retraining.  A 300-addition period
    fires exactly one periodic retrain and reindex per replicate for every
    seed (the depot gains about 300 solutions by the middle of the search
    and far fewer than 600 by its end).  Two replicates halve the seed
    spread of the final quality figures."""
    return {
        "case": "walker-qt9-ns-online", "seed": seed, "replicates": 2,
        "containers": {"bin_budget": 900, "grids": _grids("ae_qt", 9)},
        "task": {"name": "surrogate_walker", "params": dict(WALKER_PARAMS)},
        "search": {"sharing": "non_shared", "initialization_budget": 500,
                   "evaluation_budget": 1200, "batch_size": 100},
        "training": {**DESK_TRAINING, "strategy": "online", "period": 300},
    }


# name -> (config builder, why the workload exists)
WORKLOADS = {
    "walker-hc4-shared": (
        walker_hc4_shared,
        "hardcoded grids, no training: evaluation, per-child extraction and "
        "the depot-wide FD correlation; autoencoder and postprocess idle"),
    "walker-qt9-ns-online": (
        walker_qt9_ns_online,
        "nine learned grids with one periodic retrain: ensemble training, "
        "quantile fit and reindex"),
}
