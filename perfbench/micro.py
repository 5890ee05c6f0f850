"""Micro-probes: single layers timed on fixed, seeded inputs.

``tasks.ms_per_eval.b<n>`` times the workload's task at batch 1, 100 and
1000; ``autoencoder.train.ms_per_epoch_module.m<k>`` trains a k-module
ensemble with the workload's topology on a fixed 2000-row corpus, after
one untimed warm-up epoch.
"""
from __future__ import annotations

import statistics
import time

import numpy as np

# batch size -> timed calls (the median call is reported)
TASK_BATCHES = {1: 20, 100: 3, 1000: 1}
TRAIN_ROWS = 2000
# modules -> epochs trained
TRAIN_MODULES = {1: 5, 9: 2}


def task_ms_per_eval(config, seed: int) -> dict[str, float]:
    from mcqd.tasks import make_task

    task = make_task(config.task.name, config.task.params)
    d = task.definition
    lo, hi = d.genome_bounds
    n = max(b * c for b, c in TASK_BATCHES.items())
    genomes = np.random.default_rng(seed).uniform(lo, hi, (n, d.genome_dim))
    seeds = [np.random.SeedSequence(seed, spawn_key=(i,)) for i in range(n)]
    out = {}
    for batch, calls in TASK_BATCHES.items():
        times = []
        for c in range(calls):
            part = slice(c * batch, (c + 1) * batch)
            start = time.perf_counter()
            task.evaluate_many(list(genomes[part]), seeds[part])
            times.append(time.perf_counter() - start)
        out[f"tasks.ms_per_eval.b{batch}"] = 1000.0 * statistics.median(times) / batch
    return out


def train_ms_per_epoch_module(config, seed: int) -> dict[str, float]:
    from mcqd.autoencoder import ModularAutoEncoderEnsemble, TrainingConfig, train_ensemble
    from mcqd.tasks import make_task

    d = make_task(config.task.name, config.task.params).definition
    t = config.training
    input_dim = d.n_obs_channels * d.n_timepoints
    rng = np.random.default_rng(seed)
    corpus = rng.random((TRAIN_ROWS, input_dim))

    def train(modules: int, epochs: int) -> float:
        ensemble = ModularAutoEncoderEnsemble.build(
            input_dim=input_dim, latent_dim=t.latent_dim, n_modules=modules,
            hidden=t.hidden, dropout=t.dropout, rng=rng)
        cfg = TrainingConfig(epochs=epochs, learning_rate=t.learning_rate,
                             batch_size=t.batch_size,
                             validation_split=t.validation_split)
        start = time.perf_counter()
        report = train_ensemble(ensemble, corpus, cfg, rng)
        return 1000.0 * (time.perf_counter() - start) / (report.epochs_run * modules)

    # The first multi-threaded BLAS call of a process pays a one-time
    # start-up cost (about 0.7 s on a 2-core box); keep it out of the
    # per-epoch figures.
    train(1, 1)
    return {f"autoencoder.train.ms_per_epoch_module.m{modules}": train(modules, epochs)
            for modules, epochs in TRAIN_MODULES.items()}
