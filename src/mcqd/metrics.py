"""Evaluation metrics over container/depot snapshots.

All functions are pure reads of the search state: the containers' grids of
depot rows and the depot's arrays.  ``snapshot`` computes the per-batch
record of the metric log.  Coverage and QD-score come in a base
flavour (a solution stored in several containers counts once per container)
and a unique flavour (distinct depot rows count once);
redundancy measures the capacity eaten by duplicates.  The FD absolute
correlation quantifies how similar the containers' descriptor spaces are,
and the KL-coverage compares the binned descriptor distributions of two
solution sets in a common descriptor space.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass, fields

import numpy as np

log = logging.getLogger(__name__)


@dataclass
class MetricSnapshot:
    """One row of the metric log; its fields, in order, are the columns
    (documented in the README)."""

    iteration: int
    coverage_pct: float
    unique_coverage_pct: float
    qd_score: float
    unique_qd_score: float
    best_fitness: float | None
    fd_abs_corr: float | None
    redundancy: float
    depot_size: int

    def as_row(self) -> list:
        return [getattr(self, name) for name in METRIC_COLUMNS]


METRIC_COLUMNS = tuple(f.name for f in fields(MetricSnapshot))

# kl_coverage's histograms: bins per FD dimension over [0, 1], and the
# count added to every bin before normalization
_KL_BINS = 10
_KL_SMOOTHING = 1e-9


def _sum_in_order(values) -> float:
    """Left-to-right sum starting from 0.0, the order of a Python loop;
    ``np.sum`` adds pairwise, which moves the last bit."""
    total = 0.0
    for v in values.tolist():
        total += v
    return total


def snapshot(iteration: int, containers, depot, fitness_bounds) -> MetricSnapshot:
    """All per-iteration metrics in one record, from one read of the elites:
    every stored entry, container by container, each in first-fill order.
    The unique flavours take each distinct depot row once, in order of first
    appearance; sums run left to right from 0.0."""
    lo, hi = fitness_bounds
    if not hi > lo:
        raise ValueError("fitness bounds must satisfy hi > lo")
    capacity = sum(c.capacity for c in containers)
    rows = np.concatenate([c.rows() for c in containers])
    _, first = np.unique(rows, return_index=True)
    fitness = depot.fitness[rows]
    normalized = np.minimum(np.maximum((fitness - lo) / (hi - lo), 0.0), 1.0)
    return MetricSnapshot(
        iteration=iteration,
        coverage_pct=100.0 * len(rows) / capacity,
        unique_coverage_pct=100.0 * len(first) / capacity,
        qd_score=_sum_in_order(normalized),
        unique_qd_score=_sum_in_order(normalized[np.sort(first)]),
        best_fitness=float(fitness.max()) if len(rows) else None,
        fd_abs_corr=fd_abs_correlation(containers, depot),
        redundancy=(len(rows) - len(first)) / capacity,
        depot_size=len(depot),
    )


def fd_abs_correlation(containers, depot) -> float | None:
    """Mean |Pearson r| between all containers' FD dimensions.

    Rows are the depot solutions, each container's columns its cached FD
    matrix under its current extractor, so all columns share one basis.
    Zero-variance columns are excluded with a warning; with fewer than two
    rows or columns the metric is undefined and None is returned.
    """
    if len(depot) < 2:
        return None
    fd = np.hstack([depot.fds[c.container_id] for c in containers])
    if fd.shape[1] < 2:
        return None
    variances = fd.var(axis=0)
    keep = variances > 1e-24  # constant up to float64 round-off
    if not np.all(keep):
        log.warning("fd_abs_correlation: excluding %d zero-variance FD column(s)",
                    int(np.sum(~keep)))
    fd = fd[:, keep]
    if fd.shape[1] < 2:
        return None
    corr = np.corrcoef(fd, rowvar=False)
    off = ~np.eye(corr.shape[0], dtype=bool)
    return float(np.mean(np.abs(corr[off])))


def kl_coverage(reference_observations, compared_observations, extractors) -> float:
    """Summed KL divergence between two solution sets' binned FD distributions.

    Each set is given by its (n, channels, timepoints) observations.  Per
    extractor (one per container, as ``Engine.extractors``), both sets' FDs
    are computed with it and each FD dimension is histogrammed over [0, 1]
    in 10 bins; histograms get 1e-9 added to every bin before normalization,
    and D_KL(reference || compared) is summed over the extractors and their
    dimensions.  Keep the asymmetry in mind: KLC(A, B) != KLC(B, A) in
    general.
    """
    if not len(reference_observations) or not len(compared_observations):
        raise ValueError("both solution sets must be non-empty")
    edges = np.linspace(0.0, 1.0, _KL_BINS + 1)
    total = 0.0
    for extractor in extractors:
        ref_fd = extractor.extract_many(reference_observations)
        cmp_fd = extractor.extract_many(compared_observations)
        for k in range(ref_fd.shape[1]):
            he, _ = np.histogram(ref_fd[:, k], bins=edges)
            ha, _ = np.histogram(cmp_fd[:, k], bins=edges)
            total += _kl(he, ha)
    return total


def _kl(ref_counts, cmp_counts) -> float:
    p = np.asarray(ref_counts, dtype=float) + _KL_SMOOTHING
    q = np.asarray(cmp_counts, dtype=float) + _KL_SMOOTHING
    p /= p.sum()
    q /= q.sum()
    return float(np.sum(p * np.log(p / q)))

