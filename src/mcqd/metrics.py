"""Evaluation metrics over container/depot snapshots.

All functions are pure reads of the search state: the containers' grids of
depot rows and the depot's arrays.  Coverage and QD-score come in a base
flavour (a solution stored in several containers counts once per container)
and a unique flavour (distinct depot rows count once);
redundancy measures the capacity eaten by duplicates.  The FD absolute
correlation quantifies how similar the containers' descriptor spaces are,
and the KL-coverage compares the binned descriptor distributions of two
solution sets in a common descriptor space.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

log = logging.getLogger(__name__)

# Fixed column order of the metric log (documented in the README).
METRIC_COLUMNS = (
    "iteration", "coverage_pct", "unique_coverage_pct", "qd_score",
    "unique_qd_score", "best_fitness", "fd_abs_corr", "redundancy",
    "depot_size",
)


@dataclass
class MetricSnapshot:
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


def _total_capacity(containers) -> int:
    return sum(c.capacity for c in containers)


def _elite_rows(containers) -> np.ndarray:
    """Depot rows of every stored entry, container by container, each in
    first-fill order (a row stored in k containers appears k times)."""
    return np.concatenate([c.rows() for c in containers])


def _normalized_fitness(fitness, bounds) -> np.ndarray:
    lo, hi = bounds
    return np.minimum(np.maximum((fitness - lo) / (hi - lo), 0.0), 1.0)


def _sum_in_order(values) -> float:
    """Left-to-right sum starting from 0.0, the order of a Python loop;
    ``np.sum`` adds pairwise, which moves the last bit."""
    total = 0.0
    for v in values.tolist():
        total += v
    return total


def coverage(containers) -> float:
    """Percentage of occupied cells over the summed container capacity."""
    return 100.0 * sum(c.occupancy for c in containers) / _total_capacity(containers)


def qd_score(containers, depot, fitness_bounds) -> float:
    """Sum of [0, 1]-normalized fitness over every stored entry."""
    lo, hi = fitness_bounds
    if not hi > lo:
        raise ValueError("fitness bounds must satisfy hi > lo")
    rows = _elite_rows(containers)
    return _sum_in_order(_normalized_fitness(depot.fitness[rows], fitness_bounds))


def unique_variants(containers, depot, fitness_bounds) -> tuple[float, float]:
    """(unique QD-score, unique coverage %): duplicates across containers
    count once; the coverage denominator stays the total capacity."""
    rows = _elite_rows(containers)
    _, first = np.unique(rows, return_index=True)
    unique = rows[np.sort(first)]  # in order of first appearance
    uq = _sum_in_order(_normalized_fitness(depot.fitness[unique], fitness_bounds))
    return uq, 100.0 * len(unique) / _total_capacity(containers)


def redundancy(containers) -> float:
    """Fraction of total capacity holding duplicate copies: R / S with
    R = stored entries minus distinct depot rows and S the summed capacity."""
    rows = _elite_rows(containers)
    return (len(rows) - len(np.unique(rows))) / _total_capacity(containers)


def best_fitness(containers, depot) -> float | None:
    """Maximum fitness over all stored solutions, None when all empty."""
    rows = _elite_rows(containers)
    return float(depot.fitness[rows].max()) if len(rows) else None


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


def kl_coverage(reference_observations, compared_observations, extractors,
                bins_per_dim: int = 10, mode: str = "marginal",
                smoothing: float = 1e-9) -> float:
    """Summed KL divergence between two solution sets' binned FD distributions.

    Each set is given by its (n, channels, timepoints) observations.  Per
    extractor (one per container, as ``Engine.extractors``), both sets' FDs
    are computed with it and histogrammed over [0, 1]; histograms get
    additive smoothing before normalization, and D_KL(reference || compared)
    is summed over the extractors.  ``marginal`` histograms each FD
    dimension separately (10 bins per dimension); ``joint`` uses the full
    n-d histogram.  Keep the asymmetry in mind: KLC(A, B) != KLC(B, A) in
    general.
    """
    if not len(reference_observations) or not len(compared_observations):
        raise ValueError("both solution sets must be non-empty")
    if mode not in ("marginal", "joint"):
        raise ValueError(f"unknown histogram mode {mode!r}")
    total = 0.0
    for extractor in extractors:
        ref_fd = extractor.extract_many(reference_observations)
        cmp_fd = extractor.extract_many(compared_observations)
        dims = ref_fd.shape[1]
        edges = np.linspace(0.0, 1.0, bins_per_dim + 1)
        if mode == "marginal":
            for k in range(dims):
                he, _ = np.histogram(ref_fd[:, k], bins=edges)
                ha, _ = np.histogram(cmp_fd[:, k], bins=edges)
                total += _kl(he, ha, smoothing)
        else:
            he, _ = np.histogramdd(ref_fd, bins=[edges] * dims)
            ha, _ = np.histogramdd(cmp_fd, bins=[edges] * dims)
            total += _kl(he.ravel(), ha.ravel(), smoothing)
    return total


def _kl(ref_counts, cmp_counts, smoothing) -> float:
    p = np.asarray(ref_counts, dtype=float) + smoothing
    q = np.asarray(cmp_counts, dtype=float) + smoothing
    p /= p.sum()
    q /= q.sum()
    return float(np.sum(p * np.log(p / q)))


def snapshot(iteration: int, containers, depot, fitness_bounds) -> MetricSnapshot:
    """All per-iteration metrics in one record."""
    uq, ucov = unique_variants(containers, depot, fitness_bounds)
    return MetricSnapshot(
        iteration=iteration,
        coverage_pct=coverage(containers),
        unique_coverage_pct=ucov,
        qd_score=qd_score(containers, depot, fitness_bounds),
        unique_qd_score=uq,
        best_fitness=best_fitness(containers, depot),
        fd_abs_corr=fd_abs_correlation(containers, depot),
        redundancy=redundancy(containers),
        depot_size=len(depot),
    )
