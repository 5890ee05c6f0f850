"""Evaluation metrics over container/depot snapshots.

All functions are pure reads of the search state.  Coverage and QD-score
come in a base flavour (a solution stored in several containers counts once
per container) and a unique flavour (distinct solution ids count once);
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


def _normalized_fitness(fitness, bounds) -> float:
    lo, hi = bounds
    return min(max((fitness - lo) / (hi - lo), 0.0), 1.0)


def coverage(containers) -> float:
    """Percentage of occupied cells over the summed container capacity."""
    return 100.0 * sum(c.occupancy for c in containers) / _total_capacity(containers)


def qd_score(containers, fitness_bounds) -> float:
    """Sum of [0, 1]-normalized fitness over every stored entry."""
    lo, hi = fitness_bounds
    if not hi > lo:
        raise ValueError("fitness bounds must satisfy hi > lo")
    total = 0.0
    for c in containers:
        for sol in c.cells.values():
            total += _normalized_fitness(sol.fitness, fitness_bounds)
    return total


def unique_variants(containers, fitness_bounds) -> tuple[float, float]:
    """(unique QD-score, unique coverage %): duplicates across containers
    count once; the coverage denominator stays the total capacity."""
    seen = {}
    for c in containers:
        for sol in c.cells.values():
            seen[sol.id] = sol
    uq = sum(_normalized_fitness(s.fitness, fitness_bounds) for s in seen.values())
    ucov = 100.0 * len(seen) / _total_capacity(containers)
    return uq, ucov


def redundancy(containers) -> float:
    """Fraction of total capacity holding duplicate copies: R / S with
    R = stored entries minus distinct ids and S the summed capacity."""
    stored = sum(c.occupancy for c in containers)
    distinct = len({s.id for c in containers for s in c.cells.values()})
    return (stored - distinct) / _total_capacity(containers)


def best_fitness(containers) -> float | None:
    """Maximum fitness over all stored solutions, None when all empty."""
    best = None
    for c in containers:
        for sol in c.cells.values():
            if best is None or sol.fitness > best:
                best = sol.fitness
    return best


def fd_abs_correlation(containers, depot) -> float | None:
    """Mean |Pearson r| between all containers' FD dimensions.

    Rows are the depot solutions with every container's current extractor
    applied to each, so all columns share one basis.  Zero-variance columns
    are excluded with a warning; with fewer than two rows or columns the
    metric is undefined and None is returned.
    """
    if len(depot) < 2:
        return None
    observations = depot.observation_corpus()
    blocks = [c.extractor.extract_many(observations) for c in containers]
    fd = np.hstack(blocks)
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


def kl_coverage(reference_solutions, compared_solutions, containers,
                bins_per_dim: int = 10, mode: str = "marginal",
                smoothing: float = 1e-9) -> float:
    """Summed KL divergence between the two sets' binned FD distributions.

    Per container, both sets' FDs are computed with that container's current
    extractor and histogrammed over [0, 1]; histograms get additive
    smoothing before normalization, and D_KL(reference || compared) is summed
    over containers.  ``marginal`` histograms each FD dimension separately
    (10 bins per dimension); ``joint`` uses the full n-d histogram.  Keep the
    asymmetry in mind: KLC(A, B) != KLC(B, A) in general.
    """
    if not reference_solutions or not compared_solutions:
        raise ValueError("both solution sets must be non-empty")
    if mode not in ("marginal", "joint"):
        raise ValueError(f"unknown histogram mode {mode!r}")
    ref_obs = [s.evaluation.observations for s in reference_solutions]
    cmp_obs = [s.evaluation.observations for s in compared_solutions]
    total = 0.0
    for c in containers:
        ref_fd = c.extractor.extract_many(ref_obs)
        cmp_fd = c.extractor.extract_many(cmp_obs)
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
    uq, ucov = unique_variants(containers, fitness_bounds)
    return MetricSnapshot(
        iteration=iteration,
        coverage_pct=coverage(containers),
        unique_coverage_pct=ucov,
        qd_score=qd_score(containers, fitness_bounds),
        unique_qd_score=uq,
        best_fitness=best_fitness(containers),
        fd_abs_corr=fd_abs_correlation(containers, depot),
        redundancy=redundancy(containers),
        depot_size=len(depot),
    )
