"""Domain types shared by the whole toolkit: grid containers and the depot.

The depot is one solution table: every solution any container ever accepted
is one row of a set of float64 arrays (genome, fitness, observations,
curiosity, and one FD matrix per container).  A grid container holds no
solution itself, only the depot row of each cell's elite.
"""
from __future__ import annotations

import enum

import numpy as np


class StructuralError(ValueError):
    """Shapes or identifiers do not line up (programming/config error)."""


class InvalidValueError(ValueError):
    """Numeric input is non-finite where a finite value is required."""


class EmptyContainerError(RuntimeError):
    """Selection was requested from a container that holds no solution."""


class ConfigurationError(ValueError):
    """An experiment configuration is inconsistent or incomplete."""


class AddOutcome(enum.Enum):
    ADDED_TO_EMPTY = "added_to_empty"
    REPLACED_WEAKER = "replaced_weaker"
    REJECTED = "rejected"

    @property
    def accepted(self) -> bool:
        return self is not AddOutcome.REJECTED


class GridContainer:
    """Fixed-shape grid of elites, one depot row per cell, best fitness wins.

    ``grid`` holds each cell's depot row (-1 for an empty cell) and
    ``order`` the flat indices of the occupied cells in first-fill order; a
    replaced elite keeps its cell's place.  Equal fitness keeps the incumbent
    (deterministic, avoids churn).
    """

    def __init__(self, container_id: int, shape):
        self.container_id = int(container_id)
        self.shape = tuple(int(s) for s in shape)
        if any(s <= 0 for s in self.shape):
            raise StructuralError(f"grid shape must be positive, got {self.shape}")
        self.grid = np.full(self.shape, -1, dtype=np.intp)
        self.order: list[int] = []

    @property
    def capacity(self) -> int:
        return self.grid.size

    @property
    def occupancy(self) -> int:
        return len(self.order)

    def rows(self) -> np.ndarray:
        """Depot rows of the stored elites, in first-fill order."""
        return self.grid.ravel()[np.array(self.order, dtype=np.intp)]

    def cells(self, fd: np.ndarray) -> np.ndarray:
        """Flat grid index of each FD row of an (n, dim) matrix.

        Each component maps to floor(fd * n_bins), clamped into
        [0, n_bins - 1]; a value of exactly 1 therefore lands in the last bin
        (quantile-transformed descriptors emit the closed interval [0, 1]).
        """
        fd = np.asarray(fd, dtype=float)
        if fd.ndim != 2 or fd.shape[1] != len(self.shape):
            raise StructuralError(
                f"descriptors have shape {fd.shape}, grid expects (n, {len(self.shape)})")
        if not np.all(np.isfinite(fd)):
            raise InvalidValueError("non-finite descriptor component")
        n_bins = np.array(self.shape)
        idx = np.minimum(np.maximum(np.floor(fd * n_bins), 0), n_bins - 1)
        return np.ravel_multi_index(tuple(idx.astype(np.intp).T), self.shape)

    def add(self, cell: int, row: int, fitness) -> tuple[AddOutcome, int | None]:
        """Offer depot row ``row`` for flat cell ``cell``; ``fitness`` maps
        rows to fitness.  Returns the outcome and the evicted row, if any."""
        incumbent = int(self.grid.flat[cell])
        if incumbent < 0:
            self.grid.flat[cell] = row
            self.order.append(cell)
            return AddOutcome.ADDED_TO_EMPTY, None
        if fitness[row] > fitness[incumbent]:
            self.grid.flat[cell] = row
            return AddOutcome.REPLACED_WEAKER, incumbent
        return AddOutcome.REJECTED, None

    def clear(self) -> None:
        self.grid.fill(-1)
        self.order.clear()


class DepotContainer:
    """Append-only table of every solution ever accepted by any container.

    Row r holds one solution: ``ids[r]`` (its evaluation index),
    ``genomes[r]``, ``fitness[r]``, ``observations[r]`` (channels,
    timepoints), ``curiosity[r]`` (its selection score, kept by the engine)
    and ``fds[c][r]``, its FD under container c's current extractor.  This
    is the training corpus for descriptor learning.
    ``added_since_last_training`` drives the retrain schedule and is reset by
    the engine when a training pass completes.
    """

    def __init__(self, genome_dim: int, observation_shape, fd_dims):
        self.ids = np.empty(0, dtype=np.int64)
        self.genomes = np.empty((0, genome_dim))
        self.fitness = np.empty(0)
        self.observations = np.empty((0, *observation_shape))
        self.curiosity = np.empty(0)
        self.fds = [np.empty((0, d)) for d in fd_dims]
        self.added_since_last_training = 0

    def __len__(self) -> int:
        return len(self.ids)

    def append(self, ids, genomes, fitness, observations, curiosity, fds) -> None:
        """Append a batch of rows; ``fds`` holds one matrix per container."""
        self.ids = np.concatenate([self.ids, ids])
        self.genomes = np.concatenate([self.genomes, genomes])
        self.fitness = np.concatenate([self.fitness, fitness])
        self.observations = np.concatenate([self.observations, observations])
        self.curiosity = np.concatenate([self.curiosity, curiosity])
        self.fds = [np.concatenate([old, new]) for old, new in zip(self.fds, fds)]
        self.added_since_last_training += len(ids)

    def observation_corpus(self) -> np.ndarray:
        """All stored observation matrices, (n, channels, timepoints)."""
        return self.observations
