"""Descriptor extraction: observation matrices -> per-container FD matrix.

Two kinds share one contract, ``extract_many``: a pure function from an
(n, channels, timepoints) batch to an (n, out_dim) matrix whose components
lie in the closed unit interval.  They are hardcoded task descriptors built
from channel reductions, and learned descriptors read off an encoder's
latent space, optionally pushed through a quantile transform.  Extractors
are immutable snapshots; the engine swaps new ones in atomically when the
ensemble is retrained.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ConfigurationError, StructuralError

REDUCTION_KINDS = ("mean", "final", "mean_abs")

# Most rows per product of a learned extraction: one full-scale minibatch.
# On OpenBLAS's SkylakeX kernel an encoded row kept its bits in products of
# 100 rows or more, and equal parts of more than ENCODE_ROWS rows have at
# least ENCODE_ROWS // 2.
ENCODE_ROWS = 1024


def row_parts(n: int, most: int) -> list[int]:
    """Edges of the fewest equal row ranges of at most ``most`` rows that
    cover n rows; their sizes differ by at most one.  No rows are one empty
    range."""
    parts = -(-n // most) or 1
    return [n * i // parts for i in range(parts + 1)]


@dataclass(frozen=True)
class ChannelReduction:
    """One FD component: reduce a named channel over time, then normalize.

    ``bounds`` are the task-declared normalization interval; the reduced
    value is min-max mapped into [0, 1] and clamped.
    """

    channel: str
    kind: str
    bounds: tuple[float, float]

    def __post_init__(self):
        if self.kind not in REDUCTION_KINDS:
            raise ConfigurationError(f"unknown reduction kind {self.kind!r}")
        lo, hi = self.bounds
        if not hi > lo:
            raise ConfigurationError(f"degenerate normalization bounds {self.bounds}")


class HardcodedExtractor:
    """A fixed FD, one reduction per grid dimension, over observations whose
    channels are named, in order, by ``channel_names``."""

    def __init__(self, reductions: tuple[ChannelReduction, ...], channel_names):
        self.reductions = reductions
        self.out_dim = len(reductions)
        self._rows = []
        for red in reductions:
            if red.channel not in channel_names:
                raise ConfigurationError(f"task has no channel named {red.channel!r}")
            self._rows.append(channel_names.index(red.channel))

    def extract_many(self, observation_list) -> np.ndarray:
        """Each row's bits are the same whatever the other rows are."""
        obs = np.asarray(observation_list, dtype=float)
        if obs.ndim != 3:
            raise StructuralError("expected a sequence of (channels, timepoints)")
        fd = np.empty((len(obs), self.out_dim))
        # sum / t is the division np.mean does, without its per-call overhead
        t = obs.shape[-1]
        for k, (red, row) in enumerate(zip(self.reductions, self._rows)):
            series = obs[:, row]
            if red.kind == "mean":
                value = series.sum(axis=-1) / t
            elif red.kind == "final":
                value = series[:, -1]
            else:  # mean_abs
                value = np.abs(series).sum(axis=-1) / t
            lo, hi = red.bounds
            fd[:, k] = (value - lo) / (hi - lo)
        return np.clip(fd, 0.0, 1.0, out=fd)


class LearnedExtractor:
    """Encoder latent of one ensemble module, with optional quantile transform.

    Observations are scaled exactly as during training, flattened
    channel-major, and encoded with dropout disabled; without a transform the
    raw sigmoid latents land in the open (0, 1).
    """

    def __init__(self, ensemble, module_index: int, scaler, quantile_transform=None):
        self.ensemble = ensemble
        self.module_index = int(module_index)
        self.scaler = scaler
        self.quantile_transform = quantile_transform
        self.out_dim = ensemble.latent_dim

    def extract_many(self, observation_list) -> np.ndarray:
        """Scaled and encoded in the equal row parts of at most
        ``ENCODE_ROWS`` rows that ``row_parts`` gives, so no scaled copy of
        a large batch is built.  Deterministic per batch; a row's last bits
        may depend on the row count, because the encoder's matrix products
        sum in a batch-size dependent order."""
        obs = np.asarray(observation_list, dtype=float)
        z = np.empty((len(obs), self.out_dim))
        edges = row_parts(len(obs), ENCODE_ROWS)
        for lo, hi in zip(edges, edges[1:]):
            z[lo:hi] = self.ensemble.encode(self.scaler.transform(obs[lo:hi]),
                                            self.module_index)
        if self.quantile_transform is not None:
            return self.quantile_transform.apply(z)
        return z
