"""Quantile transform: map latent codes to uniform [0, 1] descriptors.

Neural latents tend to pile up around the distribution mean, which leaves
most grid bins unreachable.  Fitting an empirical per-dimension CDF and
evaluating new codes through it spreads the descriptors uniformly over the
closed unit interval.
"""
from __future__ import annotations

import numpy as np

from .core import StructuralError


class QuantileTransform:
    """Per-dimension empirical-CDF map, piecewise linear between landmarks.

    ``landmarks`` has shape (n_quantiles, dim): column d holds the empirical
    quantiles of training dimension d at evenly spaced probability levels.
    Values outside the landmark range clamp to 0 / 1.  A degenerate dimension
    (all landmarks equal) maps every input to 0.5, which parks a collapsed
    latent unit in the grid's central bin instead of erroring.
    """

    def __init__(self, landmarks: np.ndarray, levels: np.ndarray):
        landmarks = np.asarray(landmarks, dtype=float)
        levels = np.asarray(levels, dtype=float)
        if landmarks.ndim != 2 or landmarks.shape[0] < 2:
            raise StructuralError("landmarks must be (n_quantiles >= 2, dim)")
        if levels.shape != (landmarks.shape[0],):
            raise StructuralError("levels must match the number of landmarks")
        if np.any(np.diff(landmarks, axis=0) < 0):
            raise StructuralError("landmarks must be non-decreasing per dimension")
        self.landmarks = landmarks
        self.levels = levels

    @property
    def dim(self) -> int:
        return self.landmarks.shape[1]

    @classmethod
    def fit(cls, samples: np.ndarray, n_quantiles: int = 1000) -> "QuantileTransform":
        """Fit landmarks on (n_samples, dim) latent codes.

        ``n_quantiles`` is silently lowered to the sample count when there are
        fewer samples than requested levels.
        """
        samples = np.atleast_2d(np.asarray(samples, dtype=float))
        n = samples.shape[0]
        if n < 2:
            raise StructuralError(f"need at least 2 samples to fit, got {n}")
        n_q = int(min(max(n_quantiles, 2), n))
        levels = np.linspace(0.0, 1.0, n_q)
        landmarks = np.quantile(samples, levels, axis=0)
        return cls(landmarks, levels)

    def apply(self, z: np.ndarray) -> np.ndarray:
        """Transform a batch of latent vectors (n, dim) into [0, 1]."""
        z = np.asarray(z, dtype=float)
        if z.ndim != 2 or z.shape[1] != self.dim:
            raise StructuralError(
                f"latents have shape {z.shape}, transform expects (n, {self.dim})")
        out = np.empty_like(z)
        for d in range(self.dim):
            lm = self.landmarks[:, d]
            if lm[0] == lm[-1]:
                out[:, d] = 0.5
            else:
                out[:, d] = self._interp(z[:, d], lm, self.levels)
        return out

    @staticmethod
    def _interp(x, lm, levels):
        """``np.interp`` onto the levels, clamped to 0 / 1 outside the
        landmarks.  Where two landmarks differ by a subnormal its slope
        overflows and it returns inf; only those entries are recomputed from
        the position between the segment's two landmarks, which lies in
        [0, 1], so every finite output keeps its bits."""
        out = np.interp(x, lm, levels, left=0.0, right=1.0)
        bad = np.flatnonzero(~np.isfinite(out) & np.isfinite(x))
        if bad.size:
            xb = x[bad]
            j = np.searchsorted(lm, xb, side="right") - 1
            f = (xb - lm[j]) / (lm[j + 1] - lm[j])
            out[bad] = levels[j] + f * (levels[j + 1] - levels[j])
        return out
