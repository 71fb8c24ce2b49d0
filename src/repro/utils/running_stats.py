"""Streaming statistics behind the telemetry histograms."""

from __future__ import annotations

import math

import numpy as np


class RunningStats:
    """Welford online mean/variance over scalars or fixed-shape arrays.

    Numerically stable for long training runs (millions of updates), which
    matters because the paper's state components span ~27 orders of
    magnitude once steric clashes appear in raw scores.
    """

    def __init__(self, shape: tuple[int, ...] = ()) -> None:
        self._shape = shape
        self.count = 0
        self._mean = np.zeros(shape, dtype=float)
        self._m2 = np.zeros(shape, dtype=float)

    def update(self, value) -> None:
        """Fold one observation into the statistics."""
        x = np.asarray(value, dtype=float)
        if x.shape != self._shape:
            raise ValueError(f"expected shape {self._shape}, got {x.shape}")
        self.count += 1
        delta = x - self._mean
        self._mean = self._mean + delta / self.count
        self._m2 = self._m2 + delta * (x - self._mean)

    @property
    def mean(self):
        """Current mean (scalar for scalar streams)."""
        return float(self._mean) if self._shape == () else self._mean.copy()

    @property
    def variance(self):
        """Population variance (0 before two observations)."""
        if self.count < 2:
            return 0.0 if self._shape == () else np.zeros(self._shape)
        v = self._m2 / self.count
        return float(v) if self._shape == () else v

    @property
    def std(self):
        """Population standard deviation."""
        v = self.variance
        return math.sqrt(v) if self._shape == () else np.sqrt(v)
