"""Arrival processes and key-popularity distributions."""

from __future__ import annotations

import numpy as np

from repro.util.errors import ConfigurationError


class ExponentialInterarrival:
    """Poisson arrivals at a target rate (open-loop generators)."""

    def __init__(self, rate_per_s: float, rng: np.random.Generator) -> None:
        if rate_per_s <= 0:
            raise ConfigurationError("rate must be positive")
        self.rate_per_s = rate_per_s
        self._rng = rng

    def next_gap(self) -> float:
        """Seconds until the next arrival."""
        return float(self._rng.exponential(1.0 / self.rate_per_s))


class ConstantInterarrival:
    """Deterministic arrivals (wrk2's fixed-rate scheduling)."""

    def __init__(self, rate_per_s: float) -> None:
        if rate_per_s <= 0:
            raise ConfigurationError("rate must be positive")
        self.rate_per_s = rate_per_s

    def next_gap(self) -> float:
        """Seconds until the next arrival."""
        return 1.0 / self.rate_per_s


class UniformKeys:
    """Uniform key popularity (the paper's YCSB-uniform MongoDB setup)."""

    def __init__(self, key_count: int, rng: np.random.Generator) -> None:
        if key_count < 1:
            raise ConfigurationError("key_count must be >= 1")
        self.key_count = key_count
        self._rng = rng

    def next_key(self) -> int:
        """Draw one key index."""
        return int(self._rng.integers(0, self.key_count))
