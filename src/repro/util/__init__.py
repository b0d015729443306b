"""Shared utilities: seeded randomness, statistics, quantisation, errors.

These helpers are deliberately free of any domain knowledge so every
substrate (hardware, kernel, applications, profilers) can depend on them
without cycles.
"""

from repro.util.errors import (
    ConfigurationError,
    ProfilingError,
    ReproError,
    SimulationError,
)
from repro.util.quantize import (
    LogScaleQuantizer,
    next_pow2,
    pow2_bins,
    prev_pow2,
)
from repro.util.rng import RngStream, derive_seed, make_rng
from repro.util.spec_hash import canonical_bytes, stable_digest
from repro.util.stats import (
    Histogram,
    OnlineStats,
    percentile,
    relative_error,
)

__all__ = [
    "ConfigurationError",
    "Histogram",
    "canonical_bytes",
    "stable_digest",
    "LogScaleQuantizer",
    "OnlineStats",
    "ProfilingError",
    "ReproError",
    "RngStream",
    "SimulationError",
    "derive_seed",
    "make_rng",
    "next_pow2",
    "percentile",
    "pow2_bins",
    "prev_pow2",
    "relative_error",
]
