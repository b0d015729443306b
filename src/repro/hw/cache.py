"""Cache models.

The runtime timing model prices memory accesses with closed-form
hit/miss fractions (:func:`miss_fraction`), exploiting the paper's key
observation: for a sequential loop over a working set of W bytes under
(pseudo-)LRU, every access hits when the cache is at least W bytes and
misses otherwise, independent of hierarchy depth or inclusion policy.
The working-set profiler does not simulate caches either: it sweeps
sizes with Mattson stack distances (:mod:`repro.profiling.wset`).

:class:`CacheHierarchy` composes per-level configs into the L1i/L1d/L2/LLC
stack of Table 1's platforms; :func:`generate_access_stream` turns a
:class:`~repro.hw.ir.MemAccessSpec` into a concrete address stream for
memory-trace export.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Sequence

import numpy as np

from repro.hw.ir import MemAccessSpec, MemPattern
from repro.util.errors import ConfigurationError

LINE_BYTES = 64


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and timing of one cache level."""

    name: str
    size_bytes: int
    associativity: int
    latency_cycles: float
    line_bytes: int = LINE_BYTES

    def __post_init__(self) -> None:
        if self.size_bytes < self.line_bytes:
            raise ConfigurationError(
                f"{self.name}: size {self.size_bytes} below one line"
            )
        if self.associativity < 1:
            raise ConfigurationError(f"{self.name}: associativity must be >= 1")
        if self.size_bytes % (self.line_bytes * self.associativity) != 0:
            raise ConfigurationError(
                f"{self.name}: size must be a multiple of line*associativity"
            )
        if self.latency_cycles < 0:
            raise ConfigurationError(f"{self.name}: negative latency")
        # Precomputed (not a dataclass field: digests/eq/repr unchanged).
        object.__setattr__(
            self, "num_sets",
            self.size_bytes // (self.line_bytes * self.associativity))

    def scaled(self, factor: float) -> "CacheConfig":
        """A config with capacity scaled by ``factor`` (sets rounded down).

        Used by the contention model to express a co-runner stealing
        capacity. The result keeps associativity and never shrinks below
        one set.
        """
        if factor <= 0:
            raise ConfigurationError("scale factor must be positive")
        new_sets = max(1, int(self.num_sets * factor))
        return replace(
            self, size_bytes=new_sets * self.line_bytes * self.associativity
        )


def generate_access_stream(
    spec: MemAccessSpec,
    rng: np.random.Generator,
    length: int,
    base: int = 0,
) -> np.ndarray:
    """Materialise a byte-address stream realising ``spec``'s pattern.

    :mod:`repro.core.trace_export` writes a program's memory trace with
    it; the working-set profiler samples its own region traces instead.
    """
    if length <= 0:
        raise ConfigurationError("stream length must be positive")
    lines = max(1, spec.wset_bytes // LINE_BYTES)
    if spec.pattern is MemPattern.SEQUENTIAL:
        offsets = np.arange(length) % lines
    elif spec.pattern is MemPattern.STRIDED:
        # Stride of 2 lines still touches every line over two sweeps.
        stride = 2
        offsets = (np.arange(length) * stride) % lines
    elif spec.pattern is MemPattern.RANDOM:
        offsets = rng.integers(0, lines, size=length)
    elif spec.pattern in (MemPattern.POINTER_CHASE, MemPattern.SHUFFLED):
        # A fixed random permutation cycle — irregular; for POINTER_CHASE
        # additionally each load depends on the previous one.
        perm = rng.permutation(lines)
        offsets = perm[np.arange(length) % lines]
    else:  # pragma: no cover - exhaustive over enum
        raise ConfigurationError(f"unknown pattern {spec.pattern}")
    return (base + offsets * LINE_BYTES).astype(np.int64)


#: memo for :func:`miss_fraction` — the timing model asks for the same
#: (pattern, working set, capacity) triples thousands of times per run
_MISS_FRACTION_MEMO: Dict[tuple, float] = {}
_MISS_FRACTION_MEMO_MAX = 1 << 16


def miss_fraction(spec: MemAccessSpec, cache_bytes: float) -> float:
    """Steady-state miss fraction of ``spec`` against a ``cache_bytes`` cache.

    Closed forms of a set-associative true-LRU cache's steady state:

    - sequential/strided/pointer-chase cyclic patterns: all-hit when the
      working set fits, all-miss otherwise (the §4.4.4 LRU argument);
    - random: per-access hit probability is the resident fraction
      ``cache/W`` (capped at 1).
    """
    key = (spec.pattern, spec.wset_bytes, cache_bytes)
    memo = _MISS_FRACTION_MEMO
    cached = memo.get(key)
    if cached is not None:
        return cached
    if cache_bytes <= 0:
        result = 1.0
    elif spec.pattern is MemPattern.RANDOM:
        wset = float(spec.wset_bytes)
        result = float(max(0.0, 1.0 - min(1.0, cache_bytes / wset)))
    else:
        result = 0.0 if float(spec.wset_bytes) <= cache_bytes else 1.0
    if len(memo) >= _MISS_FRACTION_MEMO_MAX:
        memo.clear()
    memo[key] = result
    return result


class CacheHierarchy:
    """The per-core view of an L1i/L1d/L2/LLC stack plus memory latency."""

    def __init__(
        self,
        l1i: CacheConfig,
        l1d: CacheConfig,
        l2: CacheConfig,
        llc: CacheConfig,
        memory_latency_cycles: float,
    ) -> None:
        if not l1d.size_bytes <= l2.size_bytes <= llc.size_bytes:
            raise ConfigurationError("cache sizes must be monotone L1d<=L2<=LLC")
        if memory_latency_cycles <= 0:
            raise ConfigurationError("memory latency must be positive")
        self.l1i = l1i
        self.l1d = l1d
        self.l2 = l2
        self.llc = llc
        self.memory_latency_cycles = memory_latency_cycles

    def data_levels(self) -> Sequence[CacheConfig]:
        """The data-side levels, innermost first."""
        return (self.l1d, self.l2, self.llc)

    def instruction_levels(self) -> Sequence[CacheConfig]:
        """The instruction-side levels, innermost first."""
        return (self.l1i, self.l2, self.llc)

    def with_effective_sizes(
        self,
        l1i_factor: float = 1.0,
        l1d_factor: float = 1.0,
        l2_factor: float = 1.0,
        llc_factor: float = 1.0,
    ) -> "CacheHierarchy":
        """A hierarchy with capacities scaled by contention factors."""
        return CacheHierarchy(
            self.l1i.scaled(l1i_factor),
            self.l1d.scaled(l1d_factor),
            self.l2.scaled(l2_factor),
            self.llc.scaled(llc_factor),
            self.memory_latency_cycles,
        )
