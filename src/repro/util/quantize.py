"""Quantisation helpers.

Ditto quantises several profiled features:

- branch taken/not-taken rates and transition rates in log scale, from
  2**-1 down to 2**-10 (§4.4.3);
- data/instruction working-set sizes in powers of two, from one cache line
  up to the application's footprint (§4.4.4, §4.4.5);
- data-dependency distances into 11 exponentially-growing bins from 1 to
  1024 (§4.4.6).

These helpers implement the shared mechanics.
"""

from __future__ import annotations

import math
from typing import List, Sequence

from repro.util.errors import ConfigurationError


def next_pow2(value: int) -> int:
    """Smallest power of two >= ``value`` (``value`` must be positive)."""
    if value <= 0:
        raise ConfigurationError(f"next_pow2 requires a positive value, got {value}")
    return 1 << (value - 1).bit_length()


def prev_pow2(value: int) -> int:
    """Largest power of two <= ``value`` (``value`` must be positive)."""
    if value <= 0:
        raise ConfigurationError(f"prev_pow2 requires a positive value, got {value}")
    return 1 << (value.bit_length() - 1)


def pow2_bins(lo: int, hi: int) -> List[int]:
    """All powers of two from ``lo`` to ``hi`` inclusive.

    >>> pow2_bins(64, 512)
    [64, 128, 256, 512]
    """
    for bound in (lo, hi):
        if bound & (bound - 1) or bound <= 0:
            raise ConfigurationError(f"bound {bound} is not a positive power of two")
    if lo > hi:
        raise ConfigurationError(f"lo ({lo}) must not exceed hi ({hi})")
    bins = []
    size = lo
    while size <= hi:
        bins.append(size)
        size <<= 1
    return bins


class LogScaleQuantizer:
    """Quantise probabilities onto a log-scale grid 2**-1 .. 2**-max_exp.

    This is the grid Ditto uses for branch taken rates and transition
    rates. Probabilities are first folded onto (0, 0.5] — a branch taken
    with rate 0.9 behaves like one not-taken with rate 0.1, and the
    profiler records which direction dominates separately.

    >>> q = LogScaleQuantizer(max_exponent=10)
    >>> q.quantize(0.5)
    1
    >>> q.quantize(0.24)
    2
    >>> q.value(3)
    0.125
    """

    def __init__(self, max_exponent: int = 10) -> None:
        if max_exponent < 1:
            raise ConfigurationError("max_exponent must be >= 1")
        self.max_exponent = max_exponent

    @property
    def exponents(self) -> Sequence[int]:
        """The available exponents, 1..max_exponent."""
        return range(1, self.max_exponent + 1)

    def quantize(self, probability: float) -> int:
        """Return the exponent ``m`` such that 2**-m best matches ``probability``.

        ``probability`` must lie in [0, 1]; values above 0.5 are folded to
        ``1 - probability`` first; zero maps to the deepest bin.
        """
        if not 0.0 <= probability <= 1.0:
            raise ConfigurationError(
                f"probability must be within [0, 1], got {probability}"
            )
        folded = min(probability, 1.0 - probability)
        if folded <= 0.0:
            return self.max_exponent
        exponent = round(-math.log2(folded))
        return max(1, min(self.max_exponent, exponent))

    def value(self, exponent: int) -> float:
        """Return 2**-exponent for an exponent on the grid."""
        if exponent not in self.exponents:
            raise ConfigurationError(
                f"exponent {exponent} outside 1..{self.max_exponent}"
            )
        return 2.0**-exponent


def exponential_bins(lo: int, hi: int) -> List[int]:
    """Bin edges growing by powers of two from ``lo`` to ``hi`` inclusive.

    Ditto's dependency distances use ``exponential_bins(1, 1024)`` which
    yields the 11 bins 1, 2, 4, ..., 1024.

    >>> len(exponential_bins(1, 1024))
    11
    """
    return pow2_bins(lo, hi)


def bin_index(value: float, edges: Sequence[int]) -> int:
    """Index of the first edge >= value (clamped to the last bin)."""
    if not edges:
        raise ConfigurationError("edges must be non-empty")
    for index, edge in enumerate(edges):
        if value <= edge:
            return index
    return len(edges) - 1
