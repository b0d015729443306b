"""Unit tests for repro.util.quantize."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.util import (
    ConfigurationError,
    LogScaleQuantizer,
    next_pow2,
    pow2_bins,
    prev_pow2,
)
from repro.util.quantize import bin_index, exponential_bins


class TestPow2Helpers:
    def test_next_pow2_exact(self):
        assert next_pow2(64) == 64

    def test_next_pow2_rounds_up(self):
        assert next_pow2(65) == 128

    def test_prev_pow2_rounds_down(self):
        assert prev_pow2(127) == 64

    def test_nonpositive_raises(self):
        with pytest.raises(ConfigurationError):
            next_pow2(0)
        with pytest.raises(ConfigurationError):
            prev_pow2(-4)

    @given(st.integers(1, 2**40))
    def test_bracketing_invariant(self, value):
        assert prev_pow2(value) <= value <= next_pow2(value)
        assert next_pow2(value) <= 2 * prev_pow2(value)


class TestPow2Bins:
    def test_paper_dependency_bins(self):
        # Ditto quantises dependency distances into 11 exponential bins 1..1024.
        assert exponential_bins(1, 1024) == [1, 2, 4, 8, 16, 32, 64, 128, 256,
                                             512, 1024]

    def test_single_bin(self):
        assert pow2_bins(64, 64) == [64]

    def test_bad_range_raises(self):
        with pytest.raises(ConfigurationError):
            pow2_bins(128, 64)


class TestLogScaleQuantizer:
    def test_half_maps_to_exponent_one(self):
        assert LogScaleQuantizer().quantize(0.5) == 1

    def test_high_probability_folds(self):
        # taken rate 0.875 folds to 0.125 => exponent 3
        assert LogScaleQuantizer().quantize(0.875) == 3

    def test_zero_maps_to_deepest_bin(self):
        q = LogScaleQuantizer(max_exponent=10)
        assert q.quantize(0.0) == 10

    def test_value_round_trip(self):
        q = LogScaleQuantizer(max_exponent=10)
        for exponent in q.exponents:
            assert q.quantize(q.value(exponent)) == exponent

    def test_out_of_range_raises(self):
        with pytest.raises(ConfigurationError):
            LogScaleQuantizer().quantize(1.5)
        with pytest.raises(ConfigurationError):
            LogScaleQuantizer().value(0)

    @given(st.floats(0.0, 1.0))
    def test_quantize_always_on_grid(self, p):
        q = LogScaleQuantizer(max_exponent=10)
        assert q.quantize(p) in set(q.exponents)


class TestBinIndex:
    def test_first_bin(self):
        assert bin_index(1, [1, 2, 4]) == 0

    def test_clamps_to_last(self):
        assert bin_index(100, [1, 2, 4]) == 2

    def test_empty_raises(self):
        with pytest.raises(ConfigurationError):
            bin_index(1, [])
