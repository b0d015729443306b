"""Unit tests for repro.util.stats."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.util import (
    ConfigurationError,
    Histogram,
    OnlineStats,
    percentile,
    relative_error,
)


class TestPercentile:
    def test_median_of_odd_list(self):
        assert percentile([1, 2, 3], 50) == 2

    def test_p99_matches_numpy(self):
        samples = list(range(1000))
        assert percentile(samples, 99) == pytest.approx(np.percentile(samples, 99))

    def test_empty_raises(self):
        with pytest.raises(ConfigurationError):
            percentile([], 50)

    def test_out_of_range_q_raises(self):
        with pytest.raises(ConfigurationError):
            percentile([1.0], 101)

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=50))
    def test_p0_is_min_p100_is_max(self, samples):
        assert percentile(samples, 0) == pytest.approx(min(samples))
        assert percentile(samples, 100) == pytest.approx(max(samples))


class TestRelativeError:
    def test_exact_match_is_zero(self):
        assert relative_error(5.0, 5.0) == 0.0

    def test_ten_percent(self):
        assert relative_error(10.0, 11.0) == pytest.approx(0.1)

    def test_zero_actual_zero_synth(self):
        assert relative_error(0.0, 0.0) == 0.0

    def test_zero_actual_nonzero_synth_is_inf(self):
        assert relative_error(0.0, 1.0) == math.inf

    @given(st.floats(0.1, 1e6), st.floats(0.1, 1e6))
    def test_nonnegative(self, a, s):
        assert relative_error(a, s) >= 0.0


class TestOnlineStats:
    def test_mean_and_variance_match_numpy(self):
        values = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0]
        acc = OnlineStats()
        acc.extend(values)
        assert acc.mean == pytest.approx(np.mean(values))
        assert acc.variance == pytest.approx(np.var(values))
        assert acc.minimum == 1.0
        assert acc.maximum == 9.0

    @given(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=40))
    def test_variance_never_negative(self, values):
        acc = OnlineStats()
        acc.extend(values)
        assert acc.variance >= -1e-9


class TestHistogram:
    def test_probability_and_total(self):
        hist = Histogram()
        hist.add("a", 3)
        hist.add("b", 1)
        assert hist.total == 4
        assert hist.probability("a") == pytest.approx(0.75)
        assert hist.probability("missing") == 0.0

    def test_normalized_sums_to_one(self):
        hist = Histogram()
        for key, n in [("x", 2), ("y", 5), ("z", 3)]:
            hist.add(key, n)
        assert sum(hist.normalized().values()) == pytest.approx(1.0)

    def test_sampling_respects_distribution(self):
        hist = Histogram()
        hist.add("common", 99)
        hist.add("rare", 1)
        rng = np.random.default_rng(0)
        samples = hist.sample(rng, size=2000)
        assert samples.count("common") > 1800

    def test_sample_empty_raises(self):
        with pytest.raises(ConfigurationError):
            Histogram().sample(np.random.default_rng(0))

    def test_most_common_ordering(self):
        hist = Histogram()
        hist.update({"a": 1, "b": 5, "c": 3})
        assert [k for k, _ in hist.most_common()] == ["b", "c", "a"]

    def test_tv_distance_identical_is_zero(self):
        hist = Histogram({"a": 1, "b": 2})
        assert hist.tv_distance(Histogram({"a": 2, "b": 4})) == pytest.approx(0.0)

    def test_tv_distance_disjoint_is_one(self):
        assert Histogram({"a": 1}).tv_distance(Histogram({"b": 1})) == pytest.approx(
            1.0
        )

    @given(
        st.dictionaries(st.text(min_size=1, max_size=3), st.integers(1, 100),
                        min_size=1, max_size=8),
        st.dictionaries(st.text(min_size=1, max_size=3), st.integers(1, 100),
                        min_size=1, max_size=8),
    )
    def test_tv_distance_is_a_metric_within_bounds(self, a, b):
        ha, hb = Histogram(dict(a)), Histogram(dict(b))
        d = ha.tv_distance(hb)
        assert 0.0 <= d <= 1.0 + 1e-12
        assert d == pytest.approx(hb.tv_distance(ha))
