"""Unit tests for branch outcome generation and prediction models."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw.branch import (
    BranchPredictorModel,
    GsharePredictor,
    generate_branch_outcomes,
)
from repro.hw.ir import BranchSpec
from repro.util.errors import ConfigurationError


class TestGenerateBranchOutcomes:
    def test_taken_rate_respected(self):
        rng = np.random.default_rng(0)
        outcomes = generate_branch_outcomes(0.8, 0.3, 20000, rng)
        assert outcomes.mean() == pytest.approx(0.8, abs=0.03)

    def test_transition_rate_respected(self):
        rng = np.random.default_rng(1)
        outcomes = generate_branch_outcomes(0.5, 0.25, 20000, rng)
        transitions = np.mean(outcomes[1:] != outcomes[:-1])
        assert transitions == pytest.approx(0.25, abs=0.03)

    def test_always_taken(self):
        rng = np.random.default_rng(2)
        outcomes = generate_branch_outcomes(1.0, 0.0, 1000, rng)
        assert outcomes.mean() > 0.99

    def test_transition_bounded_by_mix(self):
        # taken 0.9 cannot transition more often than 0.2 on average.
        rng = np.random.default_rng(3)
        outcomes = generate_branch_outcomes(0.9, 0.9, 20000, rng)
        transitions = np.mean(outcomes[1:] != outcomes[:-1])
        assert transitions <= 0.25

    def test_invalid_inputs_raise(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ConfigurationError):
            generate_branch_outcomes(1.2, 0.5, 10, rng)
        with pytest.raises(ConfigurationError):
            generate_branch_outcomes(0.5, 0.5, 0, rng)

    @given(p=st.floats(0.0, 1.0), t=st.floats(0.05, 1.0))
    @settings(max_examples=25, deadline=None)
    def test_statistics_roughly_match(self, p, t):
        # t ~ 0 chains are absorbing (a never-transitioning branch keeps
        # its initial direction), so the stationary mean only emerges for
        # mixing chains.
        rng = np.random.default_rng(42)
        outcomes = generate_branch_outcomes(p, t, 8000, rng)
        assert outcomes.mean() == pytest.approx(p, abs=0.12)


class TestGsharePredictor:
    def test_learns_always_taken(self):
        predictor = GsharePredictor(history_bits=8)
        predictor.predict_and_update_many(np.full(200, 100),
                                          np.ones(200, dtype=bool))
        assert predictor.misprediction_rate < 0.05

    def test_learns_alternating_pattern(self):
        predictor = GsharePredictor(history_bits=8)
        predictor.predict_and_update_many(np.full(2000, 100),
                                          np.arange(2000) % 2 == 1)
        assert predictor.misprediction_rate < 0.1

    def test_random_pattern_near_half(self):
        rng = np.random.default_rng(0)
        predictor = GsharePredictor(history_bits=8)
        predictor.predict_and_update_many(np.full(4000, 100),
                                          rng.random(4000) < 0.5)
        assert 0.35 < predictor.misprediction_rate < 0.6

    def test_idle_rate_zero(self):
        assert GsharePredictor(8).misprediction_rate == 0.0

    def test_invalid_bits_raise(self):
        with pytest.raises(ConfigurationError):
            GsharePredictor(0)


class TestBranchPredictorModel:
    def test_biased_branch_predicts_well(self):
        model = BranchPredictorModel(history_bits=16)
        spec = BranchSpec(executions=1, taken_rate=0.99, transition_rate=0.02)
        assert model.rate_for(spec) < 0.05

    def test_random_branch_predicts_poorly(self):
        model = BranchPredictorModel(history_bits=16)
        spec = BranchSpec(executions=1, taken_rate=0.5, transition_rate=0.5)
        assert model.rate_for(spec) > 0.25

    def test_aliasing_increases_mispredictions(self):
        model = BranchPredictorModel(history_bits=16)
        spec = BranchSpec(executions=1, taken_rate=0.7, transition_rate=0.2)
        clean = model.rate_for(spec, alias_pressure=0.0)
        aliased = model.rate_for(spec, alias_pressure=1.0)
        assert aliased > clean

    def test_rate_memoised(self):
        model = BranchPredictorModel(history_bits=16)
        spec = BranchSpec(executions=1, taken_rate=0.6, transition_rate=0.3)
        assert model.rate_for(spec) == model.rate_for(spec)

    def test_invalid_pressure_raises(self):
        model = BranchPredictorModel(history_bits=16)
        spec = BranchSpec(executions=1, taken_rate=0.6, transition_rate=0.3)
        with pytest.raises(ConfigurationError):
            model.rate_for(spec, alias_pressure=1.5)

    @given(
        taken=st.floats(0.0, 1.0),
        trans=st.floats(0.0, 1.0),
        pressure=st.floats(0.0, 1.0),
    )
    @settings(max_examples=20, deadline=None)
    def test_rate_in_unit_interval(self, taken, trans, pressure):
        model = BranchPredictorModel(history_bits=16)
        spec = BranchSpec(executions=1, taken_rate=taken, transition_rate=trans)
        assert 0.0 <= model.rate_for(spec, alias_pressure=pressure) <= 1.0
