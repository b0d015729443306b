"""Property-based tests on the cloning pipeline's core invariants.

These exercise the mathematical spine of the paper: the Eq. 1/Eq. 2
inversions against explicit cache simulation, the LRU threshold theorem
behind Fig. 4, quantisation grids, and the timing model's monotonicity.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw import BlockSpec, CoreModel, MemAccessSpec, MemPattern, PLATFORM_A
from repro.hw.cache import CacheConfig, generate_access_stream, miss_fraction
from repro.hw.ir import BranchSpec, DependencyProfile
from repro.profiling.wset import (
    invert_data_hits,
    profile_working_sets,
    reuse_distances,
)
from tests._oracles import SetAssociativeCache


class TestLruThresholdTheorem:
    """§4.4.4: a cyclic visit order over W bytes hits iff cache >= W."""

    @given(wset_lines=st.integers(4, 96), cache_lines=st.integers(4, 128),
           pattern=st.sampled_from([MemPattern.SEQUENTIAL,
                                    MemPattern.SHUFFLED,
                                    MemPattern.POINTER_CHASE]))
    @settings(max_examples=30, deadline=None)
    def test_threshold_matches_simulation(self, wset_lines, cache_lines,
                                          pattern):
        spec = MemAccessSpec(wset_bytes=wset_lines * 64, accesses=1,
                             pattern=pattern)
        # Fully-associative LRU cache.
        cache = SetAssociativeCache(
            CacheConfig("fa", cache_lines * 64, cache_lines, 1))
        rng = np.random.default_rng(7)
        stream = generate_access_stream(spec, rng, length=wset_lines * 5)
        cache.access_many(stream[:wset_lines])
        cache.reset_stats()
        cache.access_many(stream[wset_lines:])
        predicted = miss_fraction(spec, cache_lines * 64)
        assert cache.miss_rate == pytest.approx(predicted, abs=1e-9)


class TestMattsonAgainstSimulation:
    @given(lines=st.integers(2, 40), length=st.integers(50, 400),
           seed=st.integers(0, 1000))
    @settings(max_examples=25, deadline=None)
    def test_reuse_distance_hits_equal_lru_hits(self, lines, length, seed):
        rng = np.random.default_rng(seed)
        addresses = (rng.integers(0, lines, size=length) * 64).astype(
            np.int64)
        distances = reuse_distances(addresses)
        for capacity in (2, 4, 8, 16):
            cache = SetAssociativeCache(
                CacheConfig("fa", capacity * 64, capacity, 1))
            sim_hits = sum(cache.access(int(a)) for a in addresses)
            mattson_hits = int(((distances >= 0)
                                & (distances < capacity)).sum())
            assert sim_hits == mattson_hits


class TestEq1Properties:
    @given(wset_lines=st.sampled_from([4, 8, 16, 32, 64]),
           repeats=st.integers(3, 8))
    @settings(max_examples=15, deadline=None)
    def test_pure_loop_inverts_to_one_bin(self, wset_lines, repeats):
        addresses = np.tile(np.arange(wset_lines) * 64, repeats).astype(
            np.int64)
        profile = profile_working_sets(addresses, max_size=1 << 20)
        inverted = invert_data_hits(profile)
        expected_bin = wset_lines * 64
        total = sum(inverted.values())
        assert inverted.get(expected_bin, 0.0) == pytest.approx(total)

    @given(seed=st.integers(0, 200))
    @settings(max_examples=15, deadline=None)
    def test_inversion_conserves_hits(self, seed):
        rng = np.random.default_rng(seed)
        addresses = (rng.integers(0, 128, size=1500) * 64).astype(np.int64)
        profile = profile_working_sets(addresses, max_size=1 << 22)
        inverted = invert_data_hits(profile)
        assert sum(inverted.values()) == pytest.approx(profile.hits[-1])
        assert all(v >= 0 for v in inverted.values())


class TestTimingMonotonicity:
    def _time(self, **kwargs):
        defaults = dict(
            name="b",
            iform_counts={"ADD_r64_r64": 500.0, "MOV_r64_m64": 200.0},
            deps=DependencyProfile(raw={16: 1.0}),
        )
        defaults.update(kwargs)
        block = BlockSpec(**defaults)
        return CoreModel(PLATFORM_A.context()).time_block(block)

    @given(scale=st.floats(1.1, 8.0))
    @settings(max_examples=20, deadline=None)
    def test_more_instructions_more_cycles(self, scale):
        base = self._time()
        bigger = self._time(iform_counts={
            "ADD_r64_r64": 500.0 * scale, "MOV_r64_m64": 200.0 * scale})
        assert bigger.cycles > base.cycles
        assert bigger.instructions > base.instructions

    @given(exp=st.integers(10, 26))
    @settings(max_examples=17, deadline=None)
    def test_cycles_monotone_in_wset(self, exp):
        small = self._time(mem=(MemAccessSpec(wset_bytes=2**exp,
                                              accesses=200.0),))
        big = self._time(mem=(MemAccessSpec(wset_bytes=2**(exp + 1),
                                            accesses=200.0),))
        assert big.cycles >= small.cycles - 1e-6

    @given(rate=st.floats(0.0, 0.5))
    @settings(max_examples=15, deadline=None)
    def test_hostile_branches_never_cheaper(self, rate):
        friendly = self._time(branches=(BranchSpec(
            executions=100, taken_rate=0.98, transition_rate=0.01),))
        hostile = self._time(branches=(BranchSpec(
            executions=100, taken_rate=0.5 + rate * 0.01,
            transition_rate=0.5),))
        assert (hostile.branch_mispredictions
                >= friendly.branch_mispredictions)

    @given(iterations=st.integers(1, 50))
    @settings(max_examples=15, deadline=None)
    def test_iterations_scale_linearly(self, iterations):
        one = self._time(iterations=1.0)
        many = self._time(iterations=float(iterations))
        assert many.cycles == pytest.approx(iterations * one.cycles,
                                            rel=1e-9)

    def test_counters_never_negative(self):
        timing = self._time(
            mem=(MemAccessSpec(wset_bytes=1 << 26, accesses=100.0,
                               pattern=MemPattern.RANDOM, write_frac=0.3,
                               shared_frac=0.4),),
            branches=(BranchSpec(executions=50, taken_rate=0.5,
                                 transition_rate=0.5),),
        )
        for field in ("cycles", "instructions", "uops", "branches",
                      "branch_mispredictions", "l1i_misses", "l1d_misses",
                      "l2_misses", "llc_misses", "memory_bytes"):
            assert getattr(timing, field) >= 0.0, field


class TestGeneratorRealisationProperties:
    """The generated blocks must realise the feature set they were built
    from — checked via hypothesis-driven synthetic feature variations."""

    @given(instr=st.floats(500, 50000), seed=st.integers(0, 50))
    @settings(max_examples=10, deadline=None)
    def test_instruction_target_always_met(self, instr, seed):
        from repro.core.body_gen import GeneratorConfig, build_blocks
        from tests._feature_factory import make_features
        features = make_features(instructions_per_request=instr)
        rng = np.random.default_rng(seed)
        blocks = build_blocks(features, GeneratorConfig(), "op", rng)
        total = sum(b.instructions_per_request for b in blocks)
        assert total == pytest.approx(max(64.0, instr), rel=0.05)

    @given(chase=st.floats(0.0, 0.8))
    @settings(max_examples=10, deadline=None)
    def test_chase_fraction_respected_in_big_bins(self, chase):
        from repro.core.body_gen import GeneratorConfig, build_blocks
        from tests._feature_factory import make_features
        features = make_features(chase_ratio_large=chase)
        rng = np.random.default_rng(1)
        blocks = build_blocks(features, GeneratorConfig(), "op", rng)
        big_total = 0.0
        big_chase = 0.0
        for block in blocks:
            for spec in block.mem:
                if spec.wset_bytes > 512 * 1024:
                    weight = spec.accesses * block.iterations
                    big_total += weight
                    if spec.pattern is MemPattern.POINTER_CHASE:
                        big_chase += weight
        if big_total > 0 and chase > 0.05:
            assert big_chase / big_total == pytest.approx(chase, abs=0.1)
