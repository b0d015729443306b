"""Tests for the profiling toolchain: collector + feature extractors."""

import numpy as np
import pytest

from repro.app.service import Deployment
from repro.app.skeleton import ServerNetworkModel
from repro.app.workloads import build_memcached, build_mongodb
from repro.hw import PLATFORM_A
from repro.loadgen import LoadSpec
from repro.profiling import (
    profile_branches,
    profile_dependencies,
    profile_deployment,
    profile_instruction_mix,
    profile_network_model,
    profile_syscalls,
    profile_thread_model,
    profile_working_sets,
)
from repro.profiling.wset import (
    invert_data_hits,
    invert_instruction_hits,
    profile_working_set_regions,
    regularity_ratio,
    reuse_distances,
    shared_ratio,
)
from repro.runtime import ExperimentConfig
from repro.util.errors import ProfilingError


@pytest.fixture(scope="module")
def memcached_profile():
    deployment = Deployment.single(build_memcached())
    config = ExperimentConfig(platform=PLATFORM_A, duration_s=0.02, seed=5)
    return profile_deployment(deployment, LoadSpec.open_loop(100000), config)


@pytest.fixture(scope="module")
def memcached_artifacts(memcached_profile):
    return memcached_profile.artifacts("memcached")


class TestCollector:
    def test_requests_observed(self, memcached_artifacts):
        assert memcached_artifacts.requests_observed >= 8

    def test_counters_attached(self, memcached_artifacts):
        assert memcached_artifacts.counters is not None
        assert memcached_artifacts.counters.ipc > 0

    def test_handler_mix_observed(self, memcached_artifacts):
        assert set(memcached_artifacts.observed_handler_mix) <= {"get", "set"}
        assert "get" in memcached_artifacts.observed_handler_mix

    def test_unknown_service_rejected(self, memcached_profile):
        with pytest.raises(ProfilingError):
            memcached_profile.artifacts("nope")

    def test_region_traces_collected(self, memcached_artifacts):
        assert memcached_artifacts.data_regions
        assert memcached_artifacts.instr_regions
        for region in memcached_artifacts.data_regions:
            assert region.total_weight > 0
            assert region.line_sample_factor >= 1.0


class TestReuseDistances:
    def test_repeated_line_distance_zero(self):
        addresses = np.array([0, 0, 0], dtype=np.int64)
        distances = reuse_distances(addresses)
        assert list(distances) == [-1, 0, 0]

    def test_cyclic_sequence(self):
        # Two lines alternating: each reuse skips one distinct line.
        addresses = np.array([0, 64, 0, 64], dtype=np.int64)
        distances = reuse_distances(addresses)
        assert list(distances) == [-1, -1, 1, 1]

    def test_sequential_sweep_distance_is_footprint(self):
        lines = 32
        addresses = np.tile(np.arange(lines) * 64, 3).astype(np.int64)
        distances = reuse_distances(addresses)
        revisits = distances[lines:]
        assert (revisits == lines - 1).all()

    def test_matches_explicit_lru_simulation(self):
        # Mattson stack distances must agree with the LRU simulator.
        from repro.hw.cache import CacheConfig
        from tests._oracles import SetAssociativeCache
        rng = np.random.default_rng(0)
        addresses = (rng.integers(0, 64, size=800) * 64).astype(np.int64)
        distances = reuse_distances(addresses)
        for size_lines in (8, 16, 32):
            # Fully-associative LRU of size_lines lines.
            cache = SetAssociativeCache(
                CacheConfig("fa", size_lines * 64, size_lines, 1))
            hits_sim = sum(cache.access(int(a)) for a in addresses)
            hits_mattson = int(((distances >= 0)
                                & (distances < size_lines)).sum())
            assert hits_sim == hits_mattson


class TestWorkingSetInversion:
    def test_eq1_sequential_loop_lands_in_its_bin(self):
        # A loop over 16KB must invert to ~all accesses at the 16KB bin.
        lines = 16 * 1024 // 64
        addresses = np.tile(np.arange(lines) * 64, 6).astype(np.int64)
        profile = profile_working_sets(addresses, max_size=1 << 20)
        inverted = invert_data_hits(profile)
        top_bin = max(inverted, key=inverted.get)
        assert top_bin == 16 * 1024

    def test_eq1_conservation(self):
        rng = np.random.default_rng(1)
        addresses = (rng.integers(0, 512, size=3000) * 64).astype(np.int64)
        profile = profile_working_sets(addresses, max_size=1 << 22)
        inverted = invert_data_hits(profile)
        assert sum(inverted.values()) == pytest.approx(profile.hits[-1])

    def test_eq2_line_grain_multiplier(self):
        lines = 64
        addresses = np.tile(np.arange(lines) * 64, 4).astype(np.int64)
        profile = profile_working_sets(addresses, max_size=1 << 16)
        per_line = invert_instruction_hits(profile, line_grain_hits=True)
        direct = invert_instruction_hits(profile, line_grain_hits=False)
        # The 16x factor applies to every non-smallest bin.
        for size in per_line:
            if size > 64 and size in direct:
                assert per_line[size] == pytest.approx(16 * direct[size])

    def test_monotone_hits(self, memcached_artifacts):
        profile = profile_working_set_regions(memcached_artifacts.data_regions)
        assert all(a <= b + 1e-9 for a, b in zip(profile.hits,
                                                 profile.hits[1:]))

    def test_memcached_store_visible_in_big_bins(self, memcached_artifacts):
        profile = profile_working_set_regions(memcached_artifacts.data_regions)
        inverted = invert_data_hits(profile)
        big = sum(v for k, v in inverted.items() if k >= 1 << 20)
        assert big > 0   # the ~41MB value store shows up

    def test_regularity_detects_sequences(self):
        seq = (np.arange(100) * 64).astype(np.int64)
        rng = np.random.default_rng(2)
        rand = (rng.integers(0, 10000, size=100) * 64).astype(np.int64)
        assert regularity_ratio(seq) > 0.9
        assert regularity_ratio(rand) < 0.3

    def test_shared_ratio(self):
        a = (np.arange(10) * 64).astype(np.int64)
        b = (np.arange(5) * 64).astype(np.int64)
        assert shared_ratio(a, b) == pytest.approx(0.5)


class TestInstructionMix(object):
    def test_mix_sums_to_one(self, memcached_artifacts):
        profile = profile_instruction_mix(memcached_artifacts)
        assert sum(profile.mix.normalized().values()) == pytest.approx(1.0)

    def test_instructions_per_request_close_to_model(self,
                                                     memcached_artifacts):
        profile = profile_instruction_mix(memcached_artifacts)
        # memcached GET ~8.4k user instructions, SET ~9.2k.
        assert 7000 < profile.instructions_per_request < 10000

    def test_branch_fraction_sane(self, memcached_artifacts):
        profile = profile_instruction_mix(memcached_artifacts)
        assert 0.03 < profile.branch_fraction() < 0.3

    def test_clusters_nonempty(self, memcached_artifacts):
        profile = profile_instruction_mix(memcached_artifacts)
        assert profile.clusters
        clustered = {n for cluster in profile.clusters for n in cluster}
        assert clustered == set(
            str(k) for k in profile.mix.counts
        )


class TestBranchProfile:
    def test_distribution_weighted(self, memcached_artifacts):
        profile = profile_branches(memcached_artifacts)
        assert profile.rate_distribution.total > 0
        assert 0.5 < profile.mean_taken_rate <= 1.0

    def test_bins_on_grid(self, memcached_artifacts):
        profile = profile_branches(memcached_artifacts)
        for (m, n, _direction) in profile.rate_distribution.counts:
            assert 1 <= m <= 10 and 1 <= n <= 10

    def test_rates_for_bin_roundtrip(self):
        from repro.profiling.branches import BranchProfile
        taken, transition = BranchProfile.rates_for_bin((5, 4, True))
        assert taken == pytest.approx(1 - 2**-5)
        assert transition == pytest.approx(2**-4)


class TestSyscallAndNetModel:
    def test_templates_per_operation(self, memcached_artifacts):
        profile = profile_syscalls(memcached_artifacts)
        template = profile.template("get")
        names = [entry.name for entry in template]
        assert "recv" in names and "sendmsg" in names
        # recv comes before sendmsg in the reconstructed order.
        assert names.index("recv") < names.index("sendmsg")

    def test_epoll_detected(self, memcached_artifacts):
        profile = profile_network_model(memcached_artifacts)
        assert profile.server_model is ServerNetworkModel.IO_MULTIPLEXING

    def test_blocking_detected_for_mongodb(self):
        deployment = Deployment.single(build_mongodb())
        config = ExperimentConfig(platform=PLATFORM_A, duration_s=0.02,
                                  seed=5, page_cache_bytes=4 * 1024**3)
        profile = profile_deployment(deployment, LoadSpec.closed_loop(4),
                                     config)
        net = profile_network_model(profile.artifacts("mongodb"))
        assert net.server_model is ServerNetworkModel.BLOCKING

    def test_payload_sizes_observed(self, memcached_artifacts):
        profile = profile_network_model(memcached_artifacts)
        assert profile.tx_bytes.mean > 1000   # 4KB values dominate


class TestThreadModel:
    def test_memcached_worker_pool_recovered(self, memcached_artifacts):
        profile = profile_thread_model(memcached_artifacts)
        workers = profile.worker_classes()
        assert workers
        fixed = [cls for cls in workers if not cls.scales_with_connections]
        assert any(cls.count == 4 for cls in fixed)

    def test_mongodb_scaling_workers_recovered(self):
        deployment = Deployment.single(build_mongodb())
        config = ExperimentConfig(platform=PLATFORM_A, duration_s=0.02,
                                  seed=5, page_cache_bytes=4 * 1024**3)
        profile = profile_deployment(deployment, LoadSpec.closed_loop(16),
                                     config)
        threads = profile_thread_model(profile.artifacts("mongodb"))
        assert any(cls.scales_with_connections
                   for cls in threads.worker_classes())

    def test_roles_cover_acceptor_and_background(self, memcached_artifacts):
        profile = profile_thread_model(memcached_artifacts)
        roles = {cls.role for cls in profile.classes}
        assert "acceptor" in roles
        assert "background" in roles


class TestDependencies:
    def test_bins_on_grid(self, memcached_artifacts):
        profile = profile_dependencies(memcached_artifacts)
        from repro.hw.ir import DEP_DISTANCE_BINS
        for edge in profile.raw:
            assert edge in DEP_DISTANCE_BINS

    def test_chase_fraction_in_range(self, memcached_artifacts):
        profile = profile_dependencies(memcached_artifacts)
        assert 0.0 <= profile.pointer_chase_frac <= 1.0
        # memcached's lookup block chases ~25% of the time, diluted by
        # the other blocks.
        assert profile.pointer_chase_frac > 0.02
