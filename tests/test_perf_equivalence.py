"""Bit-identity proofs for the simulation fast paths.

The perf work (vectorized stack-distance/branch models, the slotted DES
engine, cached histogram samplers) is only admissible because it changes
*no* observable result. These tests pin that down two ways:

* property tests — the batch/vectorized implementations must agree
  element-for-element (and state-for-state) with their scalar reference
  counterparts across access patterns and random configurations;
* digest-equivalence tests — full experiment runs must reproduce the
  exact result digests captured on the pre-optimization engine, so any
  future "optimization" that perturbs event order, RNG consumption or
  float summation order fails loudly.
"""

import numpy as np

from repro.hw.branch import GsharePredictor, generate_branch_outcomes
from repro.hw.stackdist import stack_distances
from repro.profiling.wset import reuse_distances
from repro.util.stats import Histogram
from tests._oracles import (
    generate_branch_outcomes_reference,
    predict_and_update,
    reuse_distances_reference,
)


# --------------------------------------------------------------------- #
# stack distances
# --------------------------------------------------------------------- #
class TestStackDistances:
    def test_matches_reference_on_random_streams(self):
        rng = np.random.default_rng(42)
        for trial in range(25):
            n = int(rng.integers(1, 400))
            lines = rng.integers(0, max(2, n // 2), size=n)
            np.testing.assert_array_equal(
                stack_distances(lines),
                reuse_distances_reference(lines * 64))

    def test_reuse_distances_wrapper_agrees(self):
        rng = np.random.default_rng(7)
        addresses = rng.integers(0, 4096, size=1000) * 8
        np.testing.assert_array_equal(
            reuse_distances(addresses),
            reuse_distances_reference(addresses))

    def test_first_touches_are_minus_one(self):
        distances = stack_distances(np.array([5, 9, 5, 9, 5]))
        np.testing.assert_array_equal(distances, [-1, -1, 1, 1, 1])


# --------------------------------------------------------------------- #
# branch model: vectorized vs scalar
# --------------------------------------------------------------------- #
class TestBranchEquivalence:
    def test_outcome_generation_matches_reference(self):
        rng = np.random.default_rng(5)
        for trial in range(30):
            taken = float(rng.uniform(0.0, 1.0))
            transition = float(rng.uniform(0.0, 1.0))
            length = int(rng.integers(1, 300))
            seed = int(rng.integers(0, 2**31))
            fast = generate_branch_outcomes(
                taken, transition, length, np.random.default_rng(seed))
            slow = generate_branch_outcomes_reference(
                taken, transition, length, np.random.default_rng(seed))
            np.testing.assert_array_equal(fast, slow)

    def test_outcome_generation_consumes_same_rng_stream(self):
        fast_rng = np.random.default_rng(99)
        slow_rng = np.random.default_rng(99)
        generate_branch_outcomes(0.6, 0.3, 257, fast_rng)
        generate_branch_outcomes_reference(0.6, 0.3, 257, slow_rng)
        assert fast_rng.bit_generator.state == slow_rng.bit_generator.state

    def test_predictor_batch_matches_scalar(self):
        rng = np.random.default_rng(17)
        for trial in range(15):
            history_bits = int(rng.integers(1, 14))
            batch_pred = GsharePredictor(history_bits, table_bits=10)
            scalar_pred = GsharePredictor(history_bits, table_bits=10)
            for _ in range(3):
                n = int(rng.integers(1, 200))
                pcs = rng.integers(0, 1 << 20, size=n)
                takens = rng.random(n) < 0.7
                batch_correct = batch_pred.predict_and_update_many(pcs, takens)
                scalar_correct = np.array([
                    predict_and_update(scalar_pred, int(pc), bool(t))
                    for pc, t in zip(pcs, takens)])
                np.testing.assert_array_equal(batch_correct, scalar_correct)
            assert batch_pred._history == scalar_pred._history
            assert batch_pred.predictions == scalar_pred.predictions
            assert batch_pred.mispredictions == scalar_pred.mispredictions
            np.testing.assert_array_equal(batch_pred._table,
                                          scalar_pred._table)


# --------------------------------------------------------------------- #
# histogram sampling: cached CDF vs rng.choice
# --------------------------------------------------------------------- #
class TestHistogramSamplerEquivalence:
    def test_sample_matches_choice_stream(self):
        hist = Histogram({"get": 7.0, "set": 2.0, "del": 1.0})
        keys, probs = hist.keys_and_probs()
        cached = hist.sample(np.random.default_rng(123), size=64)
        reference_rng = np.random.default_rng(123)
        reference = [keys[reference_rng.choice(len(keys), p=probs)]
                     for _ in range(64)]
        assert cached == reference

    def test_add_invalidates_cached_sampler(self):
        hist = Histogram({"a": 1.0})
        assert hist.sample(np.random.default_rng(1), 4) == ["a"] * 4
        hist.add("b", 1e9)
        assert "b" in hist.sample(np.random.default_rng(1), 8)


# --------------------------------------------------------------------- #
# digest equivalence with the pre-optimization engine
# --------------------------------------------------------------------- #
# Reference digests captured from full experiment runs on the commit
# immediately before the perf PR (scalar cache/branch models, the
# proxy-event engine). The optimized stack must reproduce them bit for
# bit: event order, RNG stream consumption and float summation order are
# all load-bearing.
REFERENCE_DIGESTS = {
    "memcached_fault_free":
        "57267ad03685dd8c97418567725cc4c4b580bb373beb2de64c6a0a70f728169c",
    # Re-pinned when the any_of timeout race was fixed: the old values
    # captured every timed RPC losing instantly to its own deadline
    # (error rate 100%), so this resilience-enabled run legitimately
    # changed. The fault-free runs above/below were (and must stay)
    # untouched by that fix.
    "gateway_faulted":
        "6118a0dc9f24130a4c5595d782131aa488389290d18e6c7502c7dd6e78464368",
    "gateway_fault_timeline":
        "405ea31291dd15f022a460fffab9419812f64d81b88d09899684a834b3c58f27",
    "memcached_clone_probe":
        "1012d89ce423a37913c832830d25e077bddca290f388a66b841b6f120e92d018",
    # Multi-node social network (14 services round-robin on three
    # nodes): the only pinned runs whose RPCs cross nodes.
    "socialnet_three_node_open":
        "3cde58baa5c44565f2686d38872d09f2bbfcdebd4eb793e5f27529ab35878c0e",
    "socialnet_three_node_closed":
        "cd9be6e538ec79a74087d61eedd668b30a07c2be85c3de43eb19c271c92ee7c4",
}


def _result_digest(result):
    from repro.util.spec_hash import stable_digest

    parts = [
        {name: m.snapshot() for name, m in sorted(result.services.items())},
        tuple(result.latency.samples),
        result.outcome_counts(),
        sorted(result.node_utilisation.items()),
        sorted(result.disk_utilisation.items()),
    ]
    if result.faults is not None:
        parts.append(result.faults.digest())
    return stable_digest(*parts)


class TestDigestEquivalence:
    def test_memcached_fault_free_digest_unchanged(self):
        from repro.app.service import Deployment
        from repro.app.workloads import build_memcached
        from repro.hw import PLATFORM_A
        from repro.loadgen import LoadSpec
        from repro.runtime import ExperimentConfig, run_experiment

        result = run_experiment(
            Deployment.single(build_memcached()),
            LoadSpec.open_loop(50_000),
            ExperimentConfig(platform=PLATFORM_A, duration_s=0.01, seed=7))
        assert _result_digest(result) == \
            REFERENCE_DIGESTS["memcached_fault_free"]

    def test_faulted_gateway_digests_unchanged(self):
        from repro.app.workloads.asyncgw import async_gateway_deployment
        from repro.faults import (FaultPlan, FaultWindow, LatencySpikeFault,
                                  NodeCrashFault, PacketLossFault)
        from repro.hw import PLATFORM_A
        from repro.loadgen import LoadSpec
        from repro.runtime import (ExperimentConfig, ResilienceConfig,
                                   run_experiment)

        plan = FaultPlan((
            PacketLossFault(rate=0.2, retransmit_delay_s=100e-6),
            LatencySpikeFault(extra_s=50e-6, probability=0.5,
                              window=FaultWindow(0.002, 0.006)),
            NodeCrashFault(node="node0", at_s=0.006, downtime_s=0.002),
        ))
        config = ExperimentConfig(
            platform=PLATFORM_A, duration_s=0.01, seed=7, fault_plan=plan,
            resilience=ResilienceConfig(rpc_timeout_s=2e-3,
                                        max_queue_depth=64))
        result = run_experiment(async_gateway_deployment(),
                                LoadSpec.open_loop(2_000), config)
        assert _result_digest(result) == REFERENCE_DIGESTS["gateway_faulted"]
        assert result.faults.digest() == \
            REFERENCE_DIGESTS["gateway_fault_timeline"]

    def test_clone_probe_digest_unchanged(self):
        from repro import (CloneRequest, Deployment, DittoCloner,
                           ExperimentConfig, LoadSpec, build_memcached)
        from repro.hw import PLATFORM_A
        from repro.loadgen import LoadSpec
        from repro.profiling import ProfilingBudget
        from repro.runtime import ExperimentConfig, run_experiment

        cloner = DittoCloner(
            fine_tune_tiers=True, max_tune_iterations=3,
            budget=ProfilingBudget(sampled_requests=8,
                                   profile_duration_s=0.015),
            executor="serial")
        clone = cloner.clone(CloneRequest(
            deployment=Deployment.single(build_memcached()),
            load=LoadSpec.open_loop(100_000),
            config=ExperimentConfig(platform=PLATFORM_A, duration_s=0.02,
                                    seed=5)))
        probe = run_experiment(
            clone.synthetic, LoadSpec.open_loop(50_000),
            ExperimentConfig(platform=PLATFORM_A, duration_s=0.01, seed=7))
        assert _result_digest(probe) == \
            REFERENCE_DIGESTS["memcached_clone_probe"]

    @staticmethod
    def _socialnet_three_node_digest(load):
        from repro import (ExperimentConfig, PLATFORM_A,
                           build_social_network, social_network_deployment)
        from repro.runtime import run_experiment

        names = list(build_social_network())
        placement = {name: f"node{i % 3}" for i, name in enumerate(names)}
        result = run_experiment(
            social_network_deployment(placement=placement), load,
            ExperimentConfig(platform=PLATFORM_A, duration_s=0.02, seed=11))
        return _result_digest(result)

    def test_socialnet_three_node_open_loop_digest_unchanged(self):
        from repro.loadgen import LoadSpec

        assert self._socialnet_three_node_digest(
            LoadSpec.open_loop(25_000)) == \
            REFERENCE_DIGESTS["socialnet_three_node_open"]

    def test_socialnet_three_node_closed_loop_digest_unchanged(self):
        from repro.loadgen import LoadSpec

        assert self._socialnet_three_node_digest(
            LoadSpec.closed_loop(8, think_time_s=1e-4)) == \
            REFERENCE_DIGESTS["socialnet_three_node_closed"]
