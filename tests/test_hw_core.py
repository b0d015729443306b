"""Unit tests for the analytical core model and top-down accounting."""

from dataclasses import astuple

import pytest

from repro.hw import (
    PLATFORM_A,
    PLATFORM_B,
    BlockSpec,
    BranchSpec,
    CoreModel,
    DependencyProfile,
    MemAccessSpec,
    MemPattern,
    TopDownBreakdown,
)
from repro.hw.core import BlockTerms
from repro.util.errors import ConfigurationError


def _ctx(**overrides):
    return PLATFORM_A.context(**overrides)


def _alu_block(n=1000, **kwargs):
    return BlockSpec(
        name="alu",
        iform_counts={"ADD_r64_r64": n * 0.6, "XOR_r64_r64": n * 0.2,
                      "MOV_r64_r64": n * 0.2},
        deps=DependencyProfile(raw={64: 1.0}),
        **kwargs,
    )


class TestComputeBound:
    def test_alu_block_ipc_near_width(self):
        # Independent single-uop ALU ops should approach issue width.
        timing = CoreModel(_ctx()).time_block(_alu_block())
        assert 2.5 <= timing.ipc <= 4.0

    def test_dependency_chain_lowers_ipc(self):
        parallel = _alu_block()
        serial = BlockSpec(
            name="serial",
            iform_counts=dict(parallel.iform_counts),
            deps=DependencyProfile(raw={1: 1.0}),
        )
        ipc_parallel = CoreModel(_ctx()).time_block(parallel).ipc
        ipc_serial = CoreModel(_ctx()).time_block(serial).ipc
        assert ipc_serial < ipc_parallel

    def test_divides_are_slow(self):
        divs = BlockSpec(name="div", iform_counts={"DIV_r64": 100},
                         deps=DependencyProfile(raw={64: 1.0}))
        timing = CoreModel(_ctx()).time_block(divs)
        assert timing.ipc < 0.1

    def test_port_pressure_crc_slower_than_add(self):
        # 1000 CRC32s serialise on the single MUL port; adds spread over 4.
        crc = BlockSpec(name="crc", iform_counts={"CRC32_r64_r64": 1000},
                        deps=DependencyProfile(raw={64: 1.0}))
        add = BlockSpec(name="add", iform_counts={"ADD_r64_r64": 1000},
                        deps=DependencyProfile(raw={64: 1.0}))
        core = CoreModel(_ctx())
        assert core.time_block(crc).cycles > core.time_block(add).cycles

    def test_smt_contention_slows_port_bound_block(self):
        block = _alu_block()
        alone = CoreModel(_ctx()).time_block(block)
        shared = CoreModel(_ctx(smt_contention=2.0)).time_block(block)
        assert shared.cycles > alone.cycles

    def test_iterations_scale_linearly(self):
        one = CoreModel(_ctx()).time_block(_alu_block(iterations=1.0))
        ten = CoreModel(_ctx()).time_block(_alu_block(iterations=10.0))
        assert ten.cycles == pytest.approx(10 * one.cycles)
        assert ten.instructions == pytest.approx(10 * one.instructions)


class TestMemoryBound:
    def _mem_block(self, wset, pattern=MemPattern.SEQUENTIAL, chase=0.0):
        return BlockSpec(
            name="mem",
            iform_counts={"MOV_r64_m64": 500, "ADD_r64_r64": 500},
            mem=(MemAccessSpec(wset_bytes=wset, accesses=500, pattern=pattern),),
            deps=DependencyProfile(raw={64: 1.0}, pointer_chase_frac=chase),
        )

    def test_bigger_wset_slower(self):
        core = CoreModel(_ctx())
        small = core.time_block(self._mem_block(16 * 1024))
        large = core.time_block(self._mem_block(64 * 1024 * 1024))
        assert large.cycles > small.cycles
        assert large.llc_misses > small.llc_misses

    def test_l1_resident_has_no_l1d_misses(self):
        timing = CoreModel(_ctx()).time_block(self._mem_block(8 * 1024))
        assert timing.l1d_misses == 0.0
        assert timing.l1d_accesses == 500.0

    def test_l2_resident_misses_l1_only(self):
        timing = CoreModel(_ctx()).time_block(self._mem_block(256 * 1024))
        assert timing.l1d_misses == pytest.approx(500.0)
        assert timing.l2_misses == 0.0

    def test_pointer_chasing_hurts(self):
        core = CoreModel(_ctx())
        parallel = core.time_block(
            self._mem_block(64 * 1024 * 1024, MemPattern.RANDOM, chase=0.0))
        chased = core.time_block(
            self._mem_block(64 * 1024 * 1024, MemPattern.POINTER_CHASE,
                            chase=1.0))
        assert chased.cycles > parallel.cycles

    def test_prefetcher_helps_sequential(self):
        seq = self._mem_block(64 * 1024 * 1024, MemPattern.SEQUENTIAL)
        rand = self._mem_block(64 * 1024 * 1024, MemPattern.RANDOM)
        core = CoreModel(_ctx())
        assert core.time_block(seq).cycles < core.time_block(rand).cycles

    def test_coherence_misses_with_shared_writes(self):
        shared = BlockSpec(
            name="shared",
            iform_counts={"MOV_m64_r64": 100},
            mem=(MemAccessSpec(wset_bytes=4096, accesses=100, write_frac=0.5,
                               shared_frac=0.5),),
        )
        solo = CoreModel(_ctx(active_threads=1)).time_block(shared)
        multi = CoreModel(_ctx(active_threads=4)).time_block(shared)
        assert multi.l1d_misses > solo.l1d_misses

    def test_memory_bytes_counted(self):
        timing = CoreModel(_ctx()).time_block(
            self._mem_block(64 * 1024 * 1024))
        assert timing.memory_bytes > 0


class TestFrontend:
    def test_large_code_footprint_stalls_frontend(self):
        small = BlockSpec(name="s", iform_counts={"ADD_r64_r64": 1000},
                          code_bytes=1024)
        # Reuse distance far beyond L1i: every visit re-misses.
        big = BlockSpec(name="b", iform_counts={"ADD_r64_r64": 1000},
                        code_bytes=256 * 1024)
        core = CoreModel(_ctx(code_reuse_bytes=512 * 1024))
        t_small = core.time_block(small)
        t_big = core.time_block(big)
        assert t_big.l1i_misses > t_small.l1i_misses
        assert t_big.cycles > t_small.cycles

    def test_hot_loop_amortises_imisses(self):
        # A loop body that fits L1i pays the refill once per visit; a
        # single-pass block with the same footprint pays it every time.
        block = BlockSpec(name="loop", iform_counts={"ADD_r64_r64": 1500},
                          code_bytes=4 * 1024, iterations=100)
        once = BlockSpec(name="once", iform_counts={"ADD_r64_r64": 1500},
                         code_bytes=4 * 1024, iterations=1)
        core = CoreModel(_ctx(code_reuse_bytes=512 * 1024))
        per_iter_loop = core.time_block(block).l1i_misses / 100
        per_iter_once = core.time_block(once).l1i_misses
        assert per_iter_loop < per_iter_once

    def test_oversized_loop_body_cannot_amortise(self):
        # A 64KB loop body thrashes a 32KB L1i on every pass.
        block = BlockSpec(name="bigloop", iform_counts={"ADD_r64_r64": 100},
                          code_bytes=64 * 1024, iterations=100)
        core = CoreModel(_ctx(code_reuse_bytes=512 * 1024))
        timing = core.time_block(block)
        assert timing.l1i_misses / 100 >= 6.0


class TestBranches:
    def test_mispredictions_counted(self):
        block = BlockSpec(
            name="br",
            iform_counts={"JNZ_rel": 200, "CMP_r64_imm": 200},
            branches=(BranchSpec(executions=200, taken_rate=0.5,
                                 transition_rate=0.5),),
        )
        timing = CoreModel(_ctx()).time_block(block)
        assert timing.branches == 200
        assert timing.branch_mispredictions > 20

    def test_biased_branches_cheap(self):
        def block(taken, trans):
            return BlockSpec(
                name="br",
                iform_counts={"JNZ_rel": 200, "CMP_r64_imm": 200},
                branches=(BranchSpec(executions=200, taken_rate=taken,
                                     transition_rate=trans),),
            )
        core = CoreModel(_ctx())
        predictable = core.time_block(block(0.99, 0.01))
        random = core.time_block(block(0.5, 0.5))
        assert predictable.branch_mispredictions < random.branch_mispredictions
        assert predictable.cycles < random.cycles


class TestTopDown:
    def test_slots_nonnegative_and_sum(self):
        block = BlockSpec(
            name="mixed",
            iform_counts={"ADD_r64_r64": 500, "MOV_r64_m64": 200,
                          "JNZ_rel": 100},
            mem=(MemAccessSpec(wset_bytes=4 * 1024 * 1024, accesses=200,
                               pattern=MemPattern.RANDOM),),
            branches=(BranchSpec(executions=100, taken_rate=0.5,
                                 transition_rate=0.4),),
        )
        timing = CoreModel(_ctx()).time_block(block)
        td = timing.topdown
        buckets = (td.retiring, td.frontend, td.bad_speculation, td.backend)
        assert all(v >= 0 for v in buckets)
        width = PLATFORM_A.uarch.issue_width
        assert td.total_slots == pytest.approx(timing.cycles * width)

    def test_memory_block_is_backend_bound(self):
        block = BlockSpec(
            name="membound",
            iform_counts={"MOV_r64_m64": 1000},
            mem=(MemAccessSpec(wset_bytes=256 * 1024 * 1024, accesses=1000,
                               pattern=MemPattern.POINTER_CHASE),),
            deps=DependencyProfile(pointer_chase_frac=1.0),
        )
        timing = CoreModel(_ctx()).time_block(block)
        td = timing.topdown
        assert td.backend / td.total_slots > 0.6

    def test_cpi_contributions_sum_to_cpi(self):
        block = _alu_block()
        timing = CoreModel(_ctx()).time_block(block)
        contributions = timing.topdown.cpi_contributions(
            timing.instructions, PLATFORM_A.uarch.issue_width)
        cpi = timing.cycles / timing.instructions
        assert sum(contributions.values()) == pytest.approx(cpi)


class TestTopDownBreakdown:
    def test_negative_slots_rejected(self):
        with pytest.raises(ConfigurationError):
            TopDownBreakdown(-1, 0, 0, 0)


class TestCrossPlatform:
    def test_haswell_ipc_lower_for_branchy_code(self):
        # Platform B (Haswell) has one taken-branch port and shallower
        # prediction: branch-heavy blocks retire slower.
        block = BlockSpec(
            name="branchy",
            iform_counts={"JNZ_rel": 500, "CMP_r64_imm": 500},
            branches=(BranchSpec(executions=500, taken_rate=0.5,
                                 transition_rate=0.5),),
        )
        ipc_a = CoreModel(PLATFORM_A.context()).time_block(block).ipc
        ipc_b = CoreModel(PLATFORM_B.context()).time_block(block).ipc
        assert ipc_b < ipc_a

    def test_smaller_l2_more_misses_on_b(self):
        # 512KB working set fits platform A's 1MB L2, not B's 256KB.
        block = BlockSpec(
            name="l2sized",
            iform_counts={"MOV_r64_m64": 500},
            mem=(MemAccessSpec(wset_bytes=512 * 1024, accesses=500),),
        )
        t_a = CoreModel(PLATFORM_A.context()).time_block(block)
        t_b = CoreModel(PLATFORM_B.context()).time_block(block)
        assert t_a.l2_misses == 0.0
        assert t_b.l2_misses > 0.0


def _workload_blocks():
    """Every block the socialnet and single-tier runs price.

    User blocks of the five programs, the kernel block of every syscall
    their handlers make and of the per-RPC send/register/receive calls,
    and the context-switch block.
    """
    from repro.app.workloads import (build_memcached, build_mongodb,
                                     build_nginx, build_redis)
    from repro.app.workloads.socialnet import build_social_network
    from repro.kernelsim.syscalls import (SyscallInvocation,
                                          context_switch_block,
                                          kernel_block_for)

    specs = list(build_social_network().values()) + [
        build_memcached(), build_nginx(), build_redis(), build_mongodb()]
    blocks, kernel = [], {}
    for spec in specs:
        blocks.extend(spec.program.all_blocks())
        for handler in spec.program.handlers.values():
            invocations = list(handler.syscalls)
            for rpc in handler.rpcs:
                invocations += [
                    SyscallInvocation("sendmsg", nbytes=rpc.request_bytes),
                    SyscallInvocation("epoll_ctl"),
                    SyscallInvocation("recv", nbytes=rpc.response_bytes)]
            for invocation in invocations:
                kernel.setdefault(
                    (invocation.name, invocation.nbytes, invocation.write),
                    kernel_block_for(invocation))
    return blocks + list(kernel.values()) + [context_switch_block()]


def _pricing_keys():
    """Warm and cold keys at SMT contention 1.0 and 2.0."""
    from repro.runtime import PricingKey

    for cold in (False, True):
        for smt in (1.0, 2.0):
            yield PricingKey.build(
                cold=cold, concurrency=3 if cold else 1, smt_contention=smt,
                cache_factors=((1.0, 0.9, 0.7, 0.45) if cold
                               else (1.0, 1.0, 1.0, 1.0)),
                code_reuse_bytes=(2 << 20) if cold else 96 << 10,
                static_branch_sites=1500)


def _timing_row(timing):
    """Every float of a BlockTiming, top-down buckets last."""
    *counters, topdown = astuple(timing)
    return [*counters, *topdown]


class TestMemoisedBlockTerms:
    """BlockPricer computes BlockTerms once per block and reuses them."""

    #: sha256 over float.hex of every field of every (platform, key,
    #: block) pricing below, taken with the model that recomputed every
    #: term on every call: memoising the terms must not move one bit.
    PRICING_TABLE_DIGEST = (
        "16c0217daa401e710e9deedfcf5ef748281534972519a8e5b8251dc21fe7af26")

    def _table(self):
        from repro.hw import PLATFORM_C
        from repro.runtime import BlockPricer

        blocks = _workload_blocks()
        for platform in (PLATFORM_A, PLATFORM_B, PLATFORM_C):
            pricer = BlockPricer(platform)
            for key in _pricing_keys():
                for block in blocks:
                    yield pricer, key, block

    def test_memoised_terms_equal_a_fresh_core_model(self):
        checked = 0
        for pricer, key, block in self._table():
            fresh = CoreModel(pricer.context_for(key)).time_block(block)
            assert pricer.price(block, key) == fresh, block.name
            checked += 1
        # 119 blocks x 3 platforms x 4 keys, the first key of each
        # platform computing the terms the other three reuse
        assert checked == 1428

    def test_pricing_table_pinned(self):
        import hashlib

        digest = hashlib.sha256()
        for pricer, key, block in self._table():
            timing = CoreModel(pricer.context_for(key)).time_block(block)
            digest.update(" ".join(
                float(value).hex() for value in _timing_row(timing)).encode())
        assert digest.hexdigest() == self.PRICING_TABLE_DIGEST

    def test_terms_are_key_independent(self):
        block = _alu_block(mem=(MemAccessSpec(wset_bytes=1 << 20,
                                              accesses=100.0),))
        terms = BlockTerms(block, PLATFORM_A.uarch)
        for smt in (1.0, 1.5, 2.0):
            ctx = _ctx(smt_contention=smt)
            assert (CoreModel(ctx).time_block(block, terms)
                    == CoreModel(ctx).time_block(block))
