"""Unit tests for filesystem, network, scheduler and node devices."""

import pytest

from repro.hw import PLATFORM_A, PLATFORM_B, PLATFORM_C
from repro.faults import FaultInjector, FaultPlan, NodeCrashFault
from repro.kernelsim import (
    ContextSwitchModel,
    CpuDevice,
    FileSystem,
    NicDevice,
    Node,
    PageCache,
)
from repro.kernelsim.filesystem import FileSpec
from repro.sim import Environment
from repro.util.errors import ConfigurationError, FaultInjectionError


class TestPageCache:
    def test_cold_read_misses_everything(self):
        cache = PageCache(capacity_bytes=1e9)
        file = FileSpec("db", 1e8)
        assert cache.read(file, 4096) == 4096

    def test_fully_resident_file_hits(self):
        cache = PageCache(capacity_bytes=1e9)
        file = FileSpec("db", 1e6)
        cache.write(file, 1e6)  # populate fully
        assert cache.read(file, 4096) == 0.0

    def test_partial_residency_partial_miss(self):
        cache = PageCache(capacity_bytes=1e9)
        file = FileSpec("db", 1e6)
        cache.write(file, 5e5)  # half resident
        assert cache.read(file, 1000) == pytest.approx(500.0)

    def test_capacity_bounds_residency(self):
        cache = PageCache(capacity_bytes=1e6)
        file = FileSpec("db", 1e8)
        cache.write(file, 5e7)
        assert cache.used_bytes <= 1e6 + 1e-6

    def test_eviction_is_proportional(self):
        cache = PageCache(capacity_bytes=1000)
        f1, f2 = FileSpec("a", 1e6), FileSpec("b", 1e6)
        cache.write(f1, 600)
        cache.write(f2, 600)
        assert cache.used_bytes == pytest.approx(1000)
        assert cache.resident_fraction(f1) > 0
        assert cache.resident_fraction(f2) > 0

    def test_zero_capacity_never_hits(self):
        cache = PageCache(capacity_bytes=0)
        file = FileSpec("db", 1e6)
        cache.write(file, 1e6)
        assert cache.read(file, 100) == 100

    def test_counters(self):
        cache = PageCache(capacity_bytes=1e9)
        file = FileSpec("db", 1e6)
        cache.write(file, 1e6)
        cache.read(file, 500)
        assert cache.hit_bytes == 500
        assert cache.miss_bytes == 0


class TestFileSystem:
    def test_create_and_read(self):
        fs = FileSystem(PageCache(1e9))
        fs.create("data.db", 1e6)
        assert fs.read("data.db", 100) == 100  # cold

    def test_create_idempotent(self):
        fs = FileSystem(PageCache(1e9))
        fs.create("x", 100)
        fs.create("x", 100)

    def test_size_conflict_rejected(self):
        fs = FileSystem(PageCache(1e9))
        fs.create("x", 100)
        with pytest.raises(ConfigurationError):
            fs.create("x", 200)

    def test_missing_file_rejected(self):
        fs = FileSystem(PageCache(1e9))
        with pytest.raises(ConfigurationError):
            fs.read("nope", 1)


def _run(env, body):
    """Run ``body`` as a process; returns the sim time it finished at."""
    done = {}

    def proc():
        yield from body()
        done["t"] = env.now

    env.process(proc())
    env.run()
    return done["t"]


def _crash(env, at_s):
    """Attach an injector that takes ``node0`` down at ``at_s`` for 1 s."""
    plan = FaultPlan((NodeCrashFault(node="node0", at_s=at_s,
                                     downtime_s=1.0),))
    return FaultInjector(plan, seed=0).attach(env)


def _occupy(env, start_op):
    """Start an op now, in a process of its own."""
    def proc():
        yield start_op()

    env.process(proc())


def _doomed(env, at_s, start_op, errors):
    """At ``at_s``, start an op and record the error it fails with."""
    def proc():
        yield env.timeout(at_s)
        try:
            yield start_op()
        except FaultInjectionError as error:
            errors.append((env.now, error.kind))

    env.process(proc())


class TestNic:
    def test_transmit_time_matches_bandwidth(self):
        env = Environment()
        nic = NicDevice(env, PLATFORM_B.network)  # 1 GbE = 125 MB/s

        def body():
            yield nic.transmit_op(125_000_000)

        assert _run(env, body) == pytest.approx(1.0, rel=0.01)
        assert nic.tx_bytes == 125_000_000

    def test_bandwidth_share_slows_transmit(self):
        env = Environment()
        nic = NicDevice(env, PLATFORM_B.network, bandwidth_share=0.5)

        def body():
            yield nic.transmit_op(125_000_000)

        assert _run(env, body) == pytest.approx(2.0, rel=0.01)

    def test_sends_serialise_on_the_wire(self):
        env = Environment()
        nic = NicDevice(env, PLATFORM_B.network)
        finish = []

        def proc():
            yield nic.transmit_op(62_500_000)
            finish.append(env.now)

        env.process(proc())
        env.process(proc())
        env.run()
        assert finish == [pytest.approx(0.5), pytest.approx(1.0)]
        assert nic.tx_bytes == 125_000_000

    def test_negative_size_fails_the_completion(self):
        env = Environment()
        nic = NicDevice(env, PLATFORM_B.network)

        def body():
            with pytest.raises(ConfigurationError):
                yield nic.transmit_op(-1)

        _run(env, body)
        assert nic._wire.in_use == 0

    def test_crashed_node_fails_send_and_frees_wire(self):
        env = Environment()
        nic = NicDevice(env, PLATFORM_B.network, name="node0-nic")
        _crash(env, at_s=0.5)
        errors = []
        _occupy(env, lambda: nic.transmit_op(125_000_000))
        _doomed(env, 0.6, lambda: nic.transmit_op(1000), errors)
        env.run()
        assert errors == [(pytest.approx(0.6), "node_down")]
        assert nic._wire.in_use == 0
        assert nic.tx_bytes == 125_000_000


class TestCpuDevice:
    def test_execute_holds_core_for_cycles(self):
        env = Environment()
        cpu = CpuDevice(env, cores=1, frequency_hz=1e9)

        def body():
            yield cpu.execute_op(cycles=2e9)

        assert _run(env, body) == pytest.approx(2.0)
        assert cpu.busy_seconds == pytest.approx(2.0)

    def test_queueing_beyond_cores(self):
        env = Environment()
        cpu = CpuDevice(env, cores=1, frequency_hz=1e9)
        finish = []

        def proc():
            yield cpu.execute_op(cycles=1e9)
            finish.append(env.now)

        env.process(proc())
        env.process(proc())
        env.run()
        assert finish == [pytest.approx(1.0), pytest.approx(2.0)]

    def test_context_switch_adds_cycles(self):
        env = Environment()
        cpu = CpuDevice(env, cores=1, frequency_hz=2.1e9)
        switch = ContextSwitchModel(PLATFORM_A.context())

        def body():
            yield cpu.execute_op(cycles=0, switch=switch)

        assert _run(env, body) > 0
        assert cpu.context_switches == 1

    def test_utilisation(self):
        env = Environment()
        cpu = CpuDevice(env, cores=2, frequency_hz=1e9)

        def body():
            yield cpu.execute_op(cycles=1e9)

        _run(env, body)
        assert cpu.utilisation(elapsed_seconds=1.0) == pytest.approx(0.5)

    def test_negative_cycles_fail_the_completion(self):
        env = Environment()
        cpu = CpuDevice(env, cores=1, frequency_hz=1e9)

        def body():
            with pytest.raises(ConfigurationError):
                yield cpu.execute_op(cycles=-1)

        _run(env, body)
        assert cpu.in_use == 0

    def test_crashed_node_fails_execute_and_frees_pool(self):
        env = Environment()
        cpu = CpuDevice(env, cores=1, frequency_hz=1e9, name="node0-cpu")
        _crash(env, at_s=0.5)
        errors = []
        _occupy(env, lambda: cpu.execute_op(cycles=1e9))
        _doomed(env, 0.6, lambda: cpu.execute_op(cycles=1e9), errors)
        env.run()
        assert errors == [(pytest.approx(0.6), "node_down")]
        assert cpu.in_use == 0
        assert cpu.queue_length == 0
        assert cpu.busy_seconds == pytest.approx(1.0)

    def test_invalid_construction(self):
        env = Environment()
        with pytest.raises(ConfigurationError):
            CpuDevice(env, cores=0, frequency_hz=1e9)
        with pytest.raises(ConfigurationError):
            CpuDevice(env, cores=1, frequency_hz=0)


class TestNode:
    def test_defaults_from_platform(self):
        env = Environment()
        node = Node(env, PLATFORM_A)
        assert node.cores == PLATFORM_A.total_cores
        assert node.frequency_ghz == PLATFORM_A.base_frequency_ghz

    def test_core_and_frequency_overrides(self):
        env = Environment()
        node = Node(env, PLATFORM_A, cores=8, frequency_ghz=1.5)
        assert node.cores == 8
        assert node.seconds_for_cycles(1.5e9) == pytest.approx(1.0)

    def test_core_overcommit_rejected(self):
        env = Environment()
        with pytest.raises(ConfigurationError):
            Node(env, PLATFORM_C, cores=1000)

    def test_disk_io_and_counters(self):
        env = Environment()
        node = Node(env, PLATFORM_A)

        def body():
            yield node.disk.io_op(1_000_000)

        # SSD: 90us latency + 1MB/520MBps ~ 2.01ms
        assert _run(env, body) == pytest.approx(90e-6 + 1e6 / 520e6,
                                                rel=0.01)
        assert node.disk.read_bytes == 1_000_000

    def test_hdd_slower_than_ssd(self):
        env = Environment()
        ssd_node = Node(env, PLATFORM_A, name="nA")
        hdd_node = Node(env, PLATFORM_B, name="nB")
        times = {}

        def proc(node, tag):
            start = env.now
            yield node.disk.io_op(4096)
            times[tag] = env.now - start

        env.process(proc(ssd_node, "ssd"))
        env.process(proc(hdd_node, "hdd"))
        env.run()
        assert times["hdd"] > 10 * times["ssd"]

    def test_write_counts_write_bytes(self):
        env = Environment()
        node = Node(env, PLATFORM_A)

        def body():
            yield node.disk.io_op(4096, write=True)

        _run(env, body)
        assert node.disk.write_bytes == 4096
        assert node.disk.read_bytes == 0
        assert node.disk.operations == 1

    def test_crashed_node_fails_io_and_frees_queue(self):
        env = Environment()
        node = Node(env, PLATFORM_B)  # HDD: one queue slot
        _crash(env, at_s=0.001)
        errors = []
        _occupy(env, lambda: node.disk.io_op(1_000_000))
        _doomed(env, 0.002, lambda: node.disk.io_op(4096), errors)
        env.run()
        assert errors == [(pytest.approx(0.002), "node_down")]
        assert node.disk._queue.in_use == 0
        assert node.disk._channel.in_use == 0
        assert node.disk.operations == 1
