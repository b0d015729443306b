"""The benchmark's three workloads and its output check.

Each workload turns the seed into a fixed list of operations (built
once, at set-up) and runs that list as one *pass*. Every pass of a run
repeats the same operations on the same inputs, so every pass must
produce the same per-operation result digests.

- ``socialnet_open``: the 14-service social network, round-robin over
  4 nodes, under an open (Poisson) loop at 1800 QPS on platform A — the
  paper's high Fig. 6 point and the real-simulation headline. Open-loop
  arrivals are scheduled in simulated time, so the load generator is
  never late by construction; no lateness is reported.
- ``singletier_sweep``: the Fig. 5 sweep — memcached and nginx under an
  open loop, redis and mongodb under a closed loop, each at its low,
  medium and high point, a fresh simulation per point. The mongodb
  points run 5x longer so their disk and page-cache work is not lost
  behind memcached-high.
- ``clone_fleet``: the four single-tier clone jobs at their Fig. 5
  profiling loads, submitted through ``FleetClient`` into a fresh store
  and run with ``run_until_idle(executor="serial")``; each published
  clone is then run once (the "probe") so its behaviour is checked.

Load points and the profiling budget mirror ``benchmarks/conftest.py``
(``APPS``, ``BENCH_BUDGET``); they are restated here so the benchmark
depends only on the program, not on the test suite.
"""

from __future__ import annotations

import hashlib
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro import (CloneRequest, Deployment, ExperimentConfig, FleetClient,
                   JobState, LoadSpec)
from repro.app.workloads import (build_memcached, build_mongodb, build_nginx,
                                 build_redis)
from repro.app.workloads.socialnet import (build_social_network,
                                           social_network_deployment)
from repro.hw import PLATFORM_A
from repro.profiling import ProfilingBudget
from repro.runtime import run_experiment
from repro.util.spec_hash import canonical_bytes

#: the seed the pinned digests in ``expected.json`` were taken with
DEFAULT_SEED = 1
#: a seed kept out of development: later claims are re-checked on it
HELD_OUT_SEED = 2


def result_digest(result) -> str:
    """Digest of one run's observable result.

    The encoding of ``_result_digest`` in ``tests/test_perf_equivalence.py``
    (service snapshots, latency samples, outcome counts, CPU and disk
    utilisations, the fault timeline when present), hashed the way
    ``stable_digest`` hashes it. ``canonical_bytes`` is used directly so
    the benchmark's own checking never shows up in the traced
    ``stable_digest`` counts.
    """
    parts = [
        {name: m.snapshot() for name, m in sorted(result.services.items())},
        tuple(result.latency.samples),
        result.outcome_counts(),
        sorted(result.node_utilisation.items()),
        sorted(result.disk_utilisation.items()),
    ]
    if result.faults is not None:
        parts.append(result.faults.digest())
    return _digest(*parts)


def _digest(*parts) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(canonical_bytes(part))
    return digest.hexdigest()


@dataclass
class OpOutcome:
    """One operation of one pass."""

    name: str
    #: result digest; filled in after the pass, outside its timing
    digest: str = ""
    #: why the operation failed ("" when it did not)
    error: str = ""
    #: client requests completed by the runs the benchmark made itself
    completed: int = 0
    #: host seconds those runs spent in ``run_experiment``
    sim_host_s: float = 0.0
    #: figures read from the program's outputs (fidelity, cache, tuning)
    extras: Dict[str, float] = field(default_factory=dict)
    #: computes the digest; dropped (with what it holds) once called
    make_digest: Optional[Callable[[], str]] = None


def _timed_run(outcome: OpOutcome, deployment, load, config):
    start = time.perf_counter()
    result = run_experiment(deployment, load, config)
    outcome.sim_host_s += time.perf_counter() - start
    outcome.completed += result.latency.completed
    if result.latency.failed:
        outcome.error = f"{result.latency.failed} requests failed"
    return result


class Workload:
    """A fixed list of operations built from a seed."""

    name = ""

    def __init__(self, seed: int, tiny: bool = False,
                 scratch_root: str = ".") -> None:
        self.seed = seed
        self.tiny = tiny
        #: directory for files a pass writes (inside the checkout)
        self.scratch_root = scratch_root

    def run_pass(self) -> List[OpOutcome]:
        raise NotImplementedError

    def finish(self, outcomes: List[OpOutcome]) -> None:
        """Digest a pass's outcomes (called outside the pass's timing)."""
        for outcome in outcomes:
            if outcome.make_digest is not None:
                outcome.digest = outcome.make_digest()
                outcome.make_digest = None


class SocialnetOpen(Workload):
    name = "socialnet_open"
    QPS = 1800
    NODES = 4

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        names = list(build_social_network())
        self.deployment = social_network_deployment(placement={
            service: f"node{i % self.NODES}"
            for i, service in enumerate(names)})
        self.load = LoadSpec.open_loop(self.QPS)
        self.config = ExperimentConfig(
            platform=PLATFORM_A, duration_s=0.01 if self.tiny else 0.5,
            seed=self.seed)

    def run_pass(self) -> List[OpOutcome]:
        outcome = OpOutcome(f"socialnet-{self.QPS}qps")
        try:
            result = _timed_run(outcome, self.deployment, self.load,
                                self.config)
            outcome.make_digest = lambda: result_digest(result)
        except Exception as error:  # noqa: BLE001 — counted as failed
            outcome.error = f"{type(error).__name__}: {error}"
        return [outcome]


@dataclass(frozen=True)
class App:
    """One single-tier application's Fig. 5 settings."""

    name: str
    builder: Callable[[], object]
    profiling_load: LoadSpec
    loads: Tuple[Tuple[str, LoadSpec], ...]
    page_cache_bytes: Optional[float] = None
    #: simulated seconds of a sweep point, relative to the common length
    sweep_scale: float = 1.0

    def config(self, duration_s: float, seed: int) -> ExperimentConfig:
        return ExperimentConfig(platform=PLATFORM_A,
                                duration_s=duration_s,
                                seed=seed,
                                page_cache_bytes=self.page_cache_bytes)


APPS: Tuple[App, ...] = (
    App("memcached", build_memcached, LoadSpec.open_loop(100_000),
        (("low", LoadSpec.open_loop(8_000)),
         ("medium", LoadSpec.open_loop(100_000)),
         ("high", LoadSpec.open_loop(250_000)))),
    App("nginx", build_nginx, LoadSpec.open_loop(18_000),
        (("low", LoadSpec.open_loop(2_500)),
         ("medium", LoadSpec.open_loop(18_000)),
         ("high", LoadSpec.open_loop(34_000)))),
    App("redis", build_redis, LoadSpec.closed_loop(4),
        (("low", LoadSpec.closed_loop(1)),
         ("medium", LoadSpec.closed_loop(4)),
         ("high", LoadSpec.closed_loop(16)))),
    App("mongodb", build_mongodb, LoadSpec.closed_loop(4),
        (("low", LoadSpec.closed_loop(1)),
         ("medium", LoadSpec.closed_loop(4)),
         ("high", LoadSpec.closed_loop(12))),
        page_cache_bytes=4 * 1024**3, sweep_scale=5.0),
)


class SingletierSweep(Workload):
    name = "singletier_sweep"
    #: simulated seconds per point (``RUN_SECONDS`` of the Fig. 5 bench)
    DURATION_S = 0.04

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        duration = 0.002 if self.tiny else self.DURATION_S
        self.points = [
            (f"{app.name}-{level}", Deployment.single(app.builder()), load,
             app.config(duration * app.sweep_scale, self.seed))
            for app in APPS for level, load in app.loads]

    def run_pass(self) -> List[OpOutcome]:
        outcomes = []
        for name, deployment, load, config in self.points:
            outcome = OpOutcome(name)
            try:
                result = _timed_run(outcome, deployment, load, config)
                outcome.make_digest = (lambda r=result: result_digest(r))
            except Exception as error:  # noqa: BLE001 — counted as failed
                outcome.error = f"{type(error).__name__}: {error}"
            outcomes.append(outcome)
        return outcomes


#: the Fig. 5 profiling budget (``BENCH_BUDGET``)
BENCH_BUDGET = ProfilingBudget(
    sampled_requests=10,
    max_accesses_per_spec=768,
    max_istream_per_block=3072,
    branch_outcomes_per_site=160,
    max_sites_per_population=10,
    dep_samples_per_block=64,
    profile_duration_s=0.02,
)


class CloneFleet(Workload):
    name = "clone_fleet"
    #: simulated seconds of each clone job's profiling/tuning runs
    PROFILE_S = 0.02
    #: simulated seconds of the probe run of each published clone
    PROBE_S = 0.04

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # tiny: the memcached job alone; a smaller budget fails the gate
        self.jobs = []
        for app in APPS[:1] if self.tiny else APPS:
            request = CloneRequest(
                deployment=Deployment.single(app.builder()),
                load=app.profiling_load,
                config=app.config(self.PROFILE_S, self.seed),
                budget=BENCH_BUDGET,
                fine_tune_tiers=True,
                max_tune_iterations=5,
                validate=True)
            probe = app.config(0.005 if self.tiny else self.PROBE_S,
                               self.seed)
            self.jobs.append((app.name, request, probe))

    def run_pass(self) -> List[OpOutcome]:
        # a fresh store each pass: nothing is served from an earlier one
        self._store = tempfile.mkdtemp(prefix="fleet-", dir=self.scratch_root)
        client = FleetClient(self._store)
        ids = [(name, client.submit(request, name=name).job_id, request,
                probe)
               for name, request, probe in self.jobs]
        client.run_until_idle(executor="serial")
        return [self._collect(client, *job) for job in ids]

    def finish(self, outcomes: List[OpOutcome]) -> None:
        super().finish(outcomes)
        shutil.rmtree(self._store, ignore_errors=True)

    def _collect(self, client, name, job_id, request, probe) -> OpOutcome:
        outcome = OpOutcome(f"clone-{name}")
        try:
            record = client.get(job_id)
            if record.state is not JobState.PUBLISHED:
                outcome.error = f"job {record.state.value}: {record.error}"
                return outcome
            published = client.result(job_id)
            fidelity = published.fidelity
            if fidelity is None or not fidelity.get("passed"):
                outcome.error = "fidelity gate did not pass"
                return outcome
            run = _timed_run(outcome, published.synthetic, request.load,
                             probe)
        except Exception as error:  # noqa: BLE001 — counted as failed
            outcome.error = f"{type(error).__name__}: {error}"
            return outcome
        stats = published.cache_stats
        outcome.extras = {
            "fidelity_error": float(fidelity["mean_error"]),
            "tune_iterations": sum(published.tuning_iterations.values()),
            "cache_hits": stats.hits,
            "cache_lookups": stats.hits + stats.misses,
        }
        outcome.make_digest = lambda: _digest(published.result_digest, fidelity,
                                        result_digest(run))
        return outcome


WORKLOADS: Dict[str, type] = {
    workload.name: workload
    for workload in (SocialnetOpen, SingletierSweep, CloneFleet)}
