"""Outside-in per-layer tracing for the benchmark's traced run.

The traced run installs timing and counting wrappers around the public
entry points of each ``repro`` layer, from this file, and removes them
on exit; nothing inside ``src/`` knows it is being measured. Each name
is patched where its callers look it up:

- a method is replaced on its class, so every instance (and every bound
  method taken after installation) goes through the wrapper;
- a module-level function is replaced in *every* loaded module that
  holds it under some name (``from x import f`` copies the reference),
  found by identity over ``sys.modules``. All ``repro`` submodules are
  imported first, so a lazy ``from x import f`` inside a function
  cannot pick up an unwrapped original later.

A wrapper only observes: it forwards arguments and the return value
untouched, so traced and untraced passes must produce identical result
digests (the benchmark checks this).

Timing model: every wrapped call is a span on one stack. A group's busy
time counts only its outermost spans (``TierCheckpoint.load`` calls
``path``; that time is not counted twice); a span's self time is its
duration minus the durations of the wrapped spans directly inside it.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import pkgutil
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Tuple

#: (group, module, attribute) — ``Class.method`` or a module function.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("sim.run", "repro.sim.engine", "Environment.run"),
    ("runtime.run", "repro.runtime.experiment", "run_experiment"),
    ("runtime.price", "repro.runtime.pricing", "BlockPricer.price"),
    ("runtime.absorb", "repro.runtime.metrics", "ServiceMetrics.absorb"),
    ("hw.time_block", "repro.hw.core", "CoreModel.time_block"),
    ("hw.branch", "repro.hw.branch", "generate_branch_outcomes"),
    ("hw.branch", "repro.hw.branch",
     "GsharePredictor.predict_and_update_many"),
    ("kernelsim.nic", "repro.kernelsim.netstack", "NicDevice.transmit_op"),
    ("kernelsim.disk", "repro.kernelsim.node", "DiskDevice.io_op"),
    ("tracing.span", "repro.tracing.tracer", "Tracer.start_span"),
    ("profiling.profile", "repro.profiling.collector", "profile_deployment"),
    ("profiling.wset", "repro.profiling.wset", "profile_working_sets"),
    ("profiling.wset", "repro.profiling.wset", "profile_working_set_regions"),
    ("core.features", "repro.core.features", "extract_service_features"),
    ("core.fine_tune", "repro.core.finetune", "fine_tune"),
    ("core.generate", "repro.core.body_gen", "generate_program"),
    ("core.checkpoint", "repro.core.pipeline", "TierCheckpoint.path"),
    ("core.checkpoint", "repro.core.pipeline", "TierCheckpoint.load"),
    ("core.checkpoint", "repro.core.pipeline", "TierCheckpoint.save"),
    ("core.pipeline", "repro.core.pipeline", "run_tier_pipeline"),
    ("validation.gate", "repro.validation.gate", "FidelityGate.validate"),
    ("validation.envelope", "repro.validation.integrity", "write_envelope"),
    ("util.digest", "repro.util.spec_hash", "stable_digest"),
    ("fleet.job", "repro.fleet.worker", "execute_job"),
)

#: groups whose time inside a fleet job is *not* control-plane overhead
JOB_WORK_GROUPS = frozenset(
    {"profiling.profile", "core.pipeline", "validation.gate"})


@dataclass(frozen=True)
class LayerMetric:
    """One per-layer metric and the end-to-end figure it should move."""

    name: str
    unit: str
    what: str
    moves: str


#: The traced run's metrics, in BENCHMARK.json order. ``moves`` is the
#: layer -> end-to-end metric -> workload map written down before any
#: optimisation: a change to the layer should show in that figure.
PER_LAYER: Tuple[LayerMetric, ...] = (
    LayerMetric("sim.events", "count",
                "RunResult.events_dispatched summed over the pass's runs",
                "base for sim.events_per_s"),
    LayerMetric("sim.events_per_s", "1/s",
                "sim.events per busy second of Environment.run",
                "wall_s, sim_requests_per_s on socialnet_open"),
    LayerMetric("sim.run_self_s", "s",
                "Environment.run minus the wrapped spans inside it",
                "wall_s, sim_requests_per_s on socialnet_open"),
    LayerMetric("runtime.price_calls", "count", "BlockPricer.price calls",
                "wall_s on singletier_sweep"),
    LayerMetric("runtime.price_s", "s", "BlockPricer.price busy time",
                "wall_s on singletier_sweep"),
    LayerMetric("runtime.pricer_hit_ratio", "ratio",
                "1 - time_block calls inside price / price calls",
                "wall_s on singletier_sweep"),
    LayerMetric("runtime.absorb_calls", "count", "ServiceMetrics.absorb calls",
                "sim_requests_per_s on socialnet_open"),
    LayerMetric("runtime.absorb_s", "s", "ServiceMetrics.absorb busy time",
                "sim_requests_per_s on socialnet_open"),
    LayerMetric("runtime.runs", "count", "run_experiment calls",
                "wall_s on singletier_sweep and clone_fleet"),
    LayerMetric("runtime.build_s", "s",
                "run_experiment minus the Environment.run inside it",
                "wall_s on singletier_sweep and clone_fleet"),
    LayerMetric("runtime.expcache_hit_ratio", "ratio",
                "experiment-cache hits / lookups over the published jobs",
                "wall_s on clone_fleet"),
    LayerMetric("hw.time_block_calls", "count", "CoreModel.time_block calls",
                "wall_s on singletier_sweep and clone_fleet"),
    LayerMetric("hw.time_block_s", "s", "CoreModel.time_block busy time",
                "wall_s on singletier_sweep and clone_fleet"),
    LayerMetric("hw.branch_s", "s",
                "generate_branch_outcomes + predict_and_update_many busy time",
                "wall_s on clone_fleet"),
    LayerMetric("kernelsim.nic_ops", "count", "NicDevice.transmit_op calls",
                "sim_requests_per_s on socialnet_open"),
    LayerMetric("kernelsim.disk_ops", "count", "DiskDevice.io_op calls",
                "wall_s on singletier_sweep"),
    LayerMetric("loadgen.issued", "count",
                "client requests issued over the pass's runs",
                "base for every per-request ratio"),
    LayerMetric("loadgen.completed", "count",
                "client requests completed over the pass's runs",
                "base for every per-request ratio"),
    LayerMetric("tracing.spans", "count", "Tracer.start_span calls",
                "sim_requests_per_s on socialnet_open"),
    LayerMetric("profiling.profile_s", "s", "profile_deployment busy time",
                "wall_s on clone_fleet"),
    LayerMetric("profiling.wset_s", "s",
                "profile_working_sets + profile_working_set_regions busy time",
                "wall_s on clone_fleet"),
    LayerMetric("core.features_s", "s",
                "extract_service_features busy time", "wall_s on clone_fleet"),
    LayerMetric("core.fine_tune_s", "s", "fine_tune busy time",
                "wall_s on clone_fleet"),
    LayerMetric("core.tune_iterations", "count",
                "tuning iterations reported by the published jobs",
                "wall_s on clone_fleet"),
    LayerMetric("core.generate_s", "s", "generate_program busy time",
                "wall_s on clone_fleet"),
    LayerMetric("core.checkpoint_s", "s",
                "TierCheckpoint.path/load/save busy time",
                "wall_s on clone_fleet"),
    LayerMetric("validation.gate_s", "s", "FidelityGate.validate busy time",
                "wall_s on clone_fleet"),
    LayerMetric("validation.envelope_writes", "count",
                "integrity.write_envelope calls", "wall_s on clone_fleet"),
    LayerMetric("validation.envelope_write_s", "s",
                "integrity.write_envelope busy time", "wall_s on clone_fleet"),
    LayerMetric("util.digest_calls", "count", "stable_digest calls",
                "wall_s on clone_fleet"),
    LayerMetric("util.digest_s", "s", "stable_digest busy time",
                "wall_s on clone_fleet"),
    LayerMetric("fleet.control_plane_s_per_job", "s",
                "execute_job minus profile_deployment, run_tier_pipeline and "
                "FidelityGate.validate, per job (0 outside the fleet)",
                "wall_s on clone_fleet"),
    LayerMetric("trace.overhead_ratio", "ratio",
                "traced wall_s / untraced wall_s - 1 in the same process",
                "none: the cost of this tracing"),
)


class Tracer:
    """Per-group call counts, busy/self seconds and parent->child sums."""

    def __init__(self) -> None:
        self.calls: Dict[str, int] = defaultdict(int)
        self.busy: Dict[str, float] = defaultdict(float)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.pair_calls: Dict[Tuple[str, str], int] = defaultdict(int)
        self.pair_s: Dict[Tuple[str, str], float] = defaultdict(float)
        #: per fleet job: (wall seconds, seconds in JOB_WORK_GROUPS)
        self.jobs: List[Tuple[float, float]] = []
        #: results returned by run_experiment, in call order
        self.runs: List[object] = []
        self._depth: Dict[str, int] = defaultdict(int)
        self._stack: List[list] = []
        self._job: Optional[list] = None
        self._work_depth = 0

    def reset(self) -> None:
        """Forget everything recorded (the wrappers keep these objects)."""
        for table in (self.calls, self.busy, self.self_s, self.pair_calls,
                      self.pair_s, self._depth):
            table.clear()
        self.jobs.clear()
        self.runs.clear()

    def wrap(self, group: str, fn: Callable) -> Callable:
        """A wrapper recording ``fn``'s calls as spans of ``group``."""
        if inspect.isgeneratorfunction(fn):
            # the span would end when the generator is created, not run
            raise TypeError(f"cannot time generator function {fn!r}")
        stack, depth = self._stack, self._depth
        calls, busy, self_s = self.calls, self.busy, self.self_s
        pair_calls, pair_s = self.pair_calls, self.pair_s
        clock = time.perf_counter
        is_job = group == "fleet.job"
        is_work = group in JOB_WORK_GROUPS
        keep_result = self.runs.append if group == "runtime.run" else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [group, 0.0, 0.0]     # group, child seconds, work seconds
            stack.append(frame)
            depth[group] += 1
            if is_job:
                outer_job, self._job = self._job, frame
            if is_work:
                self._work_depth += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                depth[group] -= 1
                calls[group] += 1
                if not depth[group]:
                    busy[group] += elapsed
                self_s[group] += elapsed - frame[1]
                if stack:
                    parent = stack[-1]
                    parent[1] += elapsed
                    pair = (parent[0], group)
                    pair_calls[pair] += 1
                    pair_s[pair] += elapsed
                if is_work:
                    self._work_depth -= 1
                    if not self._work_depth and self._job is not None:
                        self._job[2] += elapsed
                if is_job:
                    self._job = outer_job
                    self.jobs.append((elapsed, frame[2]))
            if keep_result is not None:
                keep_result(result)
            return result

        return wrapper


def import_all_repro() -> None:
    """Import every ``repro`` submodule (CLI ``__main__`` modules aside)."""
    package = importlib.import_module("repro")
    for info in pkgutil.walk_packages(package.__path__, "repro."):
        if info.name.rsplit(".", 1)[-1] != "__main__":
            importlib.import_module(info.name)


def _holders(original: Callable) -> List[Tuple[object, str]]:
    """Every (module, attribute) in repro/perfbench bound to ``original``."""
    holders = []
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith(
                ("repro", "perfbench")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                holders.append((module, attr))
    return holders


@contextlib.contextmanager
def traced(tracer: Tracer) -> Iterator[List[Tuple[object, str, object]]]:
    """Install ``tracer``'s wrappers; restore every attribute on exit.

    Yields the list of ``(owner, attribute, original)`` patches. The
    restore runs in ``finally``, so an exception inside the block (or
    while installing) still leaves every patched name as it was.
    """
    import_all_repro()
    patches: List[Tuple[object, str, object]] = []
    try:
        for group, module_name, attr in TARGETS:
            module = importlib.import_module(module_name)
            if "." in attr:
                class_name, method = attr.split(".")
                owner = getattr(module, class_name)
                original = vars(owner)[method]   # KeyError: not defined here
                wrapper = tracer.wrap(group, original)
                patches.append((owner, method, original))
                setattr(owner, method, wrapper)
            else:
                original = getattr(module, attr)
                wrapper = tracer.wrap(group, original)
                for holder, name in _holders(original):
                    patches.append((holder, name, original))
                    setattr(holder, name, wrapper)
        yield patches
    finally:
        for owner, name, original in reversed(patches):
            setattr(owner, name, original)


def unrestored(patches: List[Tuple[object, str, object]]) -> List[str]:
    """Patched attributes that no longer hold their original object."""
    return [f"{getattr(owner, '__name__', owner)}.{name}"
            for owner, name, original in patches
            if vars(owner).get(name) is not original]


def layer_values(tracer: Tracer, extras: Dict[str, float]) -> Dict[str, float]:
    """One traced pass's per-layer figures (``trace.overhead_ratio`` aside).

    ``extras`` carries what the workload reads from the program's own
    outputs rather than from spans: ``tune_iterations``, ``cache_hits``
    and ``cache_lookups`` over the pass's published jobs.
    """
    calls, busy = tracer.calls, tracer.busy
    events = sum(run.events_dispatched for run in tracer.runs)
    price_calls = calls["runtime.price"]
    misses = tracer.pair_calls[("runtime.price", "hw.time_block")]
    lookups = extras.get("cache_lookups", 0)
    jobs = tracer.jobs
    return {
        "sim.events": events,
        "sim.events_per_s": (events / busy["sim.run"]
                             if busy["sim.run"] else 0.0),
        "sim.run_self_s": tracer.self_s["sim.run"],
        "runtime.price_calls": price_calls,
        "runtime.price_s": busy["runtime.price"],
        "runtime.pricer_hit_ratio": (1.0 - misses / price_calls
                                     if price_calls else 0.0),
        "runtime.absorb_calls": calls["runtime.absorb"],
        "runtime.absorb_s": busy["runtime.absorb"],
        "runtime.runs": calls["runtime.run"],
        "runtime.build_s": (busy["runtime.run"]
                            - tracer.pair_s[("runtime.run", "sim.run")]),
        "runtime.expcache_hit_ratio": (extras.get("cache_hits", 0) / lookups
                                       if lookups else 0.0),
        "hw.time_block_calls": calls["hw.time_block"],
        "hw.time_block_s": busy["hw.time_block"],
        "hw.branch_s": busy["hw.branch"],
        "kernelsim.nic_ops": calls["kernelsim.nic"],
        "kernelsim.disk_ops": calls["kernelsim.disk"],
        "loadgen.issued": sum(run.latency.issued for run in tracer.runs),
        "loadgen.completed": sum(run.latency.completed
                                 for run in tracer.runs),
        "tracing.spans": calls["tracing.span"],
        "profiling.profile_s": busy["profiling.profile"],
        "profiling.wset_s": busy["profiling.wset"],
        "core.features_s": busy["core.features"],
        "core.fine_tune_s": busy["core.fine_tune"],
        "core.tune_iterations": extras.get("tune_iterations", 0),
        "core.generate_s": busy["core.generate"],
        "core.checkpoint_s": busy["core.checkpoint"],
        "validation.gate_s": busy["validation.gate"],
        "validation.envelope_writes": calls["validation.envelope"],
        "validation.envelope_write_s": busy["validation.envelope"],
        "util.digest_calls": calls["util.digest"],
        "util.digest_s": busy["util.digest"],
        "fleet.control_plane_s_per_job": (
            sum(wall - work for wall, work in jobs) / len(jobs)
            if jobs else 0.0),
    }
