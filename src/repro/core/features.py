"""The platform-independent feature set (§4.1's "Abstraction" output).

:func:`extract_service_features` runs every profiler over one service's
artifacts and bundles the results. This bundle — not the artifacts, and
certainly not the original application model — is what the generator
consumes, and it is what an application owner would actually share: a
skeleton plus post-processed statistical characteristics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.isa.instructions import iform
from repro.loadgen.generator import LoadSpec
from repro.profiling.artifacts import ServiceArtifacts
from repro.profiling.branches import BranchProfile, profile_branches
from repro.profiling.deps import (
    DependencyDistanceProfile,
    profile_dependencies,
)
from repro.profiling.instmix import InstructionMixProfile, profile_instruction_mix
from repro.profiling.netmodel import NetworkModelProfile, profile_network_model
from repro.profiling.syscalls import SyscallProfile, profile_syscalls
from repro.profiling.threads import ThreadModelProfile, profile_thread_model
from repro.profiling.wset import (
    invert_data_hits,
    region_chase_ratio,
    invert_instruction_hits,
    profile_working_set_regions,
    region_regularity_ratio,
    region_shared_ratio,
)
from repro.runtime.metrics import ServiceMetrics


@dataclass
class ServiceFeatures:
    """Everything Ditto learned about one service."""

    service: str
    mix: InstructionMixProfile
    branches: BranchProfile
    deps: DependencyDistanceProfile
    syscalls: SyscallProfile
    threads: ThreadModelProfile
    network: NetworkModelProfile
    #: per-request data accesses per power-of-two working set (Eq. 1)
    data_wsets: Dict[int, float]
    #: per-request dynamic executions per instruction working set (Eq. 2)
    instr_wsets: Dict[int, float]
    regular_ratio: float
    #: regularity restricted to large (>512KB) regions — what the
    #: prefetcher can actually hide on the capacity-miss path
    regular_ratio_large: float
    #: dependent-load fraction among large-region accesses
    chase_ratio_large: float
    shared_ratio: float
    write_frac: float
    handler_mix: Dict[str, float]
    rpc_calls: Dict[str, List[Tuple[str, str, float, float, Optional[int]]]]
    resident_bytes: float
    hot_code_bytes: float
    file_sizes: Dict[str, float]
    target_counters: Optional[ServiceMetrics] = None
    observed_qps: float = 0.0
    observed_connections: int = 0
    observed_closed_loop: bool = False

    def profiled_load(self) -> LoadSpec:
        """The load this tier was profiled under, for stand-alone runs.

        Closed-loop tiers saturate at their observed throughput (open
        loop at that rate would sit on the hockey stick), so they stay
        closed-loop.
        """
        if self.observed_closed_loop:
            return LoadSpec.closed_loop(max(1, self.observed_connections))
        return LoadSpec.open_loop(max(100.0, self.observed_qps))

    def instructions_per_request(self, handler: Optional[str] = None) -> float:
        """Target dynamic user instructions per request."""
        if handler is not None:
            value = self.mix.instructions_per_request_by_handler.get(handler)
            if value is not None:
                return value
        return self.mix.instructions_per_request


def _write_fraction(mix: InstructionMixProfile) -> float:
    """Store fraction among memory-touching instructions."""
    stores = 0.0
    memory = 0.0
    for name, prob in mix.mix.normalized().items():
        form = iform(str(name))
        if form.uses_memory:
            memory += prob
            if form.writes_mem:
                stores += prob
    if memory <= 0:
        return 0.0
    return stores / memory


LARGE_REGION_BYTES = 512 * 1024


def _large_region_regularity(artifacts: ServiceArtifacts) -> float:
    value = region_regularity_ratio(
        artifacts.data_regions, min_region_bytes=LARGE_REGION_BYTES)
    if value > 0.0:
        return value
    return region_regularity_ratio(artifacts.data_regions)


def extract_service_features(artifacts: ServiceArtifacts) -> ServiceFeatures:
    """Run all feature extractors over one service's artifacts."""
    mix = profile_instruction_mix(artifacts)
    branches = profile_branches(artifacts)
    deps = profile_dependencies(artifacts)
    syscalls = profile_syscalls(artifacts)
    threads = profile_thread_model(artifacts)
    network = profile_network_model(artifacts)
    requests = max(1, artifacts.requests_observed)
    data_sweep = profile_working_set_regions(artifacts.data_regions)
    instr_sweep = profile_working_set_regions(artifacts.instr_regions,
                                              max_size=16 * 1024 * 1024)
    data_wsets = {
        size: accesses / requests
        for size, accesses in invert_data_hits(data_sweep).items()
    }
    instr_wsets = {
        size: execs / requests
        for size, execs in invert_instruction_hits(instr_sweep).items()
    }
    return ServiceFeatures(
        service=artifacts.service,
        mix=mix,
        branches=branches,
        deps=deps,
        syscalls=syscalls,
        threads=threads,
        network=network,
        data_wsets=data_wsets,
        instr_wsets=instr_wsets,
        regular_ratio=region_regularity_ratio(artifacts.data_regions),
        regular_ratio_large=_large_region_regularity(artifacts),
        chase_ratio_large=region_chase_ratio(
            artifacts.data_regions, min_region_bytes=LARGE_REGION_BYTES),
        shared_ratio=region_shared_ratio(artifacts.data_regions),
        write_frac=_write_fraction(mix),
        handler_mix=dict(artifacts.observed_handler_mix),
        rpc_calls=dict(artifacts.rpc_calls),
        resident_bytes=artifacts.observed_resident_bytes,
        hot_code_bytes=artifacts.observed_hot_code_bytes,
        file_sizes=dict(artifacts.file_sizes),
        target_counters=artifacts.counters,
        observed_qps=artifacts.observed_qps,
        observed_connections=artifacts.observed_connections,
        observed_closed_loop=artifacts.observed_closed_loop,
    )
