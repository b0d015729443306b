"""Hardware substrate: caches, branch prediction, core model, platforms.

The CPU model is *analytical*: given a basic block's instruction mix,
memory-access specs, branch specs and dependency profile, it computes
cycles and performance-counter values the way llvm-mca/top-down analysis
would, using per-microarchitecture port/latency tables. Cache behaviour
comes from closed-form miss fractions, branch behaviour from a gshare
predictor run over synthetic outcome streams (measured once per
population and cached).
"""

from repro.hw.cache import CacheConfig, CacheHierarchy
from repro.hw.branch import BranchPredictorModel, GsharePredictor
from repro.hw.core import BlockTiming, CoreModel, ExecutionContext
from repro.hw.ir import (
    BlockSpec,
    BranchSpec,
    DependencyProfile,
    MemAccessSpec,
    MemPattern,
)
from repro.hw.platform import (
    PLATFORM_A,
    PLATFORM_B,
    PLATFORM_C,
    DiskSpec,
    NetworkSpec,
    PlatformSpec,
    load_platform_spec,
    platform_by_name,
    platform_from_dict,
    platform_to_dict,
    register_platform,
    registered_platforms,
)
from repro.hw.topdown import TopDownBreakdown

__all__ = [
    "BlockSpec",
    "BlockTiming",
    "BranchPredictorModel",
    "BranchSpec",
    "CacheConfig",
    "CacheHierarchy",
    "CoreModel",
    "DependencyProfile",
    "DiskSpec",
    "ExecutionContext",
    "GsharePredictor",
    "MemAccessSpec",
    "MemPattern",
    "NetworkSpec",
    "PLATFORM_A",
    "PLATFORM_B",
    "PLATFORM_C",
    "PlatformSpec",
    "TopDownBreakdown",
    "load_platform_spec",
    "platform_by_name",
    "platform_from_dict",
    "platform_to_dict",
    "register_platform",
    "registered_platforms",
]
