"""Analytical out-of-order core timing model.

Given a :class:`~repro.hw.ir.BlockSpec` and an :class:`ExecutionContext`
(microarchitecture + effective cache hierarchy + contention state), the
model computes cycles and performance counters for the block, in the
style of a static pipeline analyser crossed with top-down accounting:

- compute-bound cycles: max of issue-width, per-port-group, and
  dependency-chain (ILP) bounds;
- memory stalls: per-working-set miss fractions through the hierarchy,
  divided by achievable memory-level parallelism, minus prefetcher
  coverage for regular patterns;
- frontend stalls: instruction-side working-set behaviour (block footprint
  plus code executed between repeats vs the i-cache);
- bad speculation: measured misprediction rates from the gshare model
  times the microarchitecture's re-steer penalty.

The same model prices both original applications and Ditto's synthetic
clones — differences between the two arise only from how faithfully the
clone's specs reconstruct the original's, which is precisely what the
paper evaluates.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Optional

from repro.hw.branch import BranchPredictorModel
from repro.hw.cache import LINE_BYTES, CacheHierarchy, miss_fraction
from repro.hw.ir import BlockSpec, MemAccessSpec, MemPattern
from repro.hw.topdown import TopDownBreakdown
from repro.isa.instructions import iform
from repro.isa.ports import PortGroup, UArch
from repro.util.errors import ConfigurationError


@dataclass(frozen=True)
class ExecutionContext:
    """Everything outside the block that shapes its timing.

    - ``caches``: the *effective* hierarchy after contention scaling;
    - ``smt_contention``: 1.0 when the sibling hardware thread is idle,
      up to 2.0 when it saturates the shared ports;
    - ``active_threads``: software threads of this application touching
      shared data (coherence exposure);
    - ``code_reuse_bytes``: i-side bytes executed between two consecutive
      executions of a block (other handlers, kernel code) — the i-cache
      reuse distance;
    - ``static_branch_sites``: total static conditional branches in the
      hot code (BTB/PHT aliasing pressure);
    - ``prefetch_coverage``: fraction of a regular-pattern miss's latency
      the stride prefetcher hides.
    """

    uarch: UArch
    caches: CacheHierarchy
    smt_contention: float = 1.0
    active_threads: int = 1
    code_reuse_bytes: float = 0.0
    static_branch_sites: int = 64
    prefetch_coverage: float = 0.75
    #: True when the thread was just scheduled in after an idle period:
    #: predictor tables/history are polluted by whatever ran in between.
    predictor_cold: bool = False
    branch_model: Optional[BranchPredictorModel] = None

    def __post_init__(self) -> None:
        if not 1.0 <= self.smt_contention <= 2.0:
            raise ConfigurationError("smt_contention must be within [1, 2]")
        if self.active_threads < 1:
            raise ConfigurationError("active_threads must be >= 1")
        if not 0.0 <= self.prefetch_coverage <= 1.0:
            raise ConfigurationError("prefetch_coverage must be in [0, 1]")

    def with_(self, **changes) -> "ExecutionContext":
        """A modified copy (dataclasses.replace convenience)."""
        return replace(self, **changes)

    @property
    def alias_pressure(self) -> float:
        """How saturated the branch predictor tables are, in [0, 1].

        A cold dispatch behaves like heavy aliasing: the intervening code
        overwrote the counters this thread trained.
        """
        pressure = self.static_branch_sites / self.uarch.btb_entries
        if self.predictor_cold:
            pressure += 0.5
        return min(1.0, pressure)

    def predictor(self) -> BranchPredictorModel:
        """The branch misprediction oracle for this context."""
        if self.branch_model is not None:
            return self.branch_model
        return BranchPredictorModel(self.uarch.predictor_history)


@dataclass
class BlockTiming:
    """Cycles and counters for one full execution of a block (all iterations)."""

    cycles: float = 0.0
    instructions: float = 0.0
    uops: float = 0.0
    branches: float = 0.0
    branch_mispredictions: float = 0.0
    l1i_accesses: float = 0.0
    l1i_misses: float = 0.0
    l1d_accesses: float = 0.0
    l1d_misses: float = 0.0
    l2_accesses: float = 0.0
    l2_misses: float = 0.0
    llc_accesses: float = 0.0
    llc_misses: float = 0.0
    memory_bytes: float = 0.0
    topdown: TopDownBreakdown = field(default_factory=TopDownBreakdown.zero)

    @property
    def ipc(self) -> float:
        """Instructions per cycle (0 for an empty block)."""
        if self.cycles <= 0.0:
            return 0.0
        return self.instructions / self.cycles

    def accumulate(self, other: "BlockTiming") -> None:
        """Add ``other`` into this timing in place.

        Every field gets one float addition, ``self.f + other.f``, so a
        running total folded with this method equals the out-of-place
        field-by-field sum bit for bit. The caller must own this timing and
        its ``topdown`` (never a memoised pricing, whose breakdown may be
        shared).
        """
        self.cycles += other.cycles
        self.instructions += other.instructions
        self.uops += other.uops
        self.branches += other.branches
        self.branch_mispredictions += other.branch_mispredictions
        self.l1i_accesses += other.l1i_accesses
        self.l1i_misses += other.l1i_misses
        self.l1d_accesses += other.l1d_accesses
        self.l1d_misses += other.l1d_misses
        self.l2_accesses += other.l2_accesses
        self.l2_misses += other.l2_misses
        self.llc_accesses += other.llc_accesses
        self.llc_misses += other.llc_misses
        self.memory_bytes += other.memory_bytes
        self.topdown.accumulate(other.topdown)


class CoreModel:
    """Prices BlockSpecs on an ExecutionContext."""

    #: fraction of an i-miss refill that overlaps with execution
    FETCH_OVERLAP = 0.5
    #: fetch-group width used for L1i access accounting (16B groups)
    FETCH_BYTES = 16

    def __init__(self, ctx: ExecutionContext) -> None:
        self.ctx = ctx

    # ------------------------------------------------------------------ #
    # memory subsystem
    # ------------------------------------------------------------------ #
    def _memory_component(
        self, terms: BlockTerms, counts: Dict[str, float]
    ) -> float:
        caches = self.ctx.caches
        stall = 0.0
        l1d_bytes = caches.l1d.size_bytes
        l2_bytes = caches.l2.size_bytes
        llc_bytes = caches.llc.size_bytes
        lat_l1 = caches.l1d.latency_cycles
        lat_l2 = caches.l2.latency_cycles
        lat_llc = caches.llc.latency_cycles
        lat_mem = caches.memory_latency_cycles
        coherence = min(1.0, max(0, self.ctx.active_threads - 1))
        not_prefetched = 1.0 - self.ctx.prefetch_coverage
        for accesses, spec, mlp, regular, shared_writes in terms.mem:
            m1 = miss_fraction(spec, l1d_bytes)
            m2 = miss_fraction(spec, l2_bytes)
            m3 = miss_fraction(spec, llc_bytes)
            # The hierarchy filters: fraction of accesses resolving at each
            # level (m2/m3 conditional on having missed inward levels).
            f_l2 = m1 * (1.0 - m2) if m1 > 0 else 0.0
            f_llc = m1 * m2 * (1.0 - m3) if m1 * m2 > 0 else 0.0
            f_mem = m1 * m2 * m3
            # Coherence misses: shared lines invalidated by other threads'
            # writes surface as extra L1d misses served from the LLC.
            coh_rate = shared_writes * coherence
            extra_latency = (
                f_l2 * (lat_l2 - lat_l1)
                + f_llc * (lat_llc - lat_l1)
                + f_mem * (lat_mem - lat_l1)
                + coh_rate * (lat_llc - lat_l1)
            )
            if regular:
                extra_latency *= not_prefetched
            stall += accesses * extra_latency / mlp
            # Counters.
            counts["l1d_accesses"] += accesses
            counts["l1d_misses"] += accesses * (m1 + coh_rate)
            counts["l2_accesses"] += accesses * m1
            counts["l2_misses"] += accesses * m1 * m2
            counts["llc_accesses"] += accesses * (m1 * m2 + coh_rate)
            counts["llc_misses"] += accesses * m1 * m2 * m3
            counts["memory_bytes"] += accesses * m1 * m2 * m3 * LINE_BYTES
        return stall

    # ------------------------------------------------------------------ #
    # frontend / instruction side
    # ------------------------------------------------------------------ #
    def _frontend_component(
        self, terms: BlockTerms, counts: Dict[str, float]
    ) -> float:
        loop_spec = terms.loop_spec
        if loop_spec is None:
            return 0.0
        caches = self.ctx.caches
        lines = terms.fetch_lines
        # Two reuse regimes: the first pass of a visit re-fetches lines
        # last seen one full visit ago (block + everything run in
        # between); subsequent loop passes re-fetch the block body.
        first_spec = MemAccessSpec(
            wset_bytes=max(64, int(terms.code_bytes
                                   + self.ctx.code_reuse_bytes)),
            accesses=lines, pattern=MemPattern.SEQUENTIAL,
        )
        first_weight = terms.first_weight
        loop_weight = terms.loop_weight

        def blended(cache_bytes: float) -> float:
            return (miss_fraction(first_spec, cache_bytes) * first_weight
                    + miss_fraction(loop_spec, cache_bytes) * loop_weight)

        m1 = blended(caches.l1i.size_bytes)
        m2 = min(m1, blended(caches.l2.size_bytes))
        m3 = min(m2, blended(caches.llc.size_bytes))
        miss_l1 = lines * m1
        miss_l2 = lines * m2
        miss_llc = lines * m3
        lat_l2 = caches.l2.latency_cycles
        lat_llc = caches.llc.latency_cycles
        lat_mem = caches.memory_latency_cycles
        # Fetches resolve at the first level they hit: (m1-m2) of the
        # lines stop at L2, (m2-m3) at the LLC, m3 go to memory.
        stall = (
            lines * (m1 - m2) * lat_l2
            + lines * (m2 - m3) * lat_llc
            + lines * m3 * lat_mem
        ) * self.FETCH_OVERLAP
        counts["l1i_accesses"] += terms.l1i_accesses
        counts["l1i_misses"] += miss_l1
        counts["l2_accesses"] += miss_l1
        counts["l2_misses"] += miss_l2
        counts["llc_accesses"] += miss_l2
        counts["llc_misses"] += miss_llc
        counts["memory_bytes"] += miss_llc * LINE_BYTES
        return stall

    # ------------------------------------------------------------------ #
    # branches
    # ------------------------------------------------------------------ #
    def _branch_component(
        self, block: BlockSpec, counts: Dict[str, float]
    ) -> float:
        predictor = self.ctx.predictor()
        penalty = self.ctx.uarch.mispredict_penalty
        pressure = self.ctx.alias_pressure
        stall = 0.0
        for spec in block.branches:
            if spec.executions <= 0:
                continue
            rate = predictor.rate_for(spec, alias_pressure=pressure)
            misses = spec.executions * rate
            counts["branches"] += spec.executions
            counts["branch_mispredictions"] += misses
            stall += misses * penalty
        return stall

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #
    def time_block(
        self, block: BlockSpec, terms: Optional[BlockTerms] = None
    ) -> BlockTiming:
        """Price all iterations of ``block`` under this context.

        ``terms`` are ``BlockTerms(block, uarch)`` for this context's
        uarch, computed here when not given.
        """
        ctx = self.ctx
        width = ctx.uarch.issue_width
        if terms is None:
            terms = BlockTerms(block, ctx.uarch)
        counts = dict.fromkeys(_COUNTERS, 0.0)
        total_uops = terms.total_uops
        # SMT sibling competes for the same issue ports.
        compute_cycles = max(terms.issue_cycles,
                             terms.port_cycles * ctx.smt_contention,
                             terms.dep_cycles)
        mem_stall = self._memory_component(terms, counts)
        fe_stall = self._frontend_component(terms, counts)
        bs_stall = self._branch_component(block, counts)
        cycles_per_iter = compute_cycles + mem_stall + fe_stall + bs_stall
        cycles = max(cycles_per_iter, total_uops / width)
        total_slots = cycles * width
        retiring = min(total_slots, total_uops)
        bad_spec = min(total_slots - retiring, bs_stall * width)
        frontend = min(total_slots - retiring - bad_spec, fe_stall * width)
        backend = max(0.0, total_slots - retiring - bad_spec - frontend)
        # All iterations. Built without the keyword __init__ and its
        # validation (the slot split above is non-negative by
        # construction, and so is the iteration count); attributes are
        # stored one by one, which keeps the object compact.
        n = terms.iterations
        timing = BlockTiming.__new__(BlockTiming)
        timing.cycles = cycles * n
        timing.instructions = terms.instructions * n
        timing.uops = total_uops * n
        timing.branches = counts["branches"] * n
        timing.branch_mispredictions = counts["branch_mispredictions"] * n
        timing.l1i_accesses = counts["l1i_accesses"] * n
        timing.l1i_misses = counts["l1i_misses"] * n
        timing.l1d_accesses = counts["l1d_accesses"] * n
        timing.l1d_misses = counts["l1d_misses"] * n
        timing.l2_accesses = counts["l2_accesses"] * n
        timing.l2_misses = counts["l2_misses"] * n
        timing.llc_accesses = counts["llc_accesses"] * n
        timing.llc_misses = counts["llc_misses"] * n
        timing.memory_bytes = counts["memory_bytes"] * n
        timing.topdown = TopDownBreakdown.unchecked(
            retiring * n, frontend * n, bad_spec * n, backend * n)
        return timing


#: the counters the memory, frontend and branch components add into
_COUNTERS = ("branches", "branch_mispredictions", "l1i_accesses",
             "l1i_misses", "l1d_accesses", "l1d_misses", "l2_accesses",
             "l2_misses", "llc_accesses", "llc_misses", "memory_bytes")


class BlockTerms:
    """The parts of a block's timing that depend only on the block and uarch.

    :meth:`CoreModel.time_block` computes these first and derives the
    rest from its context. A caller pricing one block under many
    contexts of one uarch (:class:`~repro.runtime.pricing.BlockPricer`)
    builds them once and passes them back in. The terms hold ``block``,
    so the block stays alive, and its ``id`` unique, while they do.
    """

    __slots__ = ("block", "total_uops", "issue_cycles", "port_cycles",
                 "dep_cycles", "instructions", "mem", "code_bytes",
                 "fetch_lines", "loop_spec", "first_weight", "loop_weight",
                 "l1i_accesses", "iterations")

    def __init__(self, block: BlockSpec, uarch: UArch) -> None:
        self.block = block
        # Compute bounds for one iteration, port bound before SMT scaling.
        port_uops = _port_uops(block)
        self.total_uops = total_uops = sum(port_uops.values())
        self.issue_cycles = total_uops / uarch.issue_width
        port_cycles = 0.0
        for group, uops in port_uops.items():
            cycles = uarch.group(group).cycles_for(uops)
            port_cycles = max(port_cycles, cycles)
        self.port_cycles = port_cycles
        # Dependency-chain (ILP) bound: with mean RAW distance d, the
        # stream decomposes into ~d independent chains of n/d hops with
        # the mix's average producing latency per hop.
        self.instructions = instructions = block.instructions_per_iteration
        dep_cycles = 0.0
        if instructions > 0:
            weighted_latency = 0.0
            for name, count in block.iform_counts.items():
                weighted_latency += iform(name).latency * count
            avg_latency = max(0.5, weighted_latency / instructions)
            distance = max(1.0, block.deps.mean_raw_distance())
            chain_parallelism = min(distance, float(uarch.issue_width) * 2.0)
            dep_cycles = instructions * avg_latency / chain_parallelism
        self.dep_cycles = dep_cycles
        # Data side: per accessed working set, (accesses, spec, MLP,
        # prefetchable, shared write fraction).
        mem = []
        for spec in block.mem:
            if spec.accesses <= 0:
                continue
            mem.append((spec.accesses, spec, _memory_mlp(block, spec, uarch),
                        spec.is_regular, spec.shared_frac * spec.write_frac))
        self.mem = tuple(mem)
        # Instruction side: lines actually fetched per loop pass.
        # Instructions lay out densely (4B each, 16 per line), so a pass
        # touches at most instructions/16 lines, capped by the block
        # footprint. Later loop passes re-fetch with the block body
        # itself as the reuse distance.
        self.code_bytes = code_bytes = float(block.static_code_bytes())
        self.loop_spec = None
        if code_bytes > 0:
            lines = max(1.0, min(code_bytes, 4.0 * max(1.0, instructions))
                        / LINE_BYTES)
            loops = max(1.0, block.iterations)
            self.fetch_lines = lines
            self.loop_spec = MemAccessSpec(
                wset_bytes=max(64, int(code_bytes)), accesses=lines,
                pattern=MemPattern.SEQUENTIAL,
            )
            self.first_weight = 1.0 / loops
            self.loop_weight = (loops - 1.0) / loops
            self.l1i_accesses = max(
                1.0, instructions * 4.0 / CoreModel.FETCH_BYTES)
        self.iterations = max(block.iterations, 0.0)


def _port_uops(block: BlockSpec) -> Dict[PortGroup, float]:
    totals: Dict[PortGroup, float] = {}
    for name, count in block.iform_counts.items():
        form = iform(name)
        for group, uops in form.port_uops.items():
            totals[group] = totals.get(group, 0.0) + uops * count
        if form.is_rep:
            extra = form.rep_uops_per_element * block.rep_elements * count
            totals[PortGroup.STRING] = totals.get(PortGroup.STRING, 0.0) + extra
    return totals


def _memory_mlp(block: BlockSpec, spec: MemAccessSpec, uarch: UArch) -> float:
    """Achievable memory-level parallelism for ``spec``'s misses."""
    if spec.pattern is MemPattern.POINTER_CHASE:
        return 1.0
    chase = block.deps.pointer_chase_frac
    mshr = float(uarch.mshr_count)
    # Harmonic blend: chasing fraction is serialised at MLP=1, the rest
    # enjoys the full miss-handling capacity.
    return 1.0 / (chase / 1.0 + (1.0 - chase) / mshr)
