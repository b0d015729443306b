"""Block pricing with execution-state bucketing.

Pricing a block through the analytical core model is cheap but not free
(the branch oracle runs Monte-Carlo simulations on first use), and a run
executes the same handful of blocks millions of times. The pricer
memoises :class:`~repro.hw.core.BlockTiming` per (block, quantised
execution state): concurrency is bucketed to powers of two and cache/SMT
factors to two decimals, so a run touches only a few dozen distinct
pricings while timing still responds to load, colocation and
interference. What does not depend on the state at all (the block's
:class:`~repro.hw.core.BlockTerms`) is computed once per block.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, fields
from typing import Dict, Optional, Tuple

from repro.hw.core import BlockTerms, BlockTiming, CoreModel, ExecutionContext
from repro.hw.ir import BlockSpec
from repro.hw.platform import PlatformSpec
from repro.util.errors import ConfigurationError
from repro.util.quantize import next_pow2


@dataclass(frozen=True)
class PricingKey:
    """Quantised execution state a pricing is valid for.

    Every ``BlockPricer.price`` lookup hashes and compares its key, so
    the hash is computed once, from the field tuple the dataclass
    ``__eq__`` compares, and cached; and :meth:`build` returns one shared
    instance per distinct state, so equal keys are usually the same
    object and the lookup never reaches ``__eq__``.
    """

    cold: bool
    concurrency_bucket: int
    smt_contention: float
    l1i_factor: float
    l1d_factor: float
    l2_factor: float
    llc_factor: float
    code_reuse_kb: int
    static_branch_sites: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash(astuple(self)))

    def __hash__(self) -> int:
        return self._hash

    @staticmethod
    def build(
        cold: bool,
        concurrency: int,
        smt_contention: float,
        cache_factors: Tuple[float, float, float, float],
        code_reuse_bytes: float,
        static_branch_sites: int,
    ) -> "PricingKey":
        """Quantise raw state into a cache-friendly key."""
        if concurrency < 1:
            raise ConfigurationError("concurrency must be >= 1")
        l1i, l1d, l2, llc = cache_factors
        values = (
            cold,
            next_pow2(concurrency),
            round(smt_contention, 2),
            round(l1i, 2),
            round(l1d, 2),
            round(l2, 2),
            round(llc, 2),
            # 64KB steps: fine enough to keep cache-boundary distinctions
            # (a 680KB reuse must stay below a 1MB L2 and above a 256KB
            # one), coarse enough to memoise well.
            64 * max(1, round(code_reuse_bytes / 1024 / 64)),
            next_pow2(max(1, static_branch_sites)),
        )
        key = _INTERNED.get(values)
        if key is None:
            # The values are already valid: skip the frozen __init__ and
            # its per-field object.__setattr__.
            key = object.__new__(PricingKey)
            state = key.__dict__
            state.update(zip(_KEY_FIELDS, values))
            state["_hash"] = hash(values)
            if len(_INTERNED) >= _INTERNED_MAX:
                _INTERNED.clear()
            _INTERNED[values] = key
        return key


_KEY_FIELDS = tuple(f.name for f in fields(PricingKey))
#: the key build() returned for each field tuple; a run uses a few
#: hundred, and a full table is simply restarted
_INTERNED: Dict[tuple, PricingKey] = {}
_INTERNED_MAX = 4096


class BlockPricer:
    """Memoised CoreModel frontend for one platform/frequency."""

    def __init__(
        self,
        platform: PlatformSpec,
        frequency_ghz: Optional[float] = None,
        prefetch_coverage: float = 0.75,
    ) -> None:
        self.platform = platform
        self.frequency_ghz = (
            frequency_ghz if frequency_ghz is not None
            else platform.base_frequency_ghz
        )
        self.prefetch_coverage = prefetch_coverage
        self._base_hierarchy = platform.hierarchy(self.frequency_ghz)
        # Both memos key blocks by id(); each block priced is pinned by
        # its BlockTerms (terms.block), so no id is reused while the
        # pricer lives.
        self._terms: Dict[int, BlockTerms] = {}
        self._cache: Dict[Tuple[int, PricingKey], BlockTiming] = {}
        self._context_cache: Dict[PricingKey, ExecutionContext] = {}

    def context_for(self, key: PricingKey) -> ExecutionContext:
        """The ExecutionContext realising a pricing key."""
        ctx = self._context_cache.get(key)
        if ctx is not None:
            return ctx
        caches = self._base_hierarchy.with_effective_sizes(
            l1i_factor=key.l1i_factor,
            l1d_factor=key.l1d_factor,
            l2_factor=key.l2_factor,
            llc_factor=key.llc_factor,
        )
        ctx = ExecutionContext(
            uarch=self.platform.uarch,
            caches=caches,
            smt_contention=key.smt_contention,
            active_threads=key.concurrency_bucket,
            code_reuse_bytes=float(key.code_reuse_kb * 1024),
            static_branch_sites=key.static_branch_sites,
            prefetch_coverage=self.prefetch_coverage,
            predictor_cold=key.cold,
        )
        self._context_cache[key] = ctx
        return ctx

    def price(self, block: BlockSpec, key: PricingKey) -> BlockTiming:
        """Memoised timing of ``block`` under state ``key``."""
        cache_key = (id(block), key)
        cached = self._cache.get(cache_key)
        if cached is not None:
            return cached
        terms = self._terms.get(id(block))
        if terms is None:
            terms = BlockTerms(block, self.platform.uarch)
            self._terms[id(block)] = terms
        timing = CoreModel(self.context_for(key)).time_block(block, terms)
        self._cache[cache_key] = timing
        return timing

    def seconds(self, cycles: float) -> float:
        """Convert cycles to seconds at the pricer's frequency."""
        return self.platform.cycles_to_seconds(cycles, self.frequency_ghz)

    @property
    def cache_size(self) -> int:
        """Number of distinct pricings computed so far."""
        return len(self._cache)
