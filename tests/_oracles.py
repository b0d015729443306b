"""Reference models the fast paths in ``src/repro`` are checked against.

None of these run in a simulation; each is the slow, obviously-correct
form of a vectorised or in-place path, kept for the tests that compare
the two bit for bit.
"""

from typing import Dict, Iterable, List

import numpy as np

from repro.hw.branch import GsharePredictor
from repro.hw.cache import LINE_BYTES, CacheConfig
from repro.hw.core import BlockTiming
from repro.hw.topdown import TopDownBreakdown
from repro.util.errors import ConfigurationError


class SetAssociativeCache:
    """Explicit set-associative true-LRU cache over byte addresses.

    The simulator the closed-form :func:`repro.hw.cache.miss_fraction`
    is validated against (§4.4.4).
    """

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        self._sets: List[List[int]] = [[] for _ in range(config.num_sets)]
        self.hits = 0
        self.misses = 0

    def reset_stats(self) -> None:
        """Zero the hit/miss counters (state is kept)."""
        self.hits = 0
        self.misses = 0

    def flush(self) -> None:
        """Invalidate all lines and zero the counters."""
        self._sets = [[] for _ in range(self.config.num_sets)]
        self.reset_stats()

    @property
    def accesses(self) -> int:
        """Total accesses observed since the last counter reset."""
        return self.hits + self.misses

    @property
    def miss_rate(self) -> float:
        """Miss fraction since the last counter reset (0 when idle)."""
        if self.accesses == 0:
            return 0.0
        return self.misses / self.accesses

    def access(self, address: int) -> bool:
        """Access one byte address; returns True on hit."""
        config = self.config
        line = address // config.line_bytes
        ways = self._sets[line % config.num_sets]
        try:
            position = ways.index(line)
        except ValueError:
            self.misses += 1
            ways.insert(0, line)
            if len(ways) > config.associativity:
                ways.pop()
            return False
        self.hits += 1
        ways.insert(0, ways.pop(position))
        return True

    def access_many(self, addresses: Iterable[int]) -> int:
        """Access a stream of addresses; returns the number of hits."""
        before = self.hits
        for address in addresses:
            self.access(int(address))
        return self.hits - before


class _Fenwick:
    """Prefix-sum tree over positions."""

    def __init__(self, size: int) -> None:
        self._tree = np.zeros(size + 1, dtype=np.int64)
        self._size = size

    def add(self, index: int, delta: int) -> None:
        index += 1
        while index <= self._size:
            self._tree[index] += delta
            index += index & (-index)

    def prefix(self, index: int) -> int:
        """Sum of [0, index)."""
        total = 0
        while index > 0:
            total += self._tree[index]
            index -= index & (-index)
        return int(total)


def reuse_distances_reference(addresses: np.ndarray) -> np.ndarray:
    """Online Fenwick-tree form of
    :func:`repro.profiling.wset.reuse_distances`."""
    lines = np.asarray(addresses, dtype=np.int64) // LINE_BYTES
    n = len(lines)
    distances = np.full(n, -1, dtype=np.int64)
    tree = _Fenwick(n)
    last_position: Dict[int, int] = {}
    for i in range(n):
        line = int(lines[i])
        previous = last_position.get(line)
        if previous is not None:
            # Distinct lines touched strictly between the two accesses =
            # marked last-occurrence positions in (previous, i).
            distances[i] = tree.prefix(i) - tree.prefix(previous + 1)
            tree.add(previous, -1)
        tree.add(i, +1)
        last_position[line] = i
    return distances


def generate_branch_outcomes_reference(
    taken_rate: float,
    transition_rate: float,
    length: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Step-by-step form of
    :func:`repro.hw.branch.generate_branch_outcomes`."""
    if length <= 0:
        raise ConfigurationError("stream length must be positive")
    if not 0.0 <= taken_rate <= 1.0 or not 0.0 <= transition_rate <= 1.0:
        raise ConfigurationError("rates must be within [0, 1]")
    p = min(max(taken_rate, 1e-6), 1.0 - 1e-6)
    t = min(transition_rate, 2.0 * min(p, 1.0 - p))
    a = min(1.0, t / (2.0 * p))
    b = min(1.0, t / (2.0 * (1.0 - p)))
    outcomes = np.empty(length, dtype=bool)
    state = rng.random() < p
    randoms = rng.random(length)
    for i in range(length):
        outcomes[i] = state
        flip = randoms[i] < (a if state else b)
        if flip:
            state = not state
    return outcomes


def predict_and_update(predictor: GsharePredictor, pc: int,
                       taken: bool) -> bool:
    """One branch through ``predictor``, the scalar form of
    :meth:`~repro.hw.branch.GsharePredictor.predict_and_update_many`.

    Returns True when the prediction was correct.
    """
    index = (pc ^ predictor._history) & predictor._mask
    table = predictor._table
    correct = (table[index] >= 2) == taken
    predictor.predictions += 1
    if not correct:
        predictor.mispredictions += 1
    if taken and table[index] < 3:
        table[index] += 1
    elif not taken and table[index] > 0:
        table[index] -= 1
    history_mask = (1 << predictor.history_bits) - 1
    predictor._history = ((predictor._history << 1) | int(taken)) \
        & history_mask
    return correct


def add_topdown(left: TopDownBreakdown,
                right: TopDownBreakdown) -> TopDownBreakdown:
    """A new breakdown holding the bucket sums of ``left`` and ``right``."""
    return TopDownBreakdown.unchecked(
        left.retiring + right.retiring,
        left.frontend + right.frontend,
        left.bad_speculation + right.bad_speculation,
        left.backend + right.backend,
    )


def add_timings(left: BlockTiming, right: BlockTiming) -> BlockTiming:
    """A new timing holding the field sums of ``left`` and ``right``.

    The out-of-place fold :meth:`~repro.hw.core.BlockTiming.accumulate`
    must equal bit for bit.
    """
    return BlockTiming(
        cycles=left.cycles + right.cycles,
        instructions=left.instructions + right.instructions,
        uops=left.uops + right.uops,
        branches=left.branches + right.branches,
        branch_mispredictions=(left.branch_mispredictions
                               + right.branch_mispredictions),
        l1i_accesses=left.l1i_accesses + right.l1i_accesses,
        l1i_misses=left.l1i_misses + right.l1i_misses,
        l1d_accesses=left.l1d_accesses + right.l1d_accesses,
        l1d_misses=left.l1d_misses + right.l1d_misses,
        l2_accesses=left.l2_accesses + right.l2_accesses,
        l2_misses=left.l2_misses + right.l2_misses,
        llc_accesses=left.llc_accesses + right.llc_accesses,
        llc_misses=left.llc_misses + right.llc_misses,
        memory_bytes=left.memory_bytes + right.memory_bytes,
        topdown=add_topdown(left.topdown, right.topdown),
    )
