"""Set-associative cache array with true-LRU replacement.

The cache stores :class:`~repro.mem.block.CacheBlock` objects keyed by
block-aligned address.  Sets are ordered dicts (insertion order = LRU order,
refreshed on access), which gives O(1) lookup, touch, and eviction.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Dict, Iterator, Optional

from repro.common.config import CacheConfig
from repro.common.types import CoherenceState
from repro.mem.block import CacheBlock

EvictionHook = Callable[[CacheBlock], None]


def set_index_params(config: CacheConfig) -> tuple:
    """``(num_sets, block_shift, set_mask)`` for a cache geometry.

    ``block_shift``/``set_mask`` are -1 when the block size / set count is
    not a power of two (the caller must then use the slow arithmetic).
    Shared between :class:`SetAssocCache` and the replay kernel so both
    sides index sets identically by construction.
    """
    num_sets = config.num_sets
    bs = config.block_size
    block_shift = bs.bit_length() - 1 if bs & (bs - 1) == 0 else -1
    set_mask = (
        num_sets - 1
        if block_shift >= 0 and num_sets & (num_sets - 1) == 0
        else -1
    )
    return num_sets, block_shift, set_mask


class SetAssocCache:
    """An LRU set-associative cache of :class:`CacheBlock` entries."""

    def __init__(
        self,
        config: CacheConfig,
        name: str = "cache",
        on_evict: Optional[EvictionHook] = None,
        tracer=None,
    ) -> None:
        config.validate()
        self.config = config
        self.name = name
        self.on_evict = on_evict
        #: optional :class:`repro.obs.tracer.Tracer` (eviction events)
        self.tracer = tracer
        self.assoc = config.associativity
        self.block_size = config.block_size
        # Block sizes are powers of two in every paper configuration, so the
        # divide in set indexing becomes a shift; when the set count is also
        # a power of two the modulo becomes a mask.  -1 marks "not a power
        # of two, use the slow arithmetic".
        self.num_sets, self._block_shift, self._set_mask = set_index_params(
            config
        )
        self._sets: Dict[int, "OrderedDict[int, CacheBlock]"] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # ------------------------------------------------------------------
    def set_index(self, block_addr: int) -> int:
        mask = self._set_mask
        if mask >= 0:
            return (block_addr >> self._block_shift) & mask
        if self._block_shift >= 0:
            return (block_addr >> self._block_shift) % self.num_sets
        return (block_addr // self.block_size) % self.num_sets

    def _set_for(self, block_addr: int) -> "OrderedDict[int, CacheBlock]":
        idx = self.set_index(block_addr)
        existing = self._sets.get(idx)
        if existing is None:
            existing = OrderedDict()
            self._sets[idx] = existing
        return existing

    # ------------------------------------------------------------------
    def lookup(self, block_addr: int, touch: bool = True) -> Optional[CacheBlock]:
        """Return the block if present (and valid), refreshing LRU order."""
        mask = self._set_mask
        if mask >= 0:  # inlined set_index (hot path)
            idx = (block_addr >> self._block_shift) & mask
        else:
            idx = self.set_index(block_addr)
        cset = self._sets.get(idx)
        if cset is None:
            self.misses += 1
            return None
        block = cset.get(block_addr)
        if block is None or block.state is CoherenceState.INVALID:
            self.misses += 1
            return None
        if touch:
            cset.move_to_end(block_addr)
        self.hits += 1
        return block

    def peek(self, block_addr: int) -> Optional[CacheBlock]:
        """Non-statistical, non-LRU-refreshing lookup (for checkers/tests)."""
        cset = self._sets.get(self.set_index(block_addr))
        if cset is None:
            return None
        block = cset.get(block_addr)
        if block is None or block.state is CoherenceState.INVALID:
            return None
        return block

    def _make_room(self, cset: "OrderedDict[int, CacheBlock]") -> None:
        """Evict LRU ways until the set has a free way."""
        while len(cset) >= self.assoc:
            _, victim = cset.popitem(last=False)
            self.evictions += 1
            if victim.state is not CoherenceState.INVALID:
                tracer = self.tracer
                if tracer is not None and tracer.enabled:
                    tracer.eviction(self.name, victim.addr, victim.state.value)
                if self.on_evict is not None:
                    self.on_evict(victim)

    def install(self, block_addr: int, state: CoherenceState) -> CacheBlock:
        """Insert a block (evicting the LRU way if the set is full)."""
        cset = self._set_for(block_addr)
        block = cset.get(block_addr)
        if block is not None:
            block.state = state
            cset.move_to_end(block_addr)
            return block
        self._make_room(cset)
        block = CacheBlock(block_addr, state)
        cset[block_addr] = block
        return block

    def install_block(self, block: CacheBlock) -> CacheBlock:
        """Insert an existing :class:`CacheBlock` object (shared with another
        level of the same private hierarchy, so state updates stay coherent
        between L1 and L2 by construction)."""
        cset = self._set_for(block.addr)
        if block.addr in cset:
            cset[block.addr] = block
            cset.move_to_end(block.addr)
            return block
        self._make_room(cset)
        cset[block.addr] = block
        return block

    def invalidate(self, block_addr: int) -> Optional[CacheBlock]:
        """Remove a block without triggering the eviction hook."""
        cset = self._sets.get(self.set_index(block_addr))
        if cset is None:
            return None
        return cset.pop(block_addr, None)

    # ------------------------------------------------------------------
    def __contains__(self, block_addr: int) -> bool:
        return self.peek(block_addr) is not None

    def __len__(self) -> int:
        """Number of valid blocks (INVALID ways are dead, as in blocks())."""
        return sum(
            1
            for cset in self._sets.values()
            for block in cset.values()
            if block.state is not CoherenceState.INVALID
        )

    def blocks(self) -> Iterator[CacheBlock]:
        for cset in self._sets.values():
            for block in cset.values():
                if block.state is not CoherenceState.INVALID:
                    yield block

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
