"""Static wear leveling.

Dynamic allocation alone lets cold data pin blocks at low erase counts
while hot blocks wear out.  Static wear leveling periodically migrates
the *coldest* populated block so its low-wear home returns to the free
pool.  The paper lists wear leveling among the FTL mechanisms that
black-box models cannot see; here it is an optional feature
(``SsdConfig.wear_leveling``) whose traffic is attributed to
``OpReason.WEAR`` so experiments can observe exactly what it costs.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.flash.geometry import Geometry
from repro.flash.nand import NandArray
from repro.obs.events import WearRebalance
from repro.obs.sinks import NULL_SINK, TraceSink
from repro.ssd.allocation import PageAllocator
from repro.ssd.policy import coldest


class WearLeveler:
    """Chooses cold blocks to rotate back into circulation.

    Triggers when the erase-count spread (max - min over non-retired
    blocks) exceeds ``delta``; which block then migrates is delegated
    to *policy*, ``pick(leveler) -> block | None`` (an entry of
    :data:`~repro.ssd.policy.WEAR`; default ``coldest``: the
    fully-written block with the lowest erase count).
    """

    def __init__(
        self,
        geometry: Geometry,
        nand: NandArray,
        allocator: PageAllocator,
        delta: int = 100,
        policy: Callable[["WearLeveler"], int | None] = coldest,
        sample_size: int = 8,
        seed: int = 12345,
    ) -> None:
        if delta < 1:
            raise ValueError("delta must be >= 1")
        #: the policy label trace events carry.
        self.policy = policy.__name__
        self._pick = policy
        self.geometry = geometry
        self.nand = nand
        self.allocator = allocator
        self.delta = delta
        self.sample_size = max(2, sample_size)
        self.rng = np.random.default_rng(seed)
        self.obs: TraceSink = NULL_SINK

    def spread(self) -> int:
        counts = self.nand.block_erase_count
        retired = self.allocator.retired_blocks
        if retired:
            mask = np.ones(len(counts), dtype=bool)
            mask[list(retired)] = False
            counts = counts[mask]
        if len(counts) == 0:
            return 0
        return int(counts.max() - counts.min())

    def should_level(self) -> bool:
        return self.spread() > self.delta

    def eligible_blocks(self):
        """The allocator's sealed blocks — fully written, neither active,
        retired nor excluded — the pool wear policies choose from, in
        block order."""
        sealed = self.allocator.sealed_blocks
        for plane in range(self.geometry.planes_total):
            yield from sorted(sealed(plane))

    def pick_victim(self) -> int | None:
        """The policy's migration victim, or None if nothing is eligible."""
        victim = self._pick(self)
        if victim is not None and self.obs.enabled:
            self.obs.emit(WearRebalance(
                victim=victim,
                erase_count=int(self.nand.block_erase_count[victim]),
                spread=self.spread()))
        return victim
