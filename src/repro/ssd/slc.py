"""Pseudo-SLC write buffer (Samsung "TurboWrite" class).

Consumer drives reserve a handful of blocks and program them in SLC mode:
bursts of host writes land there quickly and are drained to the main
(MLC/TLC) area in the background.  The paper's JTAG study found the
840 EVO keeps "an additional hashed index ... presumably to map addresses
in the device's pseudo-SLC buffer" — the buffer's lookup structure here is
deliberately a hash map (not an array) so the memory-layout RE experiment
can rediscover that distinction.

Capacity simplification: pSLC mode halves/thirds real cell capacity; this
model keeps the nominal page size and instead reserves whole blocks, which
preserves the behaviours that matter to the experiments (burst absorption,
drain-induced background writes, a separate index structure).
"""

from __future__ import annotations

from repro.flash.geometry import Geometry
from repro.obs.events import SlcMigration
from repro.obs.sinks import NULL_SINK, TraceSink


class PslcBuffer:
    """Block-granular pSLC staging area with a hashed LPN index."""

    def __init__(self, geometry: Geometry, block_indices: list[int]) -> None:
        self.geometry = geometry
        self.blocks = list(block_indices)
        self._spp = geometry.sectors_per_page
        self._ppb = geometry.pages_per_block
        #: a buffer block's PSAs are ``[block * _spb, (block + 1) * _spb)``.
        self._spb = self._spp * self._ppb
        #: per-block write cursors; pages are handed out round-robin
        #: across blocks so bursts land on as many dies as the buffer
        #: spans (the blocks themselves are plane-striped).  The one
        #: record of the fill level (recovery sets it from the NAND's
        #: write pointers).
        self._cursor: dict[int, int] = {b: 0 for b in self.blocks}
        self._rr = 0
        #: the hashed index: lpn -> physical sector address within the
        #: buffer, in first-staged order (a re-staged LPN keeps its place).
        self.index: dict[int, int] = {}
        self.obs: TraceSink = NULL_SINK

    # ------------------------------------------------------------------

    @property
    def enabled(self) -> bool:
        return bool(self.blocks)

    def used_fraction(self) -> float:
        """Fraction of buffer pages already written (fill level)."""
        if not self.blocks:
            return 0.0
        used = sum(self._cursor.values())
        return used / (len(self.blocks) * self._ppb)

    def has_space(self) -> bool:
        ppb = self._ppb
        return min(self._cursor.values(), default=ppb) < ppb

    # ------------------------------------------------------------------
    # Write path
    # ------------------------------------------------------------------

    def stage_page(self, lpns: list[int]) -> int:
        """Stage up to one flash page worth of host sectors.

        Returns the *ppn* the caller programs once (with a full per-slot
        OOB record); the index now maps ``lpns[i]`` to slot *i* of it.
        Staging whole pages keeps the buffer recoverable after power
        loss.
        """
        spp = self._spp
        if not lpns or len(lpns) > spp:
            raise ValueError(f"stage_page takes 1..{spp} sectors")
        ppn = self._allocate_page()
        index = self.index
        psa = ppn * spp
        for lpn in lpns:
            index[lpn] = psa
            psa += 1
        return ppn

    def _allocate_page(self) -> int:
        """The next page round-robin over the blocks with space; raises
        (changing nothing) when every block is full."""
        blocks, cursors, ppb = self.blocks, self._cursor, self._ppb
        rr = self._rr
        for step in range(len(blocks)):
            block = blocks[(rr + step) % len(blocks)]
            cursor = cursors[block]
            if cursor < ppb:
                cursors[block] = cursor + 1
                self._rr = rr + step + 1
                return block * ppb + cursor
        raise RuntimeError("pSLC buffer full; drain before staging")

    # ------------------------------------------------------------------
    # Lookup / invalidation
    # ------------------------------------------------------------------

    def lookup(self, lpn: int) -> int | None:
        """Physical sector address if *lpn* currently lives in the buffer."""
        return self.index.get(lpn)

    def invalidate(self, lpn: int) -> bool:
        """Drop a buffered sector (trimmed); True if it was buffered."""
        return self.index.pop(lpn, None) is not None

    def discard(self, lpns: list[int]) -> None:
        """Drop the buffered copies of *lpns*, which now have a fresh
        main-area copy (host page, drain page or migration): it
        supersedes them."""
        pop = self.index.pop
        for lpn in lpns:
            pop(lpn, None)

    # ------------------------------------------------------------------
    # Draining
    # ------------------------------------------------------------------

    def pick_drain_block(self) -> int | None:
        """The most-written buffer block (fullest first)."""
        candidates = [b for b in self.blocks if self._cursor[b] > 0]
        if not candidates:
            return None
        return max(candidates, key=lambda b: self._cursor[b])

    def evict_block(self, block_index: int) -> list[tuple[int, int]]:
        """Remove *block_index* from the buffer for draining.

        Returns the ``(lpn, psa)`` pairs still valid in that block — the
        FTL migrates them to the main area and then erases the block.
        They come in index order, which fixes the sectors that share a
        drained page.
        """
        lo = block_index * self._spb
        hi = lo + self._spb
        index = self.index
        victims = [(lpn, psa) for lpn, psa in index.items() if lo <= psa < hi]
        for lpn, _ in victims:
            del index[lpn]
        self._cursor[block_index] = 0
        if self.obs.enabled:
            self.obs.emit(SlcMigration(block=block_index,
                                       sectors=len(victims)))
        return victims
