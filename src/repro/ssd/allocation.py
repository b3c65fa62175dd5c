"""Page allocation: where the next physical page comes from.

Tavakkol et al. (TOPMECS '16) showed that the *order* in which an FTL
spreads consecutive writes over its parallelism dimensions — Channel, Way
(chip), Die, Plane — changes performance substantially; the paper varies
CWDP vs. PDWC as one of its three "basic design features" in the Fig 3
experiment.

The ordering itself (and optional stream separation) is a policy
object from :data:`repro.ssd.policy.ALLOCATION`; this module owns block
lifecycle: per-plane free-block pools, one active (partially-written)
block per ``(plane, stream)``, bad-block retirement, and handing erased
blocks back.  Write *streams* keep host data, GC migrations, and mapping
metadata in separate active blocks, as real FTLs do to avoid mixing
lifetimes; stream-separating policies can add streams of their own
(e.g. ``hotcold``'s ``cold`` stream).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.flash.geometry import Geometry
from repro.flash.nand import NandArray
from repro.ssd.policy import SchemeAllocation

#: Builtin open-block streams (policies may add more via extra_streams).
STREAMS = ("host", "gc", "meta")


class OutOfSpace(Exception):
    """No free block exists anywhere — the FTL failed to GC in time."""


@dataclass
class _ActiveBlock:
    block_index: int
    next_page: int


class PageAllocator:
    """Hands out physical pages according to an allocation policy.

    Parameters
    ----------
    geometry, nand:
        The flash being allocated over.
    policy:
        The allocation object, e.g. ``SchemeAllocation("PDWC")`` or
        ``HotColdAllocation()`` (what :data:`~repro.ssd.policy.ALLOCATION`
        builds); bound to *geometry* here.
    excluded_blocks:
        Blocks owned by someone else (e.g. the pSLC buffer) — never
        allocated here.
    gc_low_water_blocks:
        The FTL's GC low watermark: :attr:`planes_at_watermark` counts
        the planes whose free pool is at or below it (-1 = none).

    Every piece of block state is read off *nand* here, so an allocator
    over a fresh array and one over a recovered array are built the same
    way: blocks with write pointer 0 are free (the lowest index in each
    plane popped first), fully-written blocks are sealed, and the blocks
    that are not free are ranked by the program stamp of their page 0 —
    the OOB sequence number, which survives power loss — so block age
    (:attr:`block_alloc_seq`) is kept across a crash.  No block is open
    until the first allocation; a partially-written block is neither
    free nor sealed.
    """

    def __init__(
        self,
        geometry: Geometry,
        nand: NandArray,
        policy: SchemeAllocation,
        excluded_blocks: frozenset[int] = frozenset(),
        gc_low_water_blocks: int = -1,
    ) -> None:
        self.geometry = geometry
        self.policy = policy
        policy.bind(geometry)
        self.scheme = policy.name
        self.streams: tuple[str, ...] = STREAMS + policy.extra_streams
        # Bound once: the hot allocation path calls the policy's method
        # directly, with no per-allocation dispatch.
        self.plane_for_index = policy.plane_for_index
        self.route = policy.route
        self.excluded_blocks = excluded_blocks

        ppb = self._ppb = geometry.pages_per_block
        planes = self._planes = geometry.planes_total
        bpp = geometry.blocks_per_plane
        #: per-plane free pools; pop() yields the lowest block index first.
        self._free_blocks: list[list[int]] = [[] for _ in range(planes)]
        #: per-plane sealed-block index: fully-written, non-active,
        #: non-retired blocks — exactly the GC candidate pool.  Kept
        #: incrementally on block state changes so victim selection is
        #: O(candidates), not a full plane scan per GC invocation.
        self._sealed: list[set[int]] = [set() for _ in range(planes)]
        used: list[int] = []  # the blocks that are not free
        write_ptr = nand.block_write_ptr.tolist()
        for block in range(geometry.total_blocks - 1, -1, -1):
            if block in excluded_blocks:
                continue
            ptr = write_ptr[block]
            if ptr == 0:
                self._free_blocks[block // bpp].append(block)
                continue
            used.append(block)
            if ptr >= ppb:
                self._sealed[block // bpp].add(block)
        self._active: dict[tuple[int, str], _ActiveBlock] = {}
        self._stream_counters: dict[str, int] = {s: 0 for s in self.streams}
        self._retired: set[int] = set()
        used.sort(key=nand.page_seq[::ppb].tolist().__getitem__)
        #: monotonically increasing allocation stamp per block (for FIFO GC).
        self.block_alloc_seq: dict[int, int] = {
            block: rank for rank, block in enumerate(used, 1)
        }
        self._alloc_seq = len(used)
        #: ``_low_planes`` counts planes whose free pool is at or below
        #: the GC low watermark, so the FTL's free-space check is O(1)
        #: instead of a per-program scan over every plane.
        self._gc_low_water = gc_low_water_blocks
        self._low_planes = sum(
            1 for pool in self._free_blocks if len(pool) <= gc_low_water_blocks
        )

    def _plane_of_block(self, block_index: int) -> int:
        return block_index // self.geometry.blocks_per_plane

    # ------------------------------------------------------------------
    # Allocation
    # ------------------------------------------------------------------

    def allocate_page(self, stream: str = "host") -> int:
        """Return the PPN of the next page for *stream*.

        Follows the policy's plane ordering; if the target plane is
        exhausted the allocator falls over to the next plane with
        space, so allocation only fails when the whole device is full.
        """
        counters = self._stream_counters
        index = counters.get(stream)
        if index is None:
            raise ValueError(f"unknown stream {stream!r}")
        counters[stream] = index + 1
        target = self.plane_for_index(index)
        # The policy's plane first: its open block almost always has
        # room, and then the page is that block's next one.
        active = self._active.get((target, stream))
        if active is not None:
            page = active.next_page
            if page < self._ppb:
                active.next_page = page + 1
                return active.block_index * self._ppb + page
        ppn = self._page_in_plane(target, stream)
        if ppn is not None:
            return ppn
        planes = self._planes
        for offset in range(1, planes):
            ppn = self._page_in_plane((target + offset) % planes, stream)
            if ppn is not None:
                return ppn
        raise OutOfSpace("no free pages in any plane")

    def _page_in_plane(self, plane: int, stream: str) -> int | None:
        key = (plane, stream)
        active = self._active.get(key)
        if active is None or active.next_page >= self._ppb:
            block = self._pop_free_block(plane)
            if block is None:
                return None
            if active is not None:
                # The outgoing active block is fully written: it joins
                # the GC candidate pool the moment it stops being active.
                self._sealed[plane].add(active.block_index)
            active = _ActiveBlock(block, 0)
            self._active[key] = active
        ppn = active.block_index * self._ppb + active.next_page
        active.next_page += 1
        return ppn

    def _pop_free_block(self, plane: int) -> int | None:
        pool = self._free_blocks[plane]
        low = self._gc_low_water
        while pool:
            block = pool.pop()
            if len(pool) == low:
                self._low_planes += 1
            if block in self._retired:
                continue
            self._alloc_seq += 1
            self.block_alloc_seq[block] = self._alloc_seq
            self._sealed[plane].discard(block)
            return block
        return None

    # ------------------------------------------------------------------
    # Block lifecycle
    # ------------------------------------------------------------------

    def release_block(self, block_index: int) -> None:
        """Return an erased block to its plane's free pool."""
        if block_index in self._retired:
            return
        plane = self._plane_of_block(block_index)
        self.block_alloc_seq.pop(block_index, None)
        self._sealed[plane].discard(block_index)
        pool = self._free_blocks[plane]
        pool.append(block_index)
        if len(pool) == self._gc_low_water + 1:
            self._low_planes -= 1

    def retire_block(self, block_index: int) -> None:
        """Permanently remove a bad block from circulation."""
        self._retired.add(block_index)
        plane = self._plane_of_block(block_index)
        pool = self._free_blocks[plane]
        if block_index in pool:
            pool.remove(block_index)
            if len(pool) == self._gc_low_water:
                self._low_planes += 1
        self._sealed[plane].discard(block_index)
        for key, active in list(self._active.items()):
            if active.block_index == block_index:
                del self._active[key]

    # ------------------------------------------------------------------
    # Sealed-block index (GC candidate pool)
    # ------------------------------------------------------------------

    def sealed_blocks(self, plane: int) -> set[int]:
        """The incrementally-maintained GC candidate pool for *plane*:
        fully-written blocks that are neither active, retired nor
        excluded.  The one statement of that rule: GC, wear levelling,
        refresh and the host FTL all choose from it (sorted, where the
        order matters)."""
        return self._sealed[plane]

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def planes_at_watermark(self) -> int:
        """How many planes currently sit at or below the GC watermark.
        Zero means a free-space check can skip the plane scan entirely."""
        return self._low_planes

    def free_blocks_in_plane(self, plane: int) -> int:
        return len(self._free_blocks[plane])

    def total_free_blocks(self) -> int:
        return sum(len(pool) for pool in self._free_blocks)

    def active_blocks(self) -> set[int]:
        """Blocks currently open for writing (exempt from GC victimhood)."""
        return {a.block_index for a in self._active.values()}

    @property
    def retired_blocks(self) -> frozenset[int]:
        return frozenset(self._retired)
