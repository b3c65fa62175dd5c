"""Page allocation: scheme orderings, pools, retirement."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.flash.geometry import Geometry
from repro.flash.nand import NandArray
from repro.ssd.allocation import OutOfSpace, PageAllocator
from repro.ssd.policy import ALLOCATION, SchemeAllocation

GEOM = Geometry(
    channels=2, chips_per_channel=1, dies_per_chip=2, planes_per_die=2,
    blocks_per_plane=4, pages_per_block=4, page_size=8192, sector_size=4096,
)


def make(scheme="CWDP", excluded=frozenset()):
    nand = NandArray(GEOM)
    return PageAllocator(GEOM, nand, SchemeAllocation(scheme),
                         excluded_blocks=excluded)


def mixed_radix_plane(scheme: str, geometry: Geometry, index: int) -> int:
    """The scheme's definition, written out: *index* decomposed over the
    dimension sizes in scheme order (fastest-varying first), the
    coordinates recombined in the fixed C/W/D/P plane numbering."""
    sizes = {"C": geometry.channels, "W": geometry.chips_per_channel,
             "D": geometry.dies_per_chip, "P": geometry.planes_per_die}
    coords = {}
    for letter in scheme:
        index, coords[letter] = divmod(index, sizes[letter])
    return (((coords["C"] * sizes["W"] + coords["W"]) * sizes["D"]
             + coords["D"]) * sizes["P"] + coords["P"])


class TestSchemeOrdering:
    @pytest.mark.parametrize("geometry", [
        GEOM,
        Geometry(channels=3, chips_per_channel=2, dies_per_chip=1,  # a 1
                 planes_per_die=2, blocks_per_plane=2, pages_per_block=2,
                 page_size=8192, sector_size=4096),
        Geometry(channels=2, chips_per_channel=3, dies_per_chip=2,
                 planes_per_die=4, blocks_per_plane=2, pages_per_block=2,
                 page_size=8192, sector_size=4096),
    ], ids=["2x1x2x2", "3x2x1x2", "2x3x2x4"])
    @pytest.mark.parametrize("name", ALLOCATION)
    def test_plane_order_is_the_mixed_radix_decomposition(self, name, geometry):
        # SchemeAllocation serves one period of the order from a table;
        # indices run past three periods to pin the wrap-around.
        alloc = PageAllocator(geometry, NandArray(geometry), ALLOCATION[name]())
        scheme = alloc.policy.scheme  # hotcold orders planes as CWDP
        assert name in (scheme, "hotcold")
        for index in range(3 * geometry.planes_total + 5):
            assert alloc.plane_for_index(index) == mixed_radix_plane(
                scheme, geometry, index), index

    def test_cwdp_varies_channel_first(self):
        alloc = make("CWDP")
        planes = [alloc.plane_for_index(i) for i in range(4)]
        # Consecutive writes land on different channels (plane stride is
        # the per-channel plane count).
        channels = [p // (GEOM.chips_per_channel * GEOM.dies_per_chip
                          * GEOM.planes_per_die) for p in planes]
        assert channels[:2] == [0, 1]
        assert channels[0] != channels[1]

    def test_pdwc_varies_plane_first(self):
        alloc = make("PDWC")
        planes = [alloc.plane_for_index(i) for i in range(4)]
        # First two picks differ only in plane (same channel/die).
        assert planes[0] == 0
        assert planes[1] == 1  # plane 1 of die 0, channel 0

    def test_all_planes_covered(self):
        alloc = make("CWDP")
        total = GEOM.planes_total
        seen = {alloc.plane_for_index(i) for i in range(total)}
        assert seen == set(range(total))

    def test_pdwc_and_cwdp_orders_differ(self):
        a = make("CWDP")
        b = make("PDWC")
        order_a = [a.plane_for_index(i) for i in range(GEOM.planes_total)]
        order_b = [b.plane_for_index(i) for i in range(GEOM.planes_total)]
        assert order_a != order_b
        assert sorted(order_a) == sorted(order_b)

    def test_invalid_scheme_letter(self):
        with pytest.raises(ValueError):
            make("CWDX")

    def test_repeated_letter(self):
        with pytest.raises(ValueError):
            make("CCWD")


class TestAllocation:
    def test_pages_unique_until_full(self):
        alloc = make()
        seen = set()
        for _ in range(GEOM.total_pages):
            ppn = alloc.allocate_page("host")
            assert ppn not in seen
            seen.add(ppn)
        assert seen == set(range(GEOM.total_pages))

    def test_out_of_space(self):
        alloc = make()
        for _ in range(GEOM.total_pages):
            alloc.allocate_page("host")
        with pytest.raises(OutOfSpace):
            alloc.allocate_page("host")

    def test_pages_sequential_within_block(self):
        alloc = make("CWDP")
        by_block = {}
        for _ in range(GEOM.total_pages):
            ppn = alloc.allocate_page("host")
            block, page = divmod(ppn, GEOM.pages_per_block)
            by_block.setdefault(block, []).append(page)
        for pages in by_block.values():
            assert pages == sorted(pages)
            assert pages == list(range(len(pages)))

    def test_streams_use_distinct_blocks(self):
        alloc = make()
        a = alloc.allocate_page("host") // GEOM.pages_per_block
        b = alloc.allocate_page("gc") // GEOM.pages_per_block
        c = alloc.allocate_page("meta") // GEOM.pages_per_block
        assert len({a, b, c}) == 3

    def test_unknown_stream(self):
        with pytest.raises(ValueError):
            make().allocate_page("turbo")

    def test_excluded_blocks_never_allocated(self):
        excluded = frozenset({0, 1})
        alloc = make(excluded=excluded)
        blocks = set()
        for _ in range(GEOM.total_pages - len(excluded) * GEOM.pages_per_block):
            blocks.add(alloc.allocate_page("host") // GEOM.pages_per_block)
        assert not blocks & excluded


class TestLifecycle:
    def test_release_makes_block_reusable(self):
        alloc = make()
        first_block = alloc.allocate_page("host") // GEOM.pages_per_block
        for _ in range(GEOM.total_pages - 1):
            alloc.allocate_page("host")
        alloc.release_block(first_block)
        ppn = alloc.allocate_page("host")
        assert ppn // GEOM.pages_per_block == first_block

    def test_retired_block_not_reused(self):
        alloc = make()
        block = alloc.allocate_page("host") // GEOM.pages_per_block
        alloc.retire_block(block)
        alloc.release_block(block)  # release of retired block is ignored
        blocks = set()
        while True:
            try:
                blocks.add(alloc.allocate_page("host") // GEOM.pages_per_block)
            except OutOfSpace:
                break
        assert block not in blocks

    def test_active_blocks_reported(self):
        alloc = make()
        ppn = alloc.allocate_page("host")
        assert ppn // GEOM.pages_per_block in alloc.active_blocks()

    def test_free_block_counters(self):
        alloc = make()
        total = alloc.total_free_blocks()
        assert total == GEOM.total_blocks
        alloc.allocate_page("host")
        assert alloc.total_free_blocks() == total - 1

    def test_alloc_seq_monotone(self):
        alloc = make()
        b1 = alloc.allocate_page("host") // GEOM.pages_per_block
        # Exhaust block b1 so the next allocation opens a new block.
        for _ in range(GEOM.pages_per_block - 1):
            alloc.allocate_page("host")
        b2 = alloc.allocate_page("host") // GEOM.pages_per_block
        assert alloc.block_alloc_seq[b2] > alloc.block_alloc_seq[b1]


class TestBuiltFromTheArray:
    def test_block_state_read_off_the_nand(self):
        ppb, bpp = GEOM.pages_per_block, GEOM.blocks_per_plane
        nand = NandArray(GEOM)

        def write(block, pages=ppb):
            for page in range(pages):
                nand.program(block * ppb + page)

        write(5)            # plane 1, programmed first
        write(1)            # plane 0
        write(2, pages=1)   # plane 0, partially written
        write(3)            # plane 0, excluded (another owner's block)
        alloc = PageAllocator(GEOM, nand, SchemeAllocation("CWDP"),
                              excluded_blocks=frozenset({3}),
                              gc_low_water_blocks=1)
        assert alloc.sealed_blocks(0) == {1}
        assert alloc.sealed_blocks(1) == {5}
        assert alloc.active_blocks() == set()
        # Free = write pointer 0; the partial and excluded blocks are not.
        assert alloc.free_blocks_in_plane(0) == 1
        assert alloc.free_blocks_in_plane(1) == bpp - 1
        assert alloc.total_free_blocks() == GEOM.total_blocks - 4
        assert alloc.planes_at_watermark == 1  # plane 0: one free block
        # Age: the non-free blocks ranked by their page-0 program stamp.
        assert alloc.block_alloc_seq == {5: 1, 1: 2, 2: 3}
        # Lowest free block first; new blocks stamp after the ranks.
        ppn = alloc.allocate_page("host")
        assert ppn == 0
        assert alloc.block_alloc_seq[0] == 4
        assert alloc.planes_at_watermark == 1  # plane 0 now has none


# ----------------------------------------------------------------------
# Property: PageAllocator against a dict-and-list reference
# ----------------------------------------------------------------------

REF_GEOM = Geometry(
    channels=2, chips_per_channel=1, dies_per_chip=1, planes_per_die=2,
    blocks_per_plane=3, pages_per_block=2, page_size=8192, sector_size=4096,
)
LOW_WATER = 1


class RefAllocator:
    """Block lifecycle the slow, obvious way: one list per plane used as
    a stack of free blocks, one ``[block, pages handed out]`` per open
    ``(plane, stream)``, everything else recomputed on demand."""

    def __init__(self, scheme: str, streams) -> None:
        g = REF_GEOM
        self.order = [mixed_radix_plane(scheme, g, i)
                      for i in range(g.planes_total)]
        self.free = [list(range((p + 1) * g.blocks_per_plane - 1,
                                p * g.blocks_per_plane - 1, -1))
                     for p in range(g.planes_total)]
        self.open: dict[tuple[int, str], list[int]] = {}
        self.sealed = [set() for _ in range(g.planes_total)]
        self.retired: set[int] = set()
        self.count = dict.fromkeys(streams, 0)

    def allocate(self, stream: str) -> int:
        index, ppb = self.count[stream], REF_GEOM.pages_per_block
        self.count[stream] += 1
        planes = len(self.free)
        for offset in range(planes):
            plane = (self.order[index % planes] + offset) % planes
            slot = self.open.get((plane, stream))
            if slot is None or slot[1] == ppb:
                if not self.free[plane]:
                    continue
                if slot is not None:
                    self.sealed[plane].add(slot[0])
                slot = self.open[plane, stream] = [self.free[plane].pop(), 0]
            slot[1] += 1
            return slot[0] * ppb + slot[1] - 1
        raise OutOfSpace

    def release(self, block: int) -> None:
        if block not in self.retired:
            plane = block // REF_GEOM.blocks_per_plane
            self.sealed[plane].discard(block)
            self.free[plane].append(block)

    def retire(self, block: int) -> None:
        plane = block // REF_GEOM.blocks_per_plane
        self.retired.add(block)
        self.sealed[plane].discard(block)
        if block in self.free[plane]:
            self.free[plane].remove(block)
        self.open = {k: v for k, v in self.open.items() if v[0] != block}


_allocator_ops = st.lists(
    st.one_of(
        st.tuples(st.just("allocate"), st.integers(0, 3)),
        st.tuples(st.just("allocate"), st.integers(0, 3)),
        st.tuples(st.just("allocate"), st.integers(0, 3)),
        st.tuples(st.just("erase_release"), st.integers(0, 11)),
        st.tuples(st.just("retire"), st.integers(0, REF_GEOM.total_blocks - 1)),
    ),
    min_size=1, max_size=80,
)


@settings(max_examples=150, deadline=None)
@given(scheme=st.sampled_from(["CWDP", "PDWC", "DPWC", "hotcold"]),
       ops=_allocator_ops)
def test_allocator_matches_reference(scheme, ops):
    nand = NandArray(REF_GEOM)
    alloc = PageAllocator(REF_GEOM, nand, ALLOCATION[scheme](),
                          gc_low_water_blocks=LOW_WATER)
    streams = alloc.streams
    ref = RefAllocator(alloc.policy.scheme, streams)
    ppb = REF_GEOM.pages_per_block
    closed: set[int] = set()  # retired while open
    for op in ops:
        if op[0] == "allocate":
            stream = streams[op[1] % len(streams)]
            try:
                expected = ref.allocate(stream)
            except OutOfSpace:
                with pytest.raises(OutOfSpace):
                    alloc.allocate_page(stream)
            else:
                ppn = alloc.allocate_page(stream)
                assert ppn == expected
                assert ppn // ppb not in closed
                nand.program(ppn)
        elif op[0] == "erase_release":
            candidates = sorted(set().union(*ref.sealed))
            if candidates:
                block = candidates[op[1] % len(candidates)]
                nand.erase(block)
                alloc.release_block(block)
                ref.release(block)
        else:
            closed.update(slot[0] for slot in ref.open.values()
                          if slot[0] == op[1])
            alloc.retire_block(op[1])
            ref.retire(op[1])
        for plane in range(REF_GEOM.planes_total):
            assert alloc.sealed_blocks(plane) == ref.sealed[plane]
            assert alloc.free_blocks_in_plane(plane) == len(ref.free[plane])
        assert alloc.active_blocks() == {s[0] for s in ref.open.values()}
        assert alloc.retired_blocks == ref.retired
        assert alloc.planes_at_watermark == sum(
            len(pool) <= LOW_WATER for pool in ref.free)
