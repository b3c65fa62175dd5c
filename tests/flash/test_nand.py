"""NAND array physics: erase-before-write, sequential programming, wear."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.flash.geometry import Geometry
from repro.flash.nand import FlashViolation, NandArray, PageState

GEOM = Geometry(
    channels=1,
    chips_per_channel=1,
    dies_per_chip=1,
    planes_per_die=1,
    blocks_per_plane=4,
    pages_per_block=8,
    page_size=4096,
    sector_size=4096,
)


@pytest.fixture
def nand():
    return NandArray(GEOM)


class TestProgram:
    def test_program_marks_page(self, nand):
        nand.program(0, oob=(42,))
        assert nand.page_state[0] == PageState.PROGRAMMED
        assert nand.read(0) == (42,)

    def test_program_counts(self, nand):
        # The program sequence stamp counts the array's programs.
        nand.program(0)
        nand.program(GEOM.pages_per_block)
        assert nand.page_seq[0] == 0
        assert nand.page_seq[GEOM.pages_per_block] == 1

    def test_double_program_rejected(self, nand):
        nand.program(0)
        with pytest.raises(FlashViolation):
            nand.program(0)

    def test_out_of_order_program_rejected(self, nand):
        with pytest.raises(FlashViolation, match="sequential"):
            nand.program(1)  # page 1 before page 0

    def test_sequential_across_block_boundary_independent(self, nand):
        # Each block has its own write pointer.
        nand.program(0)
        nand.program(GEOM.pages_per_block)  # page 0 of block 1
        assert nand.block_write_ptr[0] == 1
        assert nand.block_write_ptr[1] == 1

    def test_out_of_range_rejected(self, nand):
        with pytest.raises(FlashViolation):
            nand.program(GEOM.total_pages)

    def test_oversized_oob_rejected_before_any_store(self):
        # A rejected program must leave the array untouched: the OOB
        # length check used to run after the page was marked programmed.
        geometry = Geometry(
            channels=1, chips_per_channel=1, dies_per_chip=1,
            planes_per_die=1, blocks_per_plane=2, pages_per_block=4,
            page_size=16384, sector_size=4096,  # 4 OOB slots per page
        )
        nand = NandArray(geometry)
        with pytest.raises(FlashViolation, match="OOB"):
            nand.program(0, oob=(0, 1, 2, 3, 4))
        assert nand.page_state[0] == PageState.FREE
        assert nand.block_write_ptr[0] == 0
        assert nand.page_seq[0] == -1
        assert nand.read(0) is None
        nand.program(0, oob=[0, 1, 2, 3])  # the corrected retry
        assert nand.read(0) == (0, 1, 2, 3)
        assert nand.page_seq[0] == 0

    def test_program_sees_state_staged_through_the_arrays(self, nand):
        # Tests and recovery stage state with in-place array writes; the
        # scalar views program() reads alias the same buffers.
        first = GEOM.pages_per_block  # page 0 of block 1
        nand.block_write_ptr[1] = 3
        with pytest.raises(FlashViolation, match="next page is 3"):
            nand.program(first)
        nand.program(first + 3, oob=(9,))
        assert nand.block_write_ptr[1] == 4
        assert nand.read(first + 3) == (9,)
        nand.page_state[0] = PageState.PROGRAMMED
        with pytest.raises(FlashViolation, match="already programmed"):
            nand.program(0)


class TestRead:
    def test_read_free_page(self, nand):
        assert nand.read(0) is None

    def test_read_programmed_page_lpn(self, nand):
        nand.program(0, oob=(7,))
        assert nand.read(0) == (7,)
        nand.program(1)  # no OOB record stored
        assert nand.read(1) is None

    def test_read_leaves_the_array_unchanged(self, nand):
        nand.program(0, oob=(7,))
        before = [array.copy() for array in (
            nand.page_state, nand.page_seq, nand.block_write_ptr,
            nand.page_oob_len)]
        assert nand.read(0) == nand.read(0) == (7,)
        assert nand.read(1) is None
        after = (nand.page_state, nand.page_seq, nand.block_write_ptr,
                 nand.page_oob_len)
        assert all((a == b).all() for a, b in zip(before, after))

    def test_read_out_of_range(self, nand):
        with pytest.raises(FlashViolation):
            nand.read(-1)


class TestErase:
    def test_erase_frees_pages(self, nand):
        for page in range(GEOM.pages_per_block):
            nand.program(page, oob=(page,))
        nand.erase(0)
        assert np.all(nand.page_state[: GEOM.pages_per_block] == PageState.FREE)
        assert np.all(nand.page_seq[: GEOM.pages_per_block] == -1)

    def test_erase_resets_write_pointer(self, nand):
        nand.program(0)
        nand.erase(0)
        assert nand.block_write_ptr[0] == 0
        nand.program(0)  # programmable again from page 0

    def test_erase_increments_wear(self, nand):
        nand.erase(0)
        nand.erase(0)
        assert nand.block_erase_count[0] == 2

    def test_erase_only_target_block(self, nand):
        nand.program(0)
        other_first = GEOM.pages_per_block
        nand.program(other_first)
        nand.erase(0)
        assert nand.page_state[other_first] == PageState.PROGRAMMED

    def test_erase_out_of_range(self, nand):
        with pytest.raises(FlashViolation):
            nand.erase(GEOM.total_blocks)

    def test_erase_clears_stored_data(self, nand):
        # The OOB record is all a page stores: erase drops it.
        nand.program(0, oob=(3,))
        nand.erase(0)
        assert nand.read(0) is None


class TestInspection:
    def test_block_stats(self, nand):
        # A block's stats are two cells: under sequential programming
        # its write pointer is its programmed-page count.
        nand.program(0)
        nand.program(1)
        programmed = np.count_nonzero(
            nand.page_state[:GEOM.pages_per_block] == PageState.PROGRAMMED)
        assert nand.block_write_ptr[0] == programmed == 2
        assert nand.block_erase_count[0] == 0

    def test_lpns_in_block(self, nand):
        # A page's LPN stamp is its OOB record.
        nand.program(0, oob=(10,))
        nand.program(1, oob=(11,))
        assert [nand.read(ppn) for ppn in range(3)] == [(10,), (11,), None]

    def test_wear_summary(self, nand):
        nand.erase(0)
        nand.erase(0)
        nand.erase(1)
        summary = nand.wear_summary()
        assert summary["max"] == 2
        assert summary["total"] == 3


@settings(max_examples=30)
@given(st.lists(st.sampled_from(["program", "erase0", "erase1"]), max_size=40))
def test_write_pointer_invariant_property(ops):
    """After any op sequence, write pointer == programmed page count per block,
    and programmed pages are exactly the prefix below the pointer."""
    nand = NandArray(GEOM)
    next_page = [0, 0]
    for op in ops:
        if op == "program":
            block = 0 if next_page[0] <= next_page[1] else 1
            if next_page[block] >= GEOM.pages_per_block:
                continue
            nand.program(block * GEOM.pages_per_block + next_page[block])
            next_page[block] += 1
        elif op == "erase0":
            nand.erase(0)
            next_page[0] = 0
        else:
            nand.erase(1)
            next_page[1] = 0
    for block in (0, 1):
        start = block * GEOM.pages_per_block
        states = nand.page_state[start : start + GEOM.pages_per_block]
        ptr = int(nand.block_write_ptr[block])
        assert np.all(states[:ptr] == PageState.PROGRAMMED)
        assert np.all(states[ptr:] == PageState.FREE)


def test_clone_copies_each_state_array_once():
    # Fleet shards and crash sweeps clone the NAND on every power cut:
    # the twin's arrays are the only large allocations it may make.
    import tracemalloc

    from repro.ssd.presets import mqsim_baseline

    nand = NandArray(mqsim_baseline().geometry)
    nand.program(0, oob=(7, 8))
    nbytes = sum(array.nbytes for array in (
        nand.page_state, nand.page_seq, nand.block_erase_count,
        nand.block_write_ptr, nand.page_oob, nand.page_oob_len))
    tracemalloc.start()
    try:
        twin = nand.clone()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert nbytes <= peak <= 1.2 * nbytes
    # The twin's views alias its own arrays, not the original's.
    twin.program(1, oob=(9,))
    twin.erase(5)
    assert twin.read(1) == (9,) and nand.page_state[1] == PageState.FREE
    assert twin.block_erase_count[5] == 1 and nand.block_erase_count[5] == 0
    assert twin.read(0) == nand.read(0) == (7, 8)
    assert twin.wear_summary() != nand.wear_summary()
    assert twin.page_seq[1] == 1 and nand.page_seq[1] == -1
