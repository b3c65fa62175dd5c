"""GC victim selection policies."""

import numpy as np
import pytest

from repro.flash.geometry import Geometry
from repro.flash.nand import NandArray
from repro.ssd.allocation import PageAllocator
from repro.ssd.config import SsdConfig
from repro.ssd.gc import VictimSelector
from repro.ssd.policy import VICTIM, SchemeAllocation
from tests.helpers import scan_candidates

GEOM = Geometry(
    channels=1, chips_per_channel=1, dies_per_chip=1, planes_per_die=1,
    blocks_per_plane=8, pages_per_block=4, page_size=8192, sector_size=4096,
)


def build(policy="greedy", fill_blocks=(), valid=None, seed=1):
    nand = NandArray(GEOM)
    for block in fill_blocks:
        for page in range(GEOM.pages_per_block):
            nand.program(block * GEOM.pages_per_block + page)
    alloc = PageAllocator(GEOM, nand, SchemeAllocation("CWDP"))
    valid_arr = np.zeros(GEOM.total_blocks, dtype=np.int32)
    if valid:
        for block, count in valid.items():
            valid_arr[block] = count
    selector = VictimSelector(VICTIM[policy], GEOM, nand, alloc, valid_arr,
                              seed=seed)
    return selector, alloc, nand


class TestCandidates:
    def test_only_full_blocks(self):
        selector, _, nand = build(fill_blocks=[0, 1])
        nand.program(2 * GEOM.pages_per_block)  # block 2 partially written
        assert set(selector.candidates(0)) == {0, 1}

    def test_active_blocks_excluded(self):
        selector, alloc, nand = build(fill_blocks=[1, 2])
        ppn = alloc.allocate_page("host")  # opens block 0 as active
        block = ppn // GEOM.pages_per_block
        assert block not in selector.candidates(0)

    def test_retired_blocks_excluded(self):
        selector, alloc, _ = build(fill_blocks=[0, 1])
        alloc.retire_block(0)
        assert selector.candidates(0) == [1]

    def test_explicit_exclusion(self):
        selector, _, _ = build(fill_blocks=[0, 1])
        assert selector.candidates(0, exclude=[0]) == [1]

    def test_empty_pool_returns_none(self):
        selector, _, _ = build()
        assert selector.select_victim(0) is None


class TestGreedy:
    def test_picks_min_valid(self):
        selector, _, _ = build(
            "greedy", fill_blocks=[0, 1, 2], valid={0: 3, 1: 1, 2: 2}
        )
        assert selector.select_victim(0) == 1

    def test_tie_broken_deterministically(self):
        selector, _, _ = build("greedy", fill_blocks=[0, 1], valid={0: 1, 1: 1})
        assert selector.select_victim(0) == selector.select_victim(0)


class TestRandomizedGreedy:
    def test_sample_of_whole_pool_equals_greedy(self):
        selector, _, _ = build(
            "randomized_greedy", fill_blocks=[0, 1, 2], valid={0: 3, 1: 1, 2: 2}
        )
        selector.sample_size = 8  # >= pool
        assert selector.select_victim(0) == 1

    def test_small_sample_sometimes_misses_best(self):
        # With d=2 of 8 candidates, the global best is missed sometimes.
        picks = set()
        for seed in range(30):
            selector, _, _ = build(
                "randomized_greedy",
                fill_blocks=list(range(8)),
                valid={b: b + 1 for b in range(8)},  # block 0 is the best
                seed=seed,
            )
            selector.sample_size = 2
            picks.add(selector.select_victim(0))
        assert len(picks) > 1
        assert 0 in picks  # it does find the best sometimes


class TestOtherPolicies:
    def test_random_is_seed_deterministic(self):
        a, _, _ = build("random", fill_blocks=[0, 1, 2, 3], seed=9)
        b, _, _ = build("random", fill_blocks=[0, 1, 2, 3], seed=9)
        assert [a.select_victim(0) for _ in range(5)] == [
            b.select_victim(0) for _ in range(5)
        ]

    def test_fifo_picks_oldest_allocated(self):
        selector, alloc, nand = build("fifo")
        blocks = []
        for _ in range(2):  # allocate and fully program two blocks
            first = alloc.allocate_page("host")
            nand.program(first)
            for _ in range(GEOM.pages_per_block - 1):
                nand.program(alloc.allocate_page("host"))
            blocks.append(first // GEOM.pages_per_block)
        # Open a third block so the first two are no longer active.
        alloc.allocate_page("host")
        assert selector.select_victim(0) == blocks[0]

    def test_cost_benefit_prefers_old_empty(self):
        selector, alloc, nand = build("cost_benefit")
        blocks = []
        for _ in range(3):
            first = alloc.allocate_page("host")
            nand.program(first)
            for _ in range(GEOM.pages_per_block - 1):
                nand.program(alloc.allocate_page("host"))
            blocks.append(first // GEOM.pages_per_block)
        alloc.allocate_page("host")
        # Oldest block has few valid sectors; newest has many.
        selector.valid_sectors[blocks[0]] = 1
        selector.valid_sectors[blocks[1]] = 7
        selector.valid_sectors[blocks[2]] = 7
        assert selector.select_victim(0) == blocks[0]

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="valid choices"):
            SsdConfig(gc_policy="psychic")


class TestIncrementalIndex:
    """The sealed-block index must agree with a full plane scan at every
    point in a block's lifecycle."""

    def assert_matches_scan(self, selector, exclude=()):
        for plane in range(selector.geometry.planes_total):
            assert selector.candidates(plane, exclude) == \
                scan_candidates(selector, plane, exclude)

    def test_matches_scan_on_staged_blocks(self):
        selector, _, nand = build(fill_blocks=[0, 3, 5])
        nand.program(6 * GEOM.pages_per_block)  # partial block
        self.assert_matches_scan(selector)

    def test_matches_scan_through_allocation(self):
        selector, alloc, nand = build()
        for _ in range(3):  # fill three blocks through the allocator
            for _ in range(GEOM.pages_per_block):
                nand.program(alloc.allocate_page("host"))
        alloc.allocate_page("host")  # opens a fourth
        self.assert_matches_scan(selector)

    def test_matches_scan_after_release_and_retire(self):
        selector, alloc, nand = build(fill_blocks=[0, 1, 2, 3])
        alloc.retire_block(1)
        nand.erase(2)
        alloc.release_block(2)
        self.assert_matches_scan(selector)
        self.assert_matches_scan(selector, exclude=[0])

    def test_matches_scan_after_reallocation_cycle(self):
        """Erased, released, and re-filled blocks re-enter the pool."""
        selector, alloc, nand = build()
        first = alloc.allocate_page("host")
        nand.program(first)
        for _ in range(GEOM.pages_per_block - 1):
            nand.program(alloc.allocate_page("host"))
        block = first // GEOM.pages_per_block
        alloc.allocate_page("host")  # seal it by opening the next
        assert block in selector.candidates(0)
        nand.erase(block)
        alloc.release_block(block)
        assert block not in selector.candidates(0)
        self.assert_matches_scan(selector)

    def test_matches_scan_during_device_churn(self):
        """The decisive check: a real device under GC-heavy churn keeps
        the index and the scan identical at every victim selection."""
        import numpy as np

        from repro.ssd.device import SimulatedSSD
        from repro.ssd.presets import tiny

        device = SimulatedSSD(tiny().with_changes(gc_policy="greedy"))
        selector = device.ftl.selector
        rng = np.random.default_rng(7)
        checked = 0
        for i in range(3000):
            device.write_sectors(int(rng.integers(device.num_sectors)), 1)
            if i % 250 == 0:
                for plane in range(selector.geometry.planes_total):
                    assert selector.candidates(plane) == \
                        scan_candidates(selector, plane)
                    checked += 1
        device.flush()
        for plane in range(selector.geometry.planes_total):
            assert selector.candidates(plane) == \
                scan_candidates(selector, plane)
        assert checked > 0
