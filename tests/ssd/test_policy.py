"""The policy tables and the policies in them."""

import numpy as np
import pytest

from repro.flash.geometry import Geometry
from repro.flash.nand import NandArray
from repro.ssd.allocation import PageAllocator
from repro.ssd.config import SsdConfig
from repro.ssd.gc import VictimSelector
from repro.ssd.policy import (
    ALLOCATION,
    EVICTION,
    POLICIES,
    SCHEME_NAMES,
    VICTIM,
    WEAR,
    HotColdAllocation,
    SchemeAllocation,
    designate,
    summary,
)
from repro.ssd.wearlevel import WearLeveler

GEOM = Geometry(
    channels=1, chips_per_channel=1, dies_per_chip=1, planes_per_die=1,
    blocks_per_plane=8, pages_per_block=4, page_size=8192, sector_size=4096,
)


def build_selector(choose, fill_blocks=(), valid=None, seed=1):
    if isinstance(choose, str):
        choose = VICTIM[choose]
    nand = NandArray(GEOM)
    for block in fill_blocks:
        for page in range(GEOM.pages_per_block):
            nand.program(block * GEOM.pages_per_block + page)
    alloc = PageAllocator(GEOM, nand, SchemeAllocation("CWDP"))
    valid_arr = np.zeros(GEOM.total_blocks, dtype=np.int32)
    if valid:
        for block, count in valid.items():
            valid_arr[block] = count
    return VictimSelector(choose, GEOM, nand, alloc, valid_arr, seed=seed)


class TestRegistry:
    """The six tables: one per ``SsdConfig`` knob."""

    def test_registries_cover_every_knob(self):
        assert list(POLICIES) == [
            "gc_policy", "allocation_scheme", "cache_designation",
            "cache_admission", "cache_eviction", "wear_policy"]
        for knob, table in POLICIES.items():
            assert len(table) >= 2, knob
            assert getattr(SsdConfig(), knob) in table  # the default

    def test_every_entry_instantiates_and_conforms(self):
        """Every entry has a summary line; victim and wear functions are
        named as their keys (the label trace events carry); allocation
        factories build an object named as its key."""
        for knob, table in POLICIES.items():
            for name in table:
                assert summary(knob, name), (knob, name)
        for table in (VICTIM, WEAR):
            for name, function in table.items():
                assert function.__name__ == name
        for name, factory in ALLOCATION.items():
            assert factory().name == name

    @pytest.mark.parametrize("knob", list(POLICIES))
    def test_unknown_name_lists_valid_choices(self, knob):
        with pytest.raises(ValueError) as excinfo:
            SsdConfig(**{knob: "psychic"})
        message = str(excinfo.value)
        assert f"unknown {knob} 'psychic'" in message
        for name in POLICIES[knob]:
            assert name in message

    def test_summary_defaults_to_docstring_first_line(self):
        assert summary("gc_policy", "cat") == (
            "Cost-Age-Times (Chiang/Chang): minimize u/(1-u) * cleans / age —")
        assert summary("cache_designation", "mapping") == (
            "RAM buys dirty translation-page slots; the data path keeps a")
        assert summary("allocation_scheme", "PDWC") == (
            "plane-first dimension order plane/die/chip/channel")

    def test_contains_and_names_order(self):
        assert "greedy" in VICTIM
        assert "nope" not in VICTIM
        assert next(iter(VICTIM)) == "greedy"
        assert tuple(ALLOCATION)[:len(SCHEME_NAMES)] == SCHEME_NAMES

    def test_selector_accepts_policy_object(self):
        """Any ``choose(pool, selector)`` function drives the selector;
        its name is the label."""

        def first(pool, selector):
            return pool[0]

        selector = build_selector(first, fill_blocks=[2, 3],
                                  valid={2: 1, 3: 0})
        assert selector.policy == "first"
        assert selector.select_victim(0) == 2


class TestDChoices:
    def test_single_candidate_short_circuits(self):
        selector = build_selector("d_choices", fill_blocks=[5], valid={5: 4})
        assert selector.select_victim(0) == 5

    def test_prefers_low_valid_within_sample(self):
        # Sample size >= pool size: every block is sampled at least
        # statistically; over repeated picks the emptiest always wins
        # whenever it lands in the sample.
        selector = build_selector(
            "d_choices", fill_blocks=[0, 1, 2, 3], valid={0: 9, 1: 9, 2: 0, 3: 9}
        )
        selector.sample_size = 64  # with replacement: all blocks covered
        assert selector.select_victim(0) == 2

    def test_draws_with_replacement_use_selector_rng(self):
        a = build_selector("d_choices", fill_blocks=[0, 1, 2, 3],
                           valid={0: 1, 1: 2, 2: 3, 3: 4}, seed=7)
        b = build_selector("d_choices", fill_blocks=[0, 1, 2, 3],
                           valid={0: 1, 1: 2, 2: 3, 3: 4}, seed=7)
        picks_a = [a.select_victim(0) for _ in range(8)]
        picks_b = [b.select_victim(0) for _ in range(8)]
        assert picks_a == picks_b  # seeded determinism

    def test_respects_mutated_sample_size(self):
        selector = build_selector("d_choices", fill_blocks=list(range(8)),
                                  valid={b: b for b in range(8)}, seed=3)
        selector.sample_size = 2
        small = [selector.select_victim(0) for _ in range(16)]
        # d=2 with replacement cannot always find the global minimum.
        assert len(set(small)) > 1


class TestCat:
    def test_prefers_less_worn_block_on_equal_utilization(self):
        selector = build_selector("cat", fill_blocks=[0, 1], valid={0: 2, 1: 2})
        # Same utilization and age; block 1 already erased more often.
        selector.nand.block_erase_count[1] = 5
        assert selector.select_victim(0) == 0

    def test_prefers_lower_utilization(self):
        selector = build_selector("cat", fill_blocks=[0, 1], valid={0: 7, 1: 1})
        assert selector.select_victim(0) == 1

    def test_full_blocks_deprioritized(self):
        spb = GEOM.pages_per_block * GEOM.sectors_per_page
        selector = build_selector("cat", fill_blocks=[0, 1],
                                  valid={0: spb, 1: spb - 1})
        assert selector.select_victim(0) == 1


class TestHotColdAllocation:
    def test_adds_cold_stream(self):
        nand = NandArray(GEOM)
        alloc = PageAllocator(GEOM, nand, HotColdAllocation())
        assert alloc.scheme == "hotcold"
        assert alloc.streams == ("host", "gc", "meta", "cold")
        # Both streams allocate (distinct active blocks).
        a = alloc.allocate_page("host") // GEOM.pages_per_block
        b = alloc.allocate_page("cold") // GEOM.pages_per_block
        assert a != b

    def test_first_touch_routes_cold_rewrites_route_hot(self):
        policy = HotColdAllocation()
        assert policy.route("host", [1, 2]) == "cold"   # first touch
        assert policy.route("host", [1, 2]) == "host"   # now hot
        assert policy.route("gc", [1, 2]) == "gc"       # only host splits

    def test_majority_vote(self):
        policy = HotColdAllocation()
        policy.route("host", [1])
        assert policy.route("host", [1, 2]) == "host"  # 1 hot of 2: majority
        assert policy.route("host", [3, 4, 5]) == "cold"

    def test_plane_order_matches_cwdp_base(self):
        nand = NandArray(GEOM)
        hot = PageAllocator(GEOM, nand, HotColdAllocation())
        ref = PageAllocator(GEOM, NandArray(GEOM), SchemeAllocation("CWDP"))
        for index in range(GEOM.planes_total * 2):
            assert hot.plane_for_index(index) == ref.plane_for_index(index)


class TestCachePolicies:
    def test_designation_plans(self):
        data = SsdConfig(geometry=GEOM, cache_sectors=256)
        mapping = data.with_changes(cache_designation="mapping")
        assert designate(data) == (256, 0)
        assert designate(mapping) == (
            GEOM.sectors_per_page, 256 * GEOM.sector_size // GEOM.page_size)

    def test_data_designation_floors_at_one_page(self):
        config = SsdConfig(geometry=GEOM, cache_sectors=1)
        assert designate(config)[0] == GEOM.sectors_per_page

    def test_admission_flags(self):
        """``bypass`` stages host sectors for direct page packing;
        ``always`` buffers them in the write cache."""
        from repro.ssd.ftl import Ftl
        from repro.ssd.presets import tiny

        for admission, cached in (("always", True), ("bypass", False)):
            ftl = Ftl(tiny().with_changes(cache_admission=admission))
            ftl.write(5)
            assert (5 in ftl.cache) is cached, admission
            assert ftl.stats.host_sector_writes == 1

    def test_fifo_eviction_ignores_hits(self):
        from repro.ssd.cache import WriteCache

        lru = WriteCache(4, eviction=EVICTION["lru"])
        fifo = WriteCache(4, eviction=EVICTION["fifo"])
        for cache in (lru, fifo):
            for lpn in (1, 2, 3):
                cache.insert(lpn)
            cache.insert(1)  # hit
        assert lru.take_flush_batch(1) == [2]   # 1 was refreshed
        assert fifo.take_flush_batch(1) == [1]  # arrival order kept


class TestWearPolicies:
    def _leveler(self, policy):
        nand = NandArray(GEOM)
        for block in (2, 3, 4):
            for page in range(GEOM.pages_per_block):
                nand.program(block * GEOM.pages_per_block + page)
        alloc = PageAllocator(GEOM, nand, SchemeAllocation("CWDP"))
        return WearLeveler(GEOM, nand, alloc, delta=1, policy=WEAR[policy])

    def test_coldest_picks_lowest_erase_count(self):
        leveler = self._leveler("coldest")
        leveler.nand.block_erase_count[2] = 9
        leveler.nand.block_erase_count[3] = 1
        leveler.nand.block_erase_count[4] = 4
        assert leveler.pick_victim() == 3

    def test_sampled_cold_is_deterministic_and_eligible(self):
        a = self._leveler("sampled_cold")
        b = self._leveler("sampled_cold")
        assert a.pick_victim() == b.pick_victim()
        assert a.pick_victim() in (2, 3, 4)

    def test_no_eligible_blocks_returns_none(self):
        nand = NandArray(GEOM)
        alloc = PageAllocator(GEOM, nand, SchemeAllocation("CWDP"))
        leveler = WearLeveler(GEOM, nand, alloc, delta=1,
                              policy=WEAR["coldest"])
        assert leveler.pick_victim() is None

    def test_all_wear_policies_resolve(self):
        for name in WEAR:
            leveler = self._leveler(name)
            assert leveler.pick_victim() is not None


class TestConfigIntegration:
    def test_config_validates_every_policy_knob(self):
        base = SsdConfig()
        for knob, table in POLICIES.items():
            with pytest.raises(ValueError, match="valid choices"):
                base.with_changes(**{knob: "not-a-policy"})
            for name in table:
                base.with_changes(**{knob: name})  # all accepted

    def test_eviction_unknown_name_lists_choices(self):
        with pytest.raises(ValueError, match="lru"):
            SsdConfig(cache_eviction="mru")

    def test_allocation_lowercase_scheme_still_accepted(self):
        nand = NandArray(GEOM)
        alloc = PageAllocator(GEOM, nand, SchemeAllocation("cwdp"))
        assert alloc.scheme == "CWDP"

    def test_allocation_registry_rejects_bad_scheme(self):
        assert "CWDX" not in ALLOCATION
        with pytest.raises(ValueError, match="valid choices"):
            SsdConfig(allocation_scheme="CWDX")
        with pytest.raises(ValueError, match="letter 'X' invalid"):
            PageAllocator(GEOM, NandArray(GEOM), SchemeAllocation("CWDX"))
