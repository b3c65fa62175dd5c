"""Policy-core firmware generation: layout, distinctness, back-compat."""

import pytest

from repro.infer.grid import PolicyPoint, infer_base
from repro.ssd.firmware.builder import (
    GC_FEATURES,
    MMIO_CACHE_CAP,
    MMIO_CACHE_TP,
    MMIO_DIM_LATCHES,
    POLICY_TABLE_ENTRIES,
    POLICY_TABLE_NAMES,
    POLICY_TABLE_TAG_BYTES,
    POLICY_TABLE_TAGS,
    build_firmware,
    memory_map_for,
)
from repro.ssd.firmware.device import HackableSSD
from repro.ssd.policy import POLICIES

BASE = infer_base()
MM = memory_map_for(BASE)


class TestBackCompat:
    def test_default_build_has_no_policy_sections(self):
        image = build_firmware(MM)
        assert [s.name for s in image.sections] == [
            "core0", "core1", "core2", "strings", "config"]

    def test_default_device_is_unchanged(self):
        device = HackableSSD(BASE)
        assert device.policy_firmware is False
        assert len(device.firmware.sections) == 5

    def test_policy_build_appends_four_cores(self):
        image = build_firmware(MM, BASE)
        assert [s.name for s in image.sections[5:]] == [
            "pgc", "palloc", "pcache", "pwear"]


class TestTableLayout:
    def test_every_table_named_and_tagged(self):
        assert set(POLICY_TABLE_NAMES) == set(POLICY_TABLE_TAGS)
        tags = list(POLICY_TABLE_TAGS.values())
        assert len(set(tags)) == len(tags)
        assert all(len(tag) == 8 for tag in tags)

    def test_slots_do_not_overlap(self):
        bases = [base for _, base in MM.policy_table_bases]
        assert bases == sorted(bases)
        size = POLICY_TABLE_ENTRIES * 4
        for a, b in zip(bases, bases[1:]):
            assert a + size <= b - POLICY_TABLE_TAG_BYTES

    def test_region_sits_in_dram_below_mmio(self):
        start, end = MM.policy_region
        assert MM.dram_base <= start < end < 0x40000000
        assert start > MM.pslc_index_base + MM.pslc_index_bytes

    def test_policy_table_lookup(self):
        for name in POLICY_TABLE_NAMES:
            assert MM.policy_table(name) >= MM.dram_base
        with pytest.raises(KeyError):
            MM.policy_table("nonsense")


class TestPolicyDistinctness:
    """Every policy table entry must assemble to a *distinct* observable
    firmware shape — otherwise the knob is unrecoverable by design."""

    def test_gc_features_cover_registry_and_are_distinct(self):
        assert set(GC_FEATURES) == set(POLICIES["gc_policy"])
        signatures = list(GC_FEATURES.values())
        assert len(set(signatures)) == len(signatures)

    @pytest.mark.parametrize("knob,field", [
        ("gc_policy", "gc_policy"),
        ("allocation_scheme", "allocation_scheme"),
        ("cache_designation", "cache_designation"),
        ("cache_admission", "cache_admission"),
        ("cache_eviction", "cache_eviction"),
        ("wear_policy", "wear_policy"),
    ])
    def test_knob_values_change_the_image(self, knob, field):
        blobs = {}
        for name in POLICIES[knob]:
            config = BASE.with_changes(**{field: name})
            image = build_firmware(memory_map_for(config), config)
            blobs[name] = b"".join(s.data for s in image.sections[5:])
        assert len(set(blobs.values())) == len(blobs), (
            f"two {knob} values assemble to identical policy cores")

    def test_latch_offsets_are_distinct(self):
        offsets = list(MMIO_DIM_LATCHES.values())
        assert len(set(offsets)) == len(offsets)
        assert MMIO_CACHE_CAP not in offsets
        assert MMIO_CACHE_TP not in offsets


class TestLiveTables:
    def test_policy_region_serves_tags_and_state(self):
        device = HackableSSD(
            PolicyPoint(allocation="hotcold").apply(BASE),
            policy_firmware=True)
        for i in range(64):
            device.ssd.write_sectors(i * 4, 4)
        device.ssd.flush()
        mm = device.memory_map
        for name, base in mm.policy_table_bases:
            tag = device.read_mem(base - POLICY_TABLE_TAG_BYTES, 8)
            assert tag == POLICY_TABLE_TAGS[name]
        valid = device.read_mem(mm.policy_table("valid"), 64)
        assert valid != b"\xff" * 64

    def test_non_policy_device_serves_blank_region(self):
        device = HackableSSD(BASE)
        base = MM.policy_table("pool")
        assert device.read_mem(base - POLICY_TABLE_TAG_BYTES, 8) == b"\xff" * 8
