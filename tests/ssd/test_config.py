"""SsdConfig validation and derived capacity."""

import pytest

from repro.flash.geometry import Geometry
from repro.ssd.config import SsdConfig
from repro.ssd.presets import PRESETS


class TestValidation:
    def test_defaults_valid(self):
        SsdConfig()

    def test_bad_timing(self):
        with pytest.raises(ValueError):
            SsdConfig(timing_name="qlcish")

    def test_bad_gc_policy(self):
        with pytest.raises(ValueError):
            SsdConfig(gc_policy="psychic")

    def test_bad_cache_designation(self):
        with pytest.raises(ValueError):
            SsdConfig(cache_designation="both")

    def test_bad_allocation_scheme(self):
        with pytest.raises(ValueError):
            SsdConfig(allocation_scheme="XYZW")

    def test_bad_op_ratio(self):
        with pytest.raises(ValueError):
            SsdConfig(op_ratio=0.6)
        with pytest.raises(ValueError):
            SsdConfig(op_ratio=-0.1)

    def test_watermark_ordering(self):
        with pytest.raises(ValueError):
            SsdConfig(gc_low_water_blocks=4, gc_high_water_blocks=2)

    def test_rain_stripe_one_invalid(self):
        with pytest.raises(ValueError):
            SsdConfig(rain_stripe=1)

    def test_rain_stripe_zero_ok(self):
        assert SsdConfig(rain_stripe=0).rain_stripe == 0

    def test_negative_pslc(self):
        with pytest.raises(ValueError):
            SsdConfig(pslc_blocks=-1)

    @pytest.mark.parametrize("field, value", [
        ("cache_sectors", -5),
        ("erase_limit", 0),
        ("gc_low_water_blocks", -1),
        ("pslc_drain_threshold", float("nan")),
        ("pslc_drain_threshold", 0.0),
        ("pslc_drain_threshold", 1.5),
        ("mapping_chunk_lpns", -64),
        ("mapping_chunk_lpns", 100),  # not a multiple of mapping_tp_lpns
        ("mapping_resident_chunks", 0),
        ("mapping_resident_chunks", -3),
        ("mapping_dirty_tp_limit", 0),
        ("mapping_sync_interval", 0),
    ])
    def test_rejects_bad_value(self, field, value):
        with pytest.raises(ValueError, match=field):
            SsdConfig(**{field: value})

    def test_no_write_cache_ok(self):
        assert SsdConfig(cache_sectors=0).cache_sectors == 0


class TestCapacity:
    def test_logical_smaller_than_physical(self):
        config = SsdConfig(op_ratio=0.1)
        assert config.logical_bytes < config.geometry.capacity_bytes

    def test_op_ratio_effect(self):
        lean = SsdConfig(op_ratio=0.05)
        fat = SsdConfig(op_ratio=0.25)
        assert fat.logical_sectors < lean.logical_sectors

    def test_pslc_reserve_reduces_logical(self):
        base = SsdConfig(pslc_blocks=0)
        buffered = SsdConfig(pslc_blocks=4)
        assert buffered.logical_sectors < base.logical_sectors
        assert buffered.pslc_reserved_bytes == 4 * base.geometry.block_bytes

    def test_with_changes(self):
        base = SsdConfig()
        changed = base.with_changes(gc_policy="random")
        assert changed.gc_policy == "random"
        assert base.gc_policy == "greedy"
        assert changed.geometry == base.geometry


class TestPresets:
    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_preset_constructs(self, name):
        config = PRESETS[name]()
        assert config.logical_sectors > 0

    def test_mx500_page_and_stripe(self):
        config = PRESETS["mx500"]()
        assert config.geometry.page_size == 32768
        assert config.rain_stripe == 15

    def test_evo840_chunk_shape(self):
        config = PRESETS["evo840"]()
        # 117.5 MB of logical space per mapping chunk.
        chunk_bytes = config.mapping_chunk_lpns * config.geometry.sector_size
        assert chunk_bytes == int(117.5 * 2**20)
        assert config.mapping_chunk_lpns % config.mapping_tp_lpns == 0
        assert config.pslc_blocks > 0

    def test_scaled_presets_smaller(self):
        for name in ("mx500", "evo840", "mqsim"):
            full = PRESETS[name]()
            small = PRESETS[name](scale=4)
            assert small.geometry.total_pages <= full.geometry.total_pages
