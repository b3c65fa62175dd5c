"""SsdConfig validation and derived capacity."""

import pytest

from repro.flash.geometry import Geometry
from repro.ssd.config import SsdConfig
from repro.ssd.ftl import Ftl
from repro.ssd.presets import PRESETS

_DEFAULT_BLOCKS = SsdConfig().geometry.total_blocks


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
        ("pslc_blocks", _DEFAULT_BLOCKS),  # every block: no main area
        ("pslc_blocks", _DEFAULT_BLOCKS + 5),  # would repeat block ids
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

    @pytest.mark.parametrize("scale", [1, 2, 3, 4])
    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_fresh_spare_pool_is_the_configs(self, name, scale):
        config = PRESETS[name](scale=scale)
        ftl = Ftl(config)
        sectors_per_block = (config.geometry.sectors_per_page
                             * config.geometry.pages_per_block)
        data_blocks = -(-ftl.num_lpns // sectors_per_block)
        assert ftl.spare_blocks() == config.spare_blocks_at_birth == (
            config.geometry.total_blocks
            - len(ftl.allocator.excluded_blocks) - data_blocks)

    def test_circulating_sectors(self):
        # 4 planes of 64 blocks, 32 pages of 2 sectors: 64 sectors/block.
        geometry = Geometry(channels=2, chips_per_channel=1, dies_per_chip=1,
                            planes_per_die=2, blocks_per_plane=64,
                            pages_per_block=32, page_size=8192,
                            sector_size=4096)
        base = SsdConfig(geometry=geometry, gc_low_water_blocks=1,
                         gc_high_water_blocks=2)
        # Each plane holds back 2 reserve + 3 open (host, gc, meta) blocks.
        assert base.circulating_sectors == (256 - 4 * 5) * 64
        assert base.with_changes(allocation_scheme="hotcold") \
            .circulating_sectors == (256 - 4 * 6) * 64
        assert base.with_changes(pslc_blocks=8).circulating_sectors \
            == (256 - 8 - 4 * 5) * 64
        assert base.with_changes(rain_stripe=3).circulating_sectors \
            == (256 - 4 * 5) * 64 * 3 // 4

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
