"""EXT4 and F2FS model behaviour, including their block-level signatures."""

import pytest

from repro.fs.ext4 import Ext4Model
from repro.fs.f2fs import F2fsModel
from repro.fs.vfs import FsError
from repro.ssd.device import SimulatedSSD
from repro.ssd.presets import tiny


def counter_fs(cls, **kwargs):
    device = SimulatedSSD(tiny())
    if cls is F2fsModel:
        kwargs.setdefault("segment_sectors", 32)
        kwargs.setdefault("checkpoint_sectors", 8)
        kwargs.setdefault("clean_low_water", 2)
    else:
        kwargs.setdefault("journal_sectors", 32)
        kwargs.setdefault("metadata_sectors", 32)
    return cls(device, **kwargs), device


class TestCommonSemantics:
    @pytest.mark.parametrize("cls", [Ext4Model, F2fsModel])
    def test_create_and_read(self, cls):
        fs, device = counter_fs(cls)
        fs.create("a", 10)
        assert fs.exists("a")
        assert fs.file_sectors("a") == 10
        fs.read("a")
        assert device.smart.host_sectors_read >= 10

    @pytest.mark.parametrize("cls", [Ext4Model, F2fsModel])
    def test_duplicate_create_rejected(self, cls):
        fs, _ = counter_fs(cls)
        fs.create("a", 4)
        with pytest.raises(FsError):
            fs.create("a", 4)

    @pytest.mark.parametrize("cls", [Ext4Model, F2fsModel])
    def test_delete_then_missing(self, cls):
        fs, _ = counter_fs(cls)
        fs.create("a", 4)
        fs.delete("a")
        assert not fs.exists("a")
        with pytest.raises(FsError):
            fs.read("a")

    @pytest.mark.parametrize("cls", [Ext4Model, F2fsModel])
    def test_append_grows_file(self, cls):
        fs, _ = counter_fs(cls)
        fs.create("a", 4)
        fs.append("a", 6)
        assert fs.file_sectors("a") == 10

    @pytest.mark.parametrize("cls", [Ext4Model, F2fsModel])
    def test_overwrite_bounds_checked(self, cls):
        fs, _ = counter_fs(cls)
        fs.create("a", 4)
        with pytest.raises(FsError):
            fs.overwrite("a", 2, 5)

    @pytest.mark.parametrize("cls", [Ext4Model, F2fsModel])
    def test_space_reuse_after_delete(self, cls):
        fs, _ = counter_fs(cls)
        for round_ in range(6):
            fs.create("a", 50)
            fs.delete("a")
        fs.create("final", 50)  # must not run out of space


class TestExt4Signature:
    def test_overwrite_is_in_place(self):
        fs, _ = counter_fs(Ext4Model)
        fs.create("a", 8)
        extents_before = list(fs.files["a"].extents)
        fs.overwrite("a", 0, 4)
        assert fs.files["a"].extents == extents_before

    def test_journal_writes_are_circular(self):
        fs, device = counter_fs(Ext4Model, journal_sectors=4)
        before = fs._journal_cursor
        for i in range(6):
            fs.create(f"f{i}", 2)
        assert fs._journal_cursor < 4  # wrapped

    def test_no_discard_by_default(self):
        fs, device = counter_fs(Ext4Model)
        fs.create("a", 8)
        trims_before = device.ftl.stats.trimmed_sectors
        fs.delete("a")
        assert device.ftl.stats.trimmed_sectors == trims_before

    def test_discard_option(self):
        fs, device = counter_fs(Ext4Model, discard=True)
        fs.create("a", 8)
        fs.delete("a")
        assert device.ftl.stats.trimmed_sectors >= 8

    def test_aged_allocations_fragment(self):
        fs, _ = counter_fs(Ext4Model)
        for i in range(12):
            fs.create(f"f{i}", 10)
        for i in range(0, 12, 2):
            fs.delete(f"f{i}")
        fs.create("big", 40)
        assert len(fs.files["big"].extents) > 1

    def test_too_small_device_rejected(self):
        device = SimulatedSSD(tiny())
        with pytest.raises(FsError):
            Ext4Model(device, journal_sectors=device.num_sectors,
                      metadata_sectors=16)


class TestF2fsSignature:
    def test_overwrite_relocates(self):
        fs, _ = counter_fs(F2fsModel)
        fs.create("a", 8)
        before = list(fs._locs["a"])
        fs.overwrite("a", 0, 4)
        after = fs._locs["a"]
        assert after[:4] != before[:4]  # out of place
        assert after[4:] == before[4:]

    def test_delete_discards(self):
        fs, device = counter_fs(F2fsModel)
        fs.create("a", 8)
        trims_before = device.ftl.stats.trimmed_sectors
        fs.delete("a")
        assert device.ftl.stats.trimmed_sectors > trims_before

    def test_writes_are_log_sequential(self):
        """Consecutive creates land at strictly increasing LBAs."""
        fs, _ = counter_fs(F2fsModel)
        fs.create("a", 4)
        fs.create("b", 4)
        a_end = fs.files["a"].extents[-1].end
        b_start = fs.files["b"].extents[0].start
        assert b_start >= a_end

    def test_cleaner_reclaims_segments(self):
        fs, _ = counter_fs(F2fsModel, segment_sectors=16)
        # Sprinkle never-rewritten cold sectors through every segment so
        # no segment is ever fully dead: cleaning must move live data.
        fs.create("hot", 8)
        fs.create("cold", 1)
        for i in range(150):
            fs.overwrite("hot", 0, 8)
            fs.append("cold", 1)
        assert fs.cleaner_moves > 0
        assert fs.file_sectors("hot") == 8
        assert fs.file_sectors("cold") == 151

    def test_data_intact_after_cleaning(self):
        fs, _ = counter_fs(F2fsModel, segment_sectors=16)
        fs.create("keep", 10)
        fs.create("churn", 8)
        for _ in range(150):
            fs.overwrite("churn", 0, 8)
        # The cold file's locations are all owned and consistent.
        for offset, lba in enumerate(fs._locs["keep"]):
            assert fs._owner[lba] == ("data", "keep", offset)

    def test_checkpoints_written(self):
        fs, _ = counter_fs(F2fsModel, checkpoint_interval=4)
        for i in range(10):
            fs.create(f"f{i}", 2)
        assert fs.checkpoints >= 2

    def test_utilization_tracks_segments(self):
        fs, _ = counter_fs(F2fsModel)
        assert fs.utilization() == 0.0
        fs.create("a", 40)
        assert fs.utilization() > 0.0

    def test_volume_full_raises(self):
        fs, device = counter_fs(F2fsModel, segment_sectors=32, clean_low_water=2)
        with pytest.raises(FsError):
            for i in range(10_000):
                fs.create(f"f{i}", 32)
