"""Aging profiles and the file-server workload."""

import math

import pytest

from repro.fs.aging import PROFILE_U, PROFILES, AgingProfile, age_filesystem
from repro.fs.ext4 import Ext4Model
from repro.fs.f2fs import F2fsModel
from repro.ssd.device import SimulatedSSD
from repro.ssd.presets import tiny
from repro.ssd.timed import TimedSSD
from repro.workloads.fileserver import (
    FileServerConfig,
    FileServerWorkload,
)


def make_ext4(timed=False):
    device = TimedSSD(tiny()) if timed else SimulatedSSD(tiny())
    return Ext4Model(device, journal_sectors=32,
                     metadata_sectors=32), device


SMALL_A = AgingProfile(
    "A", phases=((0.5, 150), (0.3, 60), (0.55, 100)),
    size_mu=1.2, size_sigma=0.6, max_file_sectors=16,
)
SMALL_M = AgingProfile(
    "M", phases=((0.6, 150), (0.35, 80), (0.62, 120)),
    size_mu=1.8, size_sigma=0.9, max_file_sectors=48,
)


class TestAging:
    def test_u_profile_is_noop(self):
        fs, device = make_ext4()
        report = age_filesystem(fs, PROFILE_U)
        assert report.operations == 0
        assert report.final_utilization == 0.0
        assert device.smart.host_sectors_written == 0

    def test_a_profile_fills_and_fragments(self):
        fs, _ = make_ext4()
        report = age_filesystem(fs, SMALL_A, seed=1)
        assert report.files_created > 0
        assert report.files_deleted > 0
        assert 0.3 < report.final_utilization < 0.75
        assert report.fragmentation > 0.0

    def test_profiles_differ(self):
        fs_a, _ = make_ext4()
        fs_m, _ = make_ext4()
        rep_a = age_filesystem(fs_a, SMALL_A, seed=2)
        rep_m = age_filesystem(fs_m, SMALL_M, seed=2)
        assert rep_a.final_utilization != pytest.approx(
            rep_m.final_utilization, abs=1e-6
        )

    def test_aging_touches_the_device(self):
        fs, device = make_ext4()
        age_filesystem(fs, SMALL_A, seed=3)
        assert device.smart.host_sectors_written > 0

    def test_aging_f2fs(self):
        device = SimulatedSSD(tiny())
        fs = F2fsModel(device, segment_sectors=32,
                       checkpoint_sectors=8, clean_low_water=2)
        report = age_filesystem(fs, SMALL_A, seed=4)
        assert report.final_utilization > 0.0

    def test_builtin_profiles_registered(self):
        assert set(PROFILES) == {"U", "A", "M"}

    @pytest.mark.parametrize("field, kwargs", [
        ("phases", {"phases": ((math.nan, 10),)}),
        ("phases", {"phases": ((1.5, 10),)}),
        ("phases", {"phases": ((-0.1, 10),)}),
        ("phases", {"phases": ((0.5, -5),)}),
        ("max_file_sectors", {"max_file_sectors": 0}),
        ("size_sigma", {"size_sigma": -0.5}),
        ("size_sigma", {"size_sigma": math.nan}),
        ("size_mu", {"size_mu": math.inf}),
        ("size_mu", {"size_mu": math.nan}),
    ])
    def test_hostile_profile_rejected(self, field, kwargs):
        """A bad profile fails at construction, naming the field, instead
        of churning silently or failing inside numpy mid-run."""
        kwargs = {"phases": ((0.5, 10),), **kwargs}
        with pytest.raises(ValueError, match=field):
            AgingProfile("X", **kwargs)


class TestFileServer:
    def test_prepare_populates(self):
        fs, _ = make_ext4()
        workload = FileServerWorkload(fs, FileServerConfig(working_files=10,
                                                           mean_file_sectors=4))
        workload.prepare()
        assert len(fs.files) == 10

    def test_run_counts_ops(self):
        fs, _ = make_ext4()
        workload = FileServerWorkload(
            fs, FileServerConfig(working_files=10, mean_file_sectors=4), seed=1
        )
        workload.prepare()
        result = workload.run(100)
        assert result.operations == 100
        assert result.failed_ops < 100

    def test_throughput_on_timed_backend(self):
        fs, _ = make_ext4(timed=True)
        workload = FileServerWorkload(
            fs, FileServerConfig(working_files=10, mean_file_sectors=4), seed=1
        )
        workload.prepare()
        result = workload.run(100)
        assert result.elapsed_ns > 0
        assert result.ops_per_second > 0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            FileServerConfig(working_files=0)
        with pytest.raises(ValueError):
            FileServerConfig(weights=(0.5, 0.5, 0.5, 0.0, 0.0))

    @pytest.mark.parametrize("field, kwargs", [
        ("weights", {"weights": (math.nan, 0.2, 0.2, 0.2, 0.4)}),
        ("weights", {"weights": (1.5, -0.5, 0.0, 0.0, 0.0)}),
        ("weights", {"weights": (0.5, 0.5)}),
        ("mean_file_sectors", {"mean_file_sectors": 0}),
        ("append_sectors", {"append_sectors": 0}),
        ("overwrite_sectors", {"overwrite_sectors": -1}),
    ])
    def test_hostile_config_rejected(self, field, kwargs):
        """A bad config fails at construction, naming the field, instead
        of at the first run() with numpy's message (or never)."""
        with pytest.raises(ValueError, match=field):
            FileServerConfig(**kwargs)

    def test_mix_exercises_all_ops(self):
        fs, _ = make_ext4()
        workload = FileServerWorkload(
            fs, FileServerConfig(working_files=8, mean_file_sectors=4), seed=2
        )
        workload.prepare()
        workload.run(300)
        stats = fs.stats
        assert stats.creates > 8  # beyond prepare()
        assert stats.deletes > 0
        assert stats.appends > 0
        assert stats.overwrites > 0
        assert stats.reads > 0
