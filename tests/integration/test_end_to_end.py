"""Cross-subsystem integration: the toolkit against varied devices.

The important property: every transparency technique must *track the
device*, not a hard-coded convention — so these tests change the device
and check the discoveries follow.
"""

import numpy as np
import pytest

from repro.core.jtag.dap import JtagProbe
from repro.core.jtag.debugger import Debugger
from repro.core.jtag.discovery import (
    analyze_update_file,
    candidate_map_bases,
    discover_chunk_loading,
    discover_translation_map,
)
from repro.core.jtag.tap import TapController
from repro.core.probe.analyzer import TLA7000, LogicAnalyzer
from repro.core.probe.decoder import decode_trace_windows
from repro.core.probe.inference import infer_ftl_features
from repro.flash.geometry import Geometry
from repro.flash.timing import profile
from repro.fs.ext4 import Ext4Model
from repro.fs.f2fs import F2fsModel
from repro.ssd.config import SsdConfig
from repro.ssd.device import SimulatedSSD
from repro.ssd.firmware.device import IDCODE, HackableSSD
from repro.ssd.presets import evo840_like, tiny
from repro.ssd.timed import BusTap, TimedSSD


class TestProbeAgainstRealDevice:
    def probe_device(self, config):
        tap = BusTap(config.geometry, profile(config.timing_name), channel=0)
        device = TimedSSD(config, bus_tap=tap)
        for lba in range(0, min(400, device.num_sectors), 2):
            device.submit("write", lba, 2, at_ns=device.now)
        device.flush()
        result = decode_trace_windows(tap.trace, LogicAnalyzer(TLA7000))
        return infer_ftl_features(result.ops,
                                  sector_size=config.geometry.sector_size)

    def test_inferred_page_size_tracks_geometry(self):
        for page_size in (8192, 16384):
            geometry = Geometry(
                channels=2, chips_per_channel=1, dies_per_chip=1,
                planes_per_die=2, blocks_per_plane=16, pages_per_block=16,
                page_size=page_size, sector_size=4096,
            )
            config = SsdConfig(geometry=geometry, timing_name="async",
                               op_ratio=0.2, cache_sectors=16,
                               mapping_tp_lpns=128, mapping_sync_interval=512)
            report = self.probe_device(config)
            assert report.page_size_bytes == page_size

    def test_inferred_timings_track_profile(self):
        geometry = Geometry(
            channels=2, chips_per_channel=1, dies_per_chip=1,
            planes_per_die=2, blocks_per_plane=16, pages_per_block=16,
            page_size=8192, sector_size=4096,
        )
        config = SsdConfig(geometry=geometry, timing_name="async",
                           op_ratio=0.2, cache_sectors=16,
                           mapping_tp_lpns=128, mapping_sync_interval=512)
        report = self.probe_device(config)
        timing = profile("async")
        assert report.t_prog_us == pytest.approx(timing.program_ns / 1e3, rel=0.1)


class TestJtagTracksDeviceVariants:
    def make_study_parts(self, device):
        probe = JtagProbe(TapController(device, IDCODE))
        probe.reset()
        return Debugger(probe), analyze_update_file(device.firmware_update_file)

    def test_chunk_size_discovery_tracks_config(self):
        """Halve the mapping chunk: the discovered coverage halves."""
        base = evo840_like(scale=1)
        small_chunks = base.with_changes(
            mapping_chunk_lpns=15040,  # 58.75 MB instead of 117.5 MB
            mapping_resident_chunks=4,
        )
        device = HackableSSD(config=small_chunks)
        debugger, analysis = self.make_study_parts(device)
        arrays, _ = candidate_map_bases(analysis)
        chunks = discover_chunk_loading(debugger, device, arrays,
                                        max_touches=12)
        assert chunks.demand_loading
        assert chunks.chunk_bytes_logical == pytest.approx(
            15040 * 4096, rel=0.06
        )

    def test_map_discovery_on_smaller_device(self):
        device = HackableSSD(scale=2)
        debugger, analysis = self.make_study_parts(device)
        arrays, _ = candidate_map_bases(analysis)
        discovery = discover_translation_map(debugger, device, arrays,
                                             verify_probes=6, prefill=2048)
        assert discovery.entries_fit
        assert discovery.array_bases == list(device.memory_map.map_array_bases)


class TestFilesystemDeviceInteraction:
    def churn(self, fs_cls):
        device = SimulatedSSD(tiny())
        if fs_cls is F2fsModel:
            fs = F2fsModel(device, segment_sectors=32, checkpoint_sectors=8,
                           clean_low_water=2)
        else:
            fs = Ext4Model(device, journal_sectors=32, metadata_sectors=32)
        rng = np.random.default_rng(4)
        for i in range(20):
            fs.create(f"f{i}", 8)
        for _ in range(600):
            name = f"f{int(rng.integers(20))}"
            fs.overwrite(name, int(rng.integers(6)), 2)
        device.flush()
        return device

    def test_fs_traffic_reaches_flash(self):
        for cls in (Ext4Model, F2fsModel):
            device = self.churn(cls)
            assert device.smart.host_program_pages > 0
            device.ftl.check_invariants()

    def test_f2fs_discards_reach_ftl(self):
        device = SimulatedSSD(tiny())
        fs = F2fsModel(device, segment_sectors=32,
                       checkpoint_sectors=8, clean_low_water=2)
        fs.create("a", 40)
        fs.delete("a")
        assert device.ftl.stats.trimmed_sectors >= 40


class TestCounterTimedEquivalence:
    def test_fs_workload_same_flash_ops_in_both_modes(self):
        """The two execution modes are the same FTL: identical request
        streams produce identical SMART program counts."""
        from repro.workloads.engine import run_counter, run_timed
        from repro.workloads.patterns import Region
        from repro.workloads.spec import JobSpec

        config = tiny()
        counter = SimulatedSSD(config)
        timed = TimedSSD(config)
        job = JobSpec("j", "randwrite", Region(0, counter.num_sectors),
                      io_count=2500, seed=8)
        run_counter(counter, [job])
        run_timed(timed, [job])
        timed_flush = timed.flush()
        assert counter.smart.host_program_pages == timed.smart.host_program_pages
        assert counter.smart.ftl_program_pages == timed.smart.ftl_program_pages
        assert counter.smart.erase_count == timed.smart.erase_count
