"""Power-loss recovery: OOB full-scan rebuild."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.ssd.ftl import Ftl
from repro.ssd.mapping import UNMAPPED
from repro.ssd.presets import mqsim_baseline, tiny
from repro.ssd.recovery import recover_ftl
from tests.helpers import scan_candidates


def crash_and_recover(ftl):
    """Simulate power loss: throw the FTL away, keep the flash."""
    return recover_ftl(ftl.config, ftl.nand)


class TestBasicRecovery:
    def test_flushed_data_survives(self):
        ftl = Ftl(tiny())
        for lpn in range(64):
            ftl.write(lpn)
        ftl.flush()
        expected = {lpn: int(ftl.mapping.l2p[lpn]) for lpn in range(64)}
        recovered, report = crash_and_recover(ftl)
        for lpn, psa in expected.items():
            got = recovered.pslc.lookup(lpn)
            if got is None:
                got = int(recovered.mapping.l2p[lpn])
            assert got == psa, f"lpn {lpn}"
        assert report.sectors_recovered + report.pslc_sectors_recovered >= 64

    def test_cached_unflushed_data_lost(self):
        ftl = Ftl(tiny())
        ftl.write(5)  # stays in RAM cache
        recovered, _ = crash_and_recover(ftl)
        assert int(recovered.mapping.l2p[5]) == UNMAPPED
        assert recovered.pslc.lookup(5) is None

    def test_newest_copy_wins(self):
        ftl = Ftl(tiny())
        for _ in range(5):
            ftl.write(7)
            ftl.flush()
        latest = int(ftl.mapping.l2p[7])
        recovered, report = crash_and_recover(ftl)
        assert int(recovered.mapping.l2p[7]) == latest
        assert report.stale_copies_skipped >= 4

    def test_survives_gc_churn(self):
        ftl = Ftl(tiny())
        rng = np.random.default_rng(2)
        for _ in range(4000):
            ftl.write(int(rng.integers(ftl.num_lpns)))
        ftl.flush()
        assert ftl.stats.gc_invocations > 0
        expected = {
            lpn: int(ftl.mapping.l2p[lpn])
            for lpn in range(ftl.num_lpns)
            if int(ftl.mapping.l2p[lpn]) != UNMAPPED
        }
        recovered, _ = crash_and_recover(ftl)
        for lpn, psa in expected.items():
            got = recovered.pslc.lookup(lpn)
            if got is None:
                got = int(recovered.mapping.l2p[lpn])
            assert got == psa
        recovered.check_invariants()

    def test_trim_resurrection_documented_behaviour(self):
        """Trims write nothing to flash, so a full OOB scan resurrects
        the last written copy — the documented limitation."""
        ftl = Ftl(tiny())
        ftl.write(9)
        ftl.flush()
        ftl.trim(9)
        assert int(ftl.mapping.l2p[9]) == UNMAPPED
        recovered, _ = crash_and_recover(ftl)
        resurrected = (recovered.pslc.lookup(9) is not None
                       or int(recovered.mapping.l2p[9]) != UNMAPPED)
        assert resurrected

    def test_partial_blocks_padded(self):
        ftl = Ftl(tiny())
        ftl.write(0)
        ftl.flush()  # leaves the host-stream block partially written
        recovered, report = crash_and_recover(ftl)
        assert report.blocks_padded > 0
        # Every non-free block is now fully written.
        geometry = recovered.geometry
        ptrs = recovered.nand.block_write_ptr
        assert np.all((ptrs == 0) | (ptrs == geometry.pages_per_block))


class TestPslcRecovery:
    def test_buffered_sectors_recovered_into_index(self):
        config = tiny().with_changes(pslc_blocks=4, pslc_drain_threshold=0.95)
        ftl = Ftl(config)
        for lpn in range(16):
            ftl.write(lpn)
        ftl.flush()
        staged = dict(ftl.pslc.index)
        assert staged  # something is actually buffered
        recovered, report = crash_and_recover(ftl)
        for lpn, psa in staged.items():
            assert recovered.pslc.lookup(lpn) == psa
        assert report.pslc_sectors_recovered >= len(staged)


class TestRecoveredFtlIsOperational:
    def test_can_keep_writing_after_recovery(self):
        ftl = Ftl(tiny())
        rng = np.random.default_rng(3)
        for _ in range(2500):
            ftl.write(int(rng.integers(ftl.num_lpns)))
        ftl.flush()
        recovered, _ = crash_and_recover(ftl)
        for _ in range(2500):
            recovered.write(int(rng.integers(recovered.num_lpns)))
        recovered.flush()
        recovered.check_invariants()

    def test_translation_pages_relocated(self):
        ftl = Ftl(tiny())
        for lpn in range(32):
            ftl.write(lpn)
        ftl.flush()
        ftl.checkpoint()
        stored = {
            tp: int(ftl.mapping.tp_stored_ppn[tp])
            for tp in range(ftl.mapping.num_tps)
            if int(ftl.mapping.tp_stored_ppn[tp]) >= 0
        }
        assert stored
        recovered, report = crash_and_recover(ftl)
        for tp, ppn in stored.items():
            assert int(recovered.mapping.tp_stored_ppn[tp]) == ppn
        assert report.translation_pages_found >= len(stored)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 500), writes=st.integers(200, 1200))
# Regression: a mid-page mapping-eviction used to trigger foreground GC
# that re-programmed a superseded sector with a newer sequence number
# than its live copy, so newest-wins recovery resurrected stale data.
@example(seed=28, writes=849)
def test_recovery_roundtrip_property(seed, writes):
    """After any flushed workload, recovery reproduces the live map."""
    ftl = Ftl(tiny())
    rng = np.random.default_rng(seed)
    for _ in range(writes):
        ftl.write(int(rng.integers(ftl.num_lpns)))
    ftl.flush()
    live = {
        lpn: int(ftl.mapping.l2p[lpn])
        for lpn in range(ftl.num_lpns)
        if int(ftl.mapping.l2p[lpn]) != UNMAPPED
    }
    live_pslc = dict(ftl.pslc.index)
    recovered, _ = crash_and_recover(ftl)
    for lpn, psa in live.items():
        assert int(recovered.mapping.l2p[lpn]) == psa
    for lpn, psa in live_pslc.items():
        assert recovered.pslc.lookup(lpn) == psa


def _planes_at_or_below_low_water(ftl) -> int:
    low = ftl.config.gc_low_water_blocks
    return sum(ftl.allocator.free_blocks_in_plane(plane) <= low
               for plane in range(ftl.geometry.planes_total))


@pytest.mark.parametrize("config", [tiny(), mqsim_baseline(4)],
                         ids=["tiny", "mqsim_baseline-4"])
def test_watermark_count_matches_the_pools_after_recovery(config):
    """The allocator's count of planes at or below the GC low watermark
    (which gates foreground GC) is built from the recovered pools, and
    stays right through 2x capacity of further writes.

    Writes go to random sectors of the lower half of the logical space:
    GC churns at a moderate write amplification there on both presets
    (``mqsim_baseline(4)`` over its whole space runs at hundreds).  Crash
    points are random writes after GC has started, half of them drawn
    among writes that leave some plane at the watermark."""
    ftl = Ftl(config)
    rng = np.random.default_rng(5)
    n = ftl.num_lpns
    span = n // 2
    snapshots = []
    while len(snapshots) < 4:
        ftl.write(int(rng.integers(span)))
        if not ftl.stats.gc_invocations or rng.random() > 0.01:
            continue
        if len(snapshots) % 2 and not ftl.allocator.planes_at_watermark:
            continue
        snapshots.append(ftl.nand.clone())
    for nand in snapshots:
        recovered, _ = recover_ftl(config, nand)
        allocator = recovered.allocator
        assert allocator.planes_at_watermark == (
            _planes_at_or_below_low_water(recovered))
        for plane in range(recovered.geometry.planes_total):
            assert sorted(allocator.sealed_blocks(plane)) == (
                scan_candidates(recovered.selector, plane))
        for _ in range(2 * n):
            recovered.write(int(rng.integers(span)))
            assert allocator.planes_at_watermark >= 0
            assert allocator.planes_at_watermark == (
                _planes_at_or_below_low_water(recovered))
        assert recovered.stats.gc_invocations > 0


def test_fifo_victim_survives_recovery():
    """Block age is read back from the page-0 program stamps: FIFO GC
    picks the same oldest block after a crash as before it."""
    ftl = Ftl(tiny().with_changes(gc_policy="fifo"))
    rng = np.random.default_rng(3)
    for _ in range(3 * ftl.num_lpns):
        ftl.write(int(rng.integers(ftl.num_lpns)))
    ftl.flush()
    planes = range(ftl.geometry.planes_total)
    before = [ftl.selector.select_victim(plane) for plane in planes]
    assert None not in before
    recovered, _ = crash_and_recover(ftl)
    assert [recovered.selector.select_victim(plane)
            for plane in planes] == before


def test_retention_refresh_sees_data_written_before_the_crash():
    """Block birth is read back from the page-0 program stamps: data
    programmed before a crash ages and is refreshed after it, as on a
    device that never lost power."""
    config = tiny().with_changes(refresh_after_ops=500)

    def age_and_refresh(ftl):
        for _ in range(600):
            ftl.write(1)
        ftl.idle_maintenance(8)
        return ftl.stats.refreshed_blocks

    ftl = Ftl(config)
    for lpn in range(0, ftl.num_lpns, 2):
        ftl.write(lpn)
    ftl.flush()
    recovered, _ = recover_ftl(config, ftl.nand.clone())
    born = recovered.block_birth >= 0
    assert (born == (recovered.nand.block_write_ptr > 0)).all()
    assert age_and_refresh(ftl) == 8
    assert age_and_refresh(recovered) == 8
