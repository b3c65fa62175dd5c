"""Background maintenance: idle GC, static wear leveling, refresh."""

import numpy as np
import pytest

from repro.flash.errors import FailureInjector
from repro.flash.geometry import Geometry
from repro.flash.nand import NandArray
from repro.ssd.allocation import PageAllocator
from repro.ssd.device import SimulatedSSD
from repro.ssd.ftl import Ftl
from repro.ssd.ops import OpKind, OpReason
from repro.ssd.policy import SchemeAllocation
from repro.ssd.presets import tiny
from repro.ssd.timed import TimedSSD
from repro.ssd.wearlevel import WearLeveler
from tests.helpers import ListSink, record_ops


def churn(device_or_ftl, writes, seed=0):
    ftl = getattr(device_or_ftl, "ftl", device_or_ftl)
    rng = np.random.default_rng(seed)
    target = device_or_ftl
    for _ in range(writes):
        lba = int(rng.integers(ftl.num_lpns))
        if hasattr(target, "write_sectors"):
            target.write_sectors(lba, 1)
        else:
            target.write(lba, 1)
    if hasattr(target, "flush"):
        target.flush()


class TestWearLeveler:
    GEOM = Geometry(
        channels=1, chips_per_channel=1, dies_per_chip=1, planes_per_die=1,
        blocks_per_plane=8, pages_per_block=4, page_size=8192, sector_size=4096,
    )

    def build(self, delta=2, full_blocks=()):
        """A leveler over an array whose *full_blocks* are written
        before the allocator reads its block state off it."""
        nand = NandArray(self.GEOM)
        for block in full_blocks:
            for page in range(self.GEOM.pages_per_block):
                nand.program(block * self.GEOM.pages_per_block + page)
        alloc = PageAllocator(self.GEOM, nand, SchemeAllocation("CWDP"))
        return WearLeveler(self.GEOM, nand, alloc, delta=delta), nand, alloc

    def test_no_leveling_when_even(self):
        leveler, _, _ = self.build()
        assert leveler.spread() == 0
        assert not leveler.should_level()

    def test_spread_detects_imbalance(self):
        leveler, nand, _ = self.build(delta=2)
        for _ in range(5):
            nand.erase(0)
        assert leveler.spread() == 5
        assert leveler.should_level()

    def test_picks_coldest_full_block(self):
        # Block 3 is fully written and cold; block 0 is worn.
        leveler, nand, _ = self.build(delta=1, full_blocks=[3])
        for _ in range(5):
            nand.erase(0)
        victim = leveler.pick_victim()
        assert victim is not None
        assert victim == 3

    def test_no_victim_when_nothing_full(self):
        leveler, nand, _ = self.build(delta=1)
        nand.erase(0)
        nand.erase(0)
        assert leveler.pick_victim() is None

    def test_delta_validation(self):
        with pytest.raises(ValueError):
            self.build(delta=0)


class TestIdleGc:
    def test_idle_gc_raises_free_blocks(self):
        device = SimulatedSSD(tiny())
        churn(device, 4000, seed=1)
        before = device.ftl.allocator.total_free_blocks()
        commands = record_ops(device)
        for _ in range(8):
            device.idle(max_blocks=6)
        ops = [op for command in commands for op in command]
        after = device.ftl.allocator.total_free_blocks()
        assert device.ftl.stats.idle_gc_blocks > 0
        # Net effect over several idle rounds: more usable free blocks
        # (single rounds can break even when victims are nearly full).
        assert after >= before
        assert any(op.kind is OpKind.ERASE for op in ops)
        device.ftl.check_invariants()

    def test_idle_noop_on_fresh_device(self):
        device = SimulatedSSD(tiny())
        commands = record_ops(device)
        assert device.idle() == device.now
        assert commands == [[]]

    def test_idle_gc_counts_as_ftl_traffic(self):
        device = SimulatedSSD(tiny())
        churn(device, 4000, seed=2)
        before = device.smart.gc_program_pages
        device.idle(max_blocks=6)
        assert device.smart.gc_program_pages >= before


class TestWearLevelingIntegration:
    def test_wear_migrations_shrink_spread(self):
        config = tiny().with_changes(wear_leveling=True, wear_leveling_delta=4)
        ftl = Ftl(config)
        # Cold data: written once, never touched again.
        for lpn in range(64):
            ftl.write(lpn)
        ftl.flush()
        # Hot churn over the rest wears other blocks.
        rng = np.random.default_rng(3)
        for _ in range(6000):
            ftl.write(64 + int(rng.integers(ftl.num_lpns - 64)))
        ftl.flush()
        assert ftl.leveler.should_level()
        spread_before = ftl.leveler.spread()
        for _ in range(20):
            ftl.idle_maintenance(max_blocks=4)
        assert ftl.stats.wear_migrations > 0
        assert ftl.leveler.spread() <= spread_before
        ftl.check_invariants()

    def test_wear_ops_attributed(self):
        config = tiny().with_changes(wear_leveling=True, wear_leveling_delta=2)
        device = SimulatedSSD(config)
        churn(device, 5000, seed=4)
        for _ in range(10):
            device.idle(max_blocks=4)
        if device.ftl.stats.wear_migrations:
            assert device.smart.wear_program_pages > 0

    def test_disabled_by_default(self):
        ftl = Ftl(tiny())
        assert ftl.leveler is None


class TestRefresh:
    def test_old_blocks_refreshed(self):
        config = tiny().with_changes(refresh_after_ops=100)
        ftl = Ftl(config)
        for lpn in range(48):  # cold data, programmed early
            ftl.write(lpn)
        ftl.flush()
        rng = np.random.default_rng(5)
        # Light churn: ages the device past the deadline without GC
        # churning through (and thereby implicitly refreshing) the cold
        # blocks.
        for _ in range(400):
            ftl.write(48 + int(rng.integers(ftl.num_lpns - 48)))
        ftl.flush()
        ops = []
        for _ in range(10):
            ops.extend(ftl.idle_maintenance(max_blocks=8))
        assert ftl.stats.refreshed_blocks > 0
        assert any(op.reason is OpReason.REFRESH for op in ops)
        ftl.check_invariants()
        # Refreshed data still resolves correctly.
        for lpn in range(48):
            psa = int(ftl.mapping.l2p[lpn])
            assert psa >= 0 and int(ftl.p2l[psa]) == lpn

    def test_refresh_disabled_by_default(self):
        ftl = Ftl(tiny())
        churn(ftl, 2000, seed=6)
        ftl.idle_maintenance()
        assert ftl.stats.refreshed_blocks == 0

    def test_fresh_blocks_not_refreshed(self):
        config = tiny().with_changes(refresh_after_ops=100_000)
        ftl = Ftl(config)
        churn(ftl, 1500, seed=7)
        ftl.idle_maintenance()
        assert ftl.stats.refreshed_blocks == 0


class TestReclaimEraseFailures:
    """Refresh and wear levelling reclaim a block as GC does: an
    injected erase failure retires the block instead of erasing it."""

    @staticmethod
    def _fail_every_erase(ftl):
        injector = FailureInjector(erase_fail_prob=1.0)
        ftl.injector = injector
        sink = ListSink()
        ftl.attach_sink(sink)
        return injector, sink

    @staticmethod
    def _assert_retired(ftl, sink, ops, blocks, reason):
        retired = [e for e in sink.events if e.NAME == "block_retired"]
        assert {e.cause for e in retired} == {"erase_fail"}
        assert blocks <= {e.block for e in retired}
        assert blocks <= ftl.allocator.retired_blocks
        for block in blocks:
            plane = ftl.allocator._plane_of_block(block)
            assert block not in ftl.allocator._free_blocks[plane]
        assert not [op for op in ops
                    if op.kind is OpKind.ERASE and op.reason is reason]
        ftl.check_invariants()

    def test_refresh_retires_blocks_whose_erase_fails(self):
        ftl = Ftl(tiny().with_changes(refresh_after_ops=500))
        for lpn in range(0, ftl.num_lpns - 1, 2):
            ftl.write(lpn, 2)
        for _ in range(500):  # cache hits: the device ages, no block moves
            ftl.write(0, 1)
        ftl.flush()
        injector, sink = self._fail_every_erase(ftl)
        ops = ftl.idle_maintenance(4)
        # Blocks whose live data was read out for a refresh.
        ppb = ftl.geometry.pages_per_block
        refreshed = {e.target // ppb for e in sink.events
                     if e.NAME == "flash_op" and e.kind == "read"
                     and e.reason == "refresh"}
        # One idle-GC victim and three refreshed blocks; every erase is
        # asked of the injector, the refreshes' included.
        assert ftl.stats.idle_gc_blocks == 1
        assert ftl.stats.refreshed_blocks == len(refreshed) == 3
        assert injector.erase_failures == 4
        assert ftl.stats.blocks_retired == 4
        self._assert_retired(ftl, sink, ops, refreshed, OpReason.REFRESH)

    def test_wear_levelling_retires_a_victim_whose_erase_fails(self):
        ftl = Ftl(tiny().with_changes(wear_leveling=True,
                                      wear_leveling_delta=4))
        for lpn in range(64):  # cold data
            ftl.write(lpn)
        ftl.flush()
        rng = np.random.default_rng(3)
        for _ in range(6000):
            ftl.write(64 + int(rng.integers(ftl.num_lpns - 64)))
        ftl.flush()
        assert ftl.leveler.should_level()
        injector, sink = self._fail_every_erase(ftl)
        ops = ftl.idle_maintenance(4)
        victims = {e.victim for e in sink.events if e.NAME == "wear_rebalance"}
        assert victims and ftl.stats.wear_migrations == len(victims)
        assert injector.erase_failures == ftl.stats.blocks_retired
        self._assert_retired(ftl, sink, ops, victims, OpReason.WEAR)


class TestTimedIdle:
    def test_idle_occupies_dies(self):
        device = TimedSSD(tiny())
        rng = np.random.default_rng(8)
        for _ in range(3000):
            device.submit("write", int(rng.integers(device.num_sectors)), 1,
                          at_ns=device.now)
        device.quiesce()
        t0 = device.now
        end = device.idle(max_blocks=6)
        if device.ftl.stats.idle_gc_blocks:
            assert end > t0  # background work takes real device time

    def test_idle_interferes_with_next_request(self):
        """The §2.1 point: background ops delay foreground requests."""
        device = TimedSSD(tiny())
        rng = np.random.default_rng(9)
        for _ in range(3000):
            device.submit("write", int(rng.integers(device.num_sectors)), 1,
                          at_ns=device.now)
        device.quiesce()
        start = device.now
        device.idle(max_blocks=8)
        request = device.submit("read", 0, 1, at_ns=start + 1)
        baseline = TimedSSD(tiny())
        baseline.submit("write", 0, 1, at_ns=0)
        baseline.flush()
        baseline.quiesce()
        quiet = baseline.submit("read", 0, 1, at_ns=baseline.now)
        if device.ftl.stats.idle_gc_blocks:
            assert request.latency_ns >= quiet.latency_ns
