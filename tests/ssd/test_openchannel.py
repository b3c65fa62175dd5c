"""Open-channel device and host-side FTL."""

import numpy as np
import pytest

from repro.flash.nand import FlashViolation
from repro.flash.onfi import (
    encode_erase,
    encode_program,
    encode_read,
    operation_bus_ns,
)
from repro.flash.timing import profile
from repro.ssd.openchannel import HostFtl, OpenChannelSSD
from repro.ssd.presets import mqsim_baseline

CFG = mqsim_baseline(scale=4)


#: the flash's sectors less 15 % over-provisioning.
LOGICAL_SECTORS = int(CFG.geometry.capacity_bytes * 0.85) // CFG.geometry.sector_size


def make_host(**kwargs):
    device = OpenChannelSSD(CFG.geometry, CFG.timing_name)
    return HostFtl(device, LOGICAL_SECTORS, **kwargs), device


def churn(host, writes, region_fraction=0.8, seed=0):
    rng = np.random.default_rng(seed)
    span = int(host.num_lpns * region_fraction)
    now = host.device.now
    for _ in range(writes):
        now = max(now, host.write(int(rng.integers(span)), now))
    return now


class TestOpenChannelDevice:
    def test_raw_program_and_read(self):
        device = OpenChannelSSD(CFG.geometry, CFG.timing_name)
        programmed = device.program_page(0, at_ns=0, oob=(7,))
        assert programmed >= device.timing.program_ns
        assert device.read_page(0, at_ns=programmed) > programmed
        assert device.nand.read(0) == (7,)

    def test_raw_ops_respect_nand_rules(self):
        device = OpenChannelSSD(CFG.geometry, CFG.timing_name)
        device.program_page(0, at_ns=0)
        with pytest.raises(FlashViolation):
            device.program_page(0, at_ns=0)  # erase-before-write is exposed
        device.erase_block(0, at_ns=0)
        device.program_page(0, at_ns=0)

    def test_raw_op_timing(self):
        """On an idle die each raw op takes its bus cycles, then its
        array time; a read's data-out follows tR."""
        geometry = CFG.geometry
        timing = profile(CFG.timing_name)
        at = 5_000
        device = OpenChannelSSD(geometry, CFG.timing_name)
        programmed = device.program_page(0, at_ns=at)
        assert programmed == at + _program_ns()
        data_out = timing.transfer_ns(geometry.page_size)
        command = operation_bus_ns(
            encode_read(geometry, timing, geometry.address(0)), timing) - data_out
        assert device.read_page(0, at_ns=programmed) == (
            programmed + command + timing.read_ns + data_out)
        erase_bus = operation_bus_ns(
            encode_erase(geometry, timing, geometry.block_address(1)), timing)
        fresh = OpenChannelSSD(geometry, CFG.timing_name)
        assert fresh.erase_block(1, at_ns=at) == at + erase_bus + timing.erase_ns

    def test_die_serialization(self):
        device = OpenChannelSSD(CFG.geometry, CFG.timing_name)
        a = device.program_page(0, at_ns=0)
        b = device.program_page(1, at_ns=0)  # same block -> same die
        assert a == _program_ns()
        assert b == a + _program_ns()  # one program later


def _program_ns() -> int:
    """A page program on an idle die: its bus cycles, then tPROG."""
    timing = profile(CFG.timing_name)
    onfi = encode_program(CFG.geometry, timing, CFG.geometry.address(0))
    return operation_bus_ns(onfi, timing) + timing.program_ns


class TestHostFtl:
    def test_writes_readable(self):
        host, _ = make_host()
        now = 0
        for lpn in range(32):
            now = max(now, host.write(lpn, now))
        mapped = [lpn for lpn in range(32) if int(host.l2p[lpn]) >= 0]
        # Whole pages are programmed; at most one partial page pending.
        assert len(mapped) >= 32 - CFG.geometry.sectors_per_page
        for lpn in mapped:
            assert host.read(lpn, now) > now

    def test_striping_spreads_dies(self):
        host, device = make_host()
        now = 0
        for lpn in range(CFG.geometry.sectors_per_page * 16):
            now = max(now, host.write(lpn, now))
        programmed = np.nonzero(device.nand.page_state == 1)[0]
        dies = {CFG.geometry.die_of_ppn(int(p)) for p in programmed}
        assert len(dies) == CFG.geometry.dies_total

    def test_gc_reclaims_and_data_survives(self):
        host, _ = make_host(gc_step_pages=2)
        now = churn(host, 40_000, seed=1)
        assert host.stats.erases > 0
        assert host.stats.gc_migrated_pages > 0
        # Mapping stays coherent under reclaim.
        spp = CFG.geometry.sectors_per_page
        for lpn in range(host.num_lpns):
            psa = int(host.l2p[lpn])
            if psa >= 0:
                assert int(host.p2l[psa]) == lpn

    def test_bounded_gc_bounds_the_tail(self):
        """The transparency dividend: worst-case write stall stays within
        a couple of flash operations, GC or not."""
        host, _ = make_host(gc_step_pages=1)
        now = churn(host, 30_000, seed=2)
        lat = []
        rng = np.random.default_rng(3)
        span = int(host.num_lpns * 0.8)
        for _ in range(8000):
            done = host.write(int(rng.integers(span)), now)
            lat.append(done - now)
            now = max(now, done)
        worst_us = max(lat) / 1000
        # One host program + one bounded GC slice (read+program+erase).
        budget_us = (3 * host.device.timing.program_ns
                     + host.device.timing.erase_ns) / 1000
        assert worst_us <= budget_us

    def test_lpn_range_checked(self):
        host, _ = make_host()
        with pytest.raises(ValueError):
            host.write(host.num_lpns, 0)

    def test_read_unmapped_is_instant(self):
        host, _ = make_host()
        assert host.read(5, at_ns=100) == 100
