"""Open-channel SSD: the paper's transparency upper bound.

§1: "recently proposed open-channel SSDs expose the FTL logic to the
host, yielding highly predictable I/O performance with perfect scheduling
decisions, presenting an upper bound on the improvement potential for SSD
transparency."

:class:`OpenChannelSSD` exports the raw geometry and physical operations
(program/read/erase) — no firmware FTL, no hidden state — and times
each one through the :class:`~repro.ssd.timed.FlashTimeline` that
:class:`~repro.ssd.timed.TimedSSD` schedules onto: one channel/die
timing rule for both drives, on the same flash.

:class:`HostFtl` is the host-side translation layer that the visibility
enables (LightNVM/pblk-flavoured).  Its predictability comes from two
things a firmware FTL cannot offer a host:

* the host sees the geometry, so it stripes writes perfectly across
  dies and never collides with itself;
* the host controls *when* reclaim happens, so GC is **incremental** —
  at most ``gc_step_pages`` migrations are interleaved per host write,
  bounding the worst-case stall instead of letting multi-block collection
  storms land on unlucky requests.

:func:`run_upper_bound_study` compares tail latency against the
black-box device under the identical workload.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.flash.geometry import Geometry
from repro.flash.nand import NandArray
from repro.flash.timing import TimingProfile, profile
from repro.sim import Kernel
from repro.ssd.allocation import PageAllocator
from repro.ssd.ops import FlashOp, OpKind, OpReason
from repro.ssd.presets import mqsim_baseline
from repro.ssd.timed import FlashTimeline, TimedSSD


class OpenChannelSSD:
    """Geometry-exposing device: raw ops timed by the same
    :class:`~repro.ssd.timed.FlashTimeline` pass a black-box drive's
    ops take.  Each raw op returns when it completes."""

    def __init__(self, geometry: Geometry, timing_name: str = "mlc") -> None:
        self.geometry = geometry
        self.timing: TimingProfile = profile(timing_name)
        self.nand = NandArray(geometry)
        self.kernel = Kernel()
        self.timeline = FlashTimeline(self.kernel, geometry, self.timing)

    @property
    def now(self) -> int:
        return self.kernel.now

    def program_page(self, ppn: int, at_ns: int,
                     oob: tuple[int, ...] = ()) -> int:
        self.nand.program(ppn, oob=oob or None)
        return self._time(FlashOp(OpKind.PROGRAM, ppn, OpReason.HOST), at_ns)

    def read_page(self, ppn: int, at_ns: int) -> int:
        return self._time(FlashOp(OpKind.READ, ppn, OpReason.HOST), at_ns)

    def erase_block(self, block: int, at_ns: int) -> int:
        self.nand.erase(block)
        return self._time(FlashOp(OpKind.ERASE, block, OpReason.HOST), at_ns)

    def _time(self, op: FlashOp, at_ns: int) -> int:
        end = self.timeline.schedule((op,), at_ns)
        self.kernel.run_until(at_ns)
        return end


@dataclass
class HostFtlStats:
    host_sector_writes: int = 0
    programs: int = 0
    gc_migrated_pages: int = 0
    erases: int = 0
    gc_steps: int = 0


class HostFtl:
    """A host-side FTL over an open-channel device.

    Page-mapped at sector granularity with perfect die striping and
    incremental (bounded-per-request) garbage collection.
    """

    def __init__(
        self,
        device: OpenChannelSSD,
        logical_sectors: int,
        gc_low_water_blocks: int = 3,
        gc_step_pages: int = 1,
    ) -> None:
        self.device = device
        geometry = device.geometry
        self.geometry = geometry
        spp = geometry.sectors_per_page
        #: the sectors it exports (a config's ``logical_sectors``).
        self.num_lpns = logical_sectors
        self.l2p = np.full(self.num_lpns, -1, dtype=np.int64)
        self.p2l = np.full(geometry.total_pages * spp, -1, dtype=np.int64)
        self.block_valid = np.zeros(geometry.total_blocks, dtype=np.int32)
        self.gc_low_water_blocks = gc_low_water_blocks
        self.gc_step_pages = gc_step_pages
        self.stats = HostFtlStats()

        #: the firmware FTL's block lifecycle, with PDWC's plane order:
        #: page *i* of a stream goes to plane ``i % planes_total``.
        self.allocator = PageAllocator(geometry, device.nand, "PDWC")
        self._pending: list[int] = []
        #: incremental-GC state: the victim being drained, if any.
        self._gc_victim: int | None = None
        self._gc_cursor = 0
        #: migrated sectors awaiting re-packing into full pages.
        self._gc_pending: list[int] = []

    # ------------------------------------------------------------------
    # Host interface
    # ------------------------------------------------------------------

    def write(self, lpn: int, at_ns: int) -> int:
        """Write one sector; returns its completion time.

        The write buffers until a full page is ready (the host knows the
        page size), then programs one perfectly-striped page.  At most
        ``gc_step_pages`` of GC work is interleaved — the bounded-stall
        discipline visibility makes possible.
        """
        if not 0 <= lpn < self.num_lpns:
            raise ValueError(f"lpn {lpn} out of range")
        self.stats.host_sector_writes += 1
        self._pending.append(lpn)
        complete = at_ns
        complete = max(complete, self._gc_step(at_ns))
        if len(self._pending) >= self.geometry.sectors_per_page:
            batch, self._pending = self._pending, []
            complete = max(complete, self._program_batch(batch, "host", at_ns))
        return complete

    def read(self, lpn: int, at_ns: int) -> int:
        psa = int(self.l2p[lpn])
        if psa < 0:
            return at_ns
        ppn = psa // self.geometry.sectors_per_page
        return self.device.read_page(ppn, at_ns)

    # ------------------------------------------------------------------

    def _program_batch(self, lpns: list[int], stream: str, at_ns: int) -> int:
        geometry = self.geometry
        spp = geometry.sectors_per_page
        ppn = self.allocator.allocate_page(stream)
        complete = self.device.program_page(ppn, at_ns, oob=tuple(lpns))
        self.stats.programs += 1
        block = ppn // geometry.pages_per_block
        for slot, lpn in enumerate(lpns[:spp]):
            psa = ppn * spp + slot
            old = int(self.l2p[lpn])
            if old >= 0 and int(self.p2l[old]) == lpn:
                self.p2l[old] = -1
                self.block_valid[old // spp // geometry.pages_per_block] -= 1
            self.l2p[lpn] = psa
            self.p2l[psa] = lpn
            self.block_valid[block] += 1
        return complete

    # ------------------------------------------------------------------
    # Incremental GC
    # ------------------------------------------------------------------

    def _gc_step(self, at_ns: int) -> int:
        """Do a *bounded* slice of reclaim work: the host amortizes GC
        over requests instead of paying it in storms."""
        low_water = self.gc_low_water_blocks * self.geometry.planes_total
        if self._gc_victim is None:
            if self.allocator.total_free_blocks() > low_water:
                return at_ns
            self._gc_victim = self._pick_victim()
            self._gc_cursor = 0
            if self._gc_victim is None:
                return at_ns
        geometry = self.geometry
        spp = geometry.sectors_per_page
        complete = at_ns
        moved = 0
        victim = self._gc_victim
        base = victim * geometry.pages_per_block
        while moved < self.gc_step_pages and self._gc_cursor < geometry.pages_per_block:
            ppn = base + self._gc_cursor
            self._gc_cursor += 1
            live = [
                int(self.p2l[ppn * spp + slot])
                for slot in range(spp)
                if int(self.p2l[ppn * spp + slot]) >= 0
            ]
            if not live:
                continue
            self.stats.gc_steps += 1
            self.device.read_page(ppn, at_ns)
            # Re-pack: migrated sectors accumulate until a full page is
            # ready, so reclaim never decays page density.
            self._gc_pending.extend(live)
            while len(self._gc_pending) >= spp:
                batch = self._gc_pending[:spp]
                del self._gc_pending[:spp]
                complete = max(complete,
                               self._program_batch(batch, "gc", at_ns))
                self.stats.gc_migrated_pages += 1
            moved += 1
        if self._gc_cursor >= geometry.pages_per_block:
            # The re-pack buffer may still hold this victim's sectors:
            # persist them (one possibly-partial page) before erasing.
            if self._gc_pending:
                batch, self._gc_pending = self._gc_pending, []
                complete = max(complete,
                               self._program_batch(batch, "gc", at_ns))
                self.stats.gc_migrated_pages += 1
            complete = max(complete, self.device.erase_block(victim, at_ns))
            self.stats.erases += 1
            self.allocator.release_block(victim)
            self._gc_victim = None
        return complete

    def _pick_victim(self) -> int | None:
        """Greedy over every plane's sealed blocks: fewest valid
        sectors, ties to the lowest block."""
        sealed = self.allocator.sealed_blocks
        valid = self.block_valid
        return min((block for plane in range(self.geometry.planes_total)
                    for block in sealed(plane)),
                   key=lambda block: (int(valid[block]), block), default=None)


@dataclass
class UpperBoundStudy:
    """Per-write latencies (us) of the same GC-steady-state random
    overwrites on a black-box drive and on a host FTL over its flash."""

    blackbox_us: np.ndarray
    openchannel_us: np.ndarray
    #: blocks the host FTL erased; nonzero once its GC has run.
    host_erases: int

    HEADERS = ("configuration", "p50 (us)", "p99 (us)", "p99.9 (us)",
               "max (us)")

    def rows(self) -> list[list]:
        """One latency-percentile row per configuration."""
        rows = []
        for name, lat in (("black-box FTL", self.blackbox_us),
                          ("open-channel + host FTL", self.openchannel_us)):
            p50, p99, p999 = np.percentile(lat, [50, 99, 99.9])
            rows.append([name, round(float(p50), 1), round(float(p99), 1),
                         round(float(p999), 1), round(float(lat.max()), 1)])
        return rows


def run_upper_bound_study() -> UpperBoundStudy:
    """Fill 80 % of an MQSim-baseline drive (scale 4), overwrite half of
    that at random to reach GC steady state, then time 6,000 closed-loop
    single-sector random writes — once through the firmware FTL, once
    through a :class:`HostFtl` with the drive's over-provisioning."""
    # The engine imports this package: import it at call time.
    from repro.workloads.engine import precondition, run_timed
    from repro.workloads.patterns import Region
    from repro.workloads.spec import JobSpec

    config = mqsim_baseline(scale=4)
    measured = 6000

    device = TimedSSD(config)
    span = int(device.num_sectors * 0.8)
    precondition(device, 0.8, span // 2, np.random.default_rng(4))
    device.quiesce()
    job = JobSpec("probe", "randwrite", Region(0, span), io_count=measured,
                  iodepth=1, seed=9)
    blackbox = run_timed(device, [job]).jobs["probe"].latencies_us

    host = HostFtl(OpenChannelSSD(config.geometry, config.timing_name),
                   config.logical_sectors, gc_step_pages=1)
    rng = np.random.default_rng(4)
    span = int(host.num_lpns * 0.8)
    now = 0
    for lpn in range(span):
        now = max(now, host.write(lpn, now))
    for _ in range(span // 2):
        now = max(now, host.write(int(rng.integers(span)), now))
    rng = np.random.default_rng(9)
    openchannel = np.empty(measured)
    for i in range(measured):
        done = host.write(int(rng.integers(span)), now)
        openchannel[i] = (done - now) / 1000
        now = max(now, done)
    return UpperBoundStudy(blackbox, openchannel, host.stats.erases)
