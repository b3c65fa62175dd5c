"""The simulated drive: the FTL behind a host interface, under a clock.

:class:`TimedSSD` is the one device class.  It wraps an
:class:`~repro.ssd.ftl.Ftl` behind the sector-addressed command set a
host sees (``identify``/``write_sectors``/``read_sectors``/
``trim_sectors``/``flush``/``idle``/``shutdown`` plus the SMART
observation window), maintains the SMART statistics a black-box
observer reads, and — unless built with ``zero_latency=True`` — times
every request.

A **zero-latency** device is counter mode: the FTL, SMART and host
commands are the same, but no op is scheduled and every request
completes at its submit time.  Write-amplification studies (Fig 4) run
there, because op counts are all they read.

Latency questions (the paper's Fig 3) need more than op counts: they need
queueing.  A timed device schedules the FTL's op stream through a
:class:`FlashTimeline` onto the device's two resource classes —

* **channels**, serializing command/data transfers of every package that
  shares the bus, and
* **dies**, busy for tR/tPROG/tBERS while the array works

— as named :class:`~repro.sim.kernel.Resource` timelines on a
:class:`~repro.sim.kernel.Kernel`: each resource holds the time it next
becomes free, ops claim resources in FTL emission order, and a host
request completes when the last op it *synchronously depends on*
finishes.  The open-channel device times its raw ops through the same
pass, so both drives follow one timing rule.

Synchronicity model (this is what produces realistic write tails): a
host write completes once its sectors are *admitted* to the RAM write
cache.  Cache space is returned when flush programs complete on the
flash — a :class:`~repro.sim.kernel.CapacityPool` tracks the occupancy
and the heap of scheduled releases — so while the dies keep up, writes
finish in :data:`CONTROLLER_OVERHEAD_NS`; when foreground GC or queueing
backs the dies up, releases lag, the cache fills, and admissions stall
for milliseconds — the GC-induced tail.  Reads always wait for flash.

Background maintenance can run two ways: the legacy blocking
:meth:`TimedSSD.idle` call (maintenance occupies the dies *now*), or —
after :meth:`TimedSSD.enable_background_maintenance` — as a kernel
process that wakes periodically and does maintenance whenever the host
has left an idle gap, so background work overlaps the gaps between
submissions instead of needing an explicit call.

A :class:`BusTap` can be attached to render every op on one channel into
ONFI pin signals — the hardware-probe substrate of §3.1.  It is fed from
inside the one scheduling pass every op list takes, so probing a device
never changes how it is scheduled.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from repro.flash.errors import FailureInjector
from repro.flash.geometry import Geometry
from repro.flash.onfi import (
    OnfiOperation,
    encode_erase,
    encode_program,
    encode_read,
    operation_bus_ns,
)
from repro.flash.signals import SignalEmitter, SignalTrace
from repro.flash.timing import PSLC, TimingProfile, profile
from repro.obs.events import CacheStall, HostRequest, ResourceBusy
from repro.obs.sinks import NULL_SINK, TALLIES, TraceSink
from repro.sim.kernel import CapacityPool, Kernel, PowerLoss, Process, Resource
from repro.ssd.config import SsdConfig
from repro.ssd.ftl import Ftl
from repro.ssd.ops import FlashOp, OpKind, OpReason, new_tuple
from repro.ssd.smart import SmartCounters

# Enum members as module constants: the scheduling pass tells ops apart
# by identity, which costs neither an attribute lookup nor an Enum hash.
_READ, _PROGRAM, _ERASE = OpKind.READ, OpKind.PROGRAM, OpKind.ERASE
_HOST, _PSLC = OpReason.HOST, OpReason.PSLC

#: Firmware time to accept a request: the latency of a write the RAM
#: cache admits at once, and a floor under every other request.
CONTROLLER_OVERHEAD_NS = 8_000


@dataclass
class DeviceInfo:
    """What an INQUIRY/IDENTIFY-style query would return."""

    model: str
    capacity_bytes: int
    sector_size: int


class CompletedRequest(NamedTuple):
    """One finished host request with its timing.

    A NamedTuple: one is built per host request on the hot path, where
    frozen-dataclass construction was a measurable cost.
    """

    kind: str
    lba: int
    nsectors: int
    submit_ns: int
    complete_ns: int

    @property
    def latency_ns(self) -> int:
        return self.complete_ns - self.submit_ns

    @property
    def latency_us(self) -> float:
        return self.latency_ns / 1_000


@dataclass(frozen=True)
class BackgroundPolicy:
    """When and how much scheduled background maintenance runs.

    The maintenance process wakes every ``check_interval_ns``; if the
    host has been quiet for ``idle_threshold_ns`` and the flash is
    drained, it runs ``ftl.idle_maintenance(max_blocks)`` and schedules
    the resulting ops — which a later host request then queues behind
    (the §2.1 "unpredictable background operations" effect, without a
    blocking ``idle()`` call).
    """

    idle_threshold_ns: int = 2_000_000
    check_interval_ns: int = 2_000_000
    max_blocks: int = 2


class BusTap:
    """Probe wiring: renders ops on one channel to ONFI signals.

    This is the simulated counterpart of soldering probes to a flash
    package's pinouts: the tap sees bus traffic for a single channel and
    nothing else.
    """

    def __init__(self, geometry: Geometry, timing: TimingProfile, channel: int = 0) -> None:
        if geometry.chips_per_channel * geometry.dies_per_chip != 1:
            raise ValueError(
                "BusTap renders a single R/B# lane, so it models probing a "
                "single-die package; probe a channel with one die (per-die "
                "ready/busy pins are not modeled separately)"
            )
        self.geometry = geometry
        self.timing = timing
        self.channel = channel
        self.emitter = SignalEmitter(timing)

    @property
    def trace(self) -> SignalTrace:
        return self.emitter.trace

    def observe(self, op: FlashOp, onfi_op: OnfiOperation, start_ns: int) -> None:
        self.emitter.emit(onfi_op, start_ns)


class FlashTimeline:
    """The channel and die timelines of one flash array, and the one
    pass that turns flash ops into time on them.

    Both devices schedule through it: :class:`TimedSSD` with its SMART
    counters, write-cache pool and :class:`BusTap`, and
    :class:`~repro.ssd.openchannel.OpenChannelSSD` with none of them
    (its timeline keeps SMART counters of its own and credits no cache).
    """

    def __init__(self, kernel: Kernel, geometry: Geometry,
                 timing: TimingProfile, pslc_blocks=(),
                 smart: SmartCounters | None = None,
                 cache_pool: CapacityPool | None = None,
                 bus_tap: BusTap | None = None) -> None:
        self.kernel = kernel
        self.geometry = geometry
        self.timing = timing
        self.smart = SmartCounters() if smart is None else smart
        self.cache_pool = cache_pool
        self.bus_tap = bus_tap
        self.dies: list[Resource] = [kernel.resource(f"die/{i}")
                                     for i in range(geometry.dies_total)]
        self.channels: list[Resource] = [kernel.resource(f"channel/{i}")
                                         for i in range(geometry.channels)]
        #: where a block's ops run, fixed by the geometry: ``(die,
        #: channel, array timing)`` per global block index.  Blocks
        #: operated in pSLC mode program/erase at pSLC speed.
        pslc_blocks = frozenset(pslc_blocks)
        self.placement: list[tuple[Resource, Resource, TimingProfile]] = [
            (self.dies[geometry.die_of_block(block)],
             self.channels[geometry.channel_of_block(block)],
             PSLC if block in pslc_blocks else timing)
            for block in range(geometry.total_blocks)
        ]
        self._pages_per_block = geometry.pages_per_block
        self._sectors_per_page = geometry.sectors_per_page
        #: cached bus occupancy per op kind, keyed by payload length:
        #: ONFI bus time depends only on cycle counts and payload length,
        #: never on address values, so encoding once per shape is exact
        #: (see _op_bus_ns).  Reads hold ``(cmd_ns, data_ns)``.
        self._read_bus_ns: dict[int, tuple[int, int]] = {}
        self._program_bus_ns: dict[int, int] = {}
        self._erase_bus_ns: dict[int, int] = {}

    def schedule(self, ops, earliest: int) -> int:
        """Place *ops*, in emission order, on their channel/die
        timelines, none starting before *earliest*; returns when the
        last one finishes (*earliest* for an empty list).

        One pass does everything an op needs: SMART attribution, the
        resource claims, their ``resource_busy`` events when a sink is
        attached (one ``tally`` for the pass when the sink aggregates),
        the ONFI cycles a :class:`BusTap` on the op's channel
        sees, and — with a cache pool, for every host or pSLC program,
        the programs that carry cached sectors out of RAM — the cache
        release at the program's end.  An op's die, channel and array
        timing are one index into the per-block placement table.  The
        claims advance the :class:`~repro.sim.kernel.Resource` counters
        in place and take bus occupancies from the per-shape caches;
        only a tapped channel's ops are encoded one by one.
        """
        flash_done = earliest
        smart = self.smart
        placement = self.placement
        pages_per_block = self._pages_per_block
        read_bus_ns = self._read_bus_ns
        read_pages = 0
        obs = self.kernel.obs
        traced = obs.enabled
        if traced:
            tally = TALLIES[obs.__class__]
            emit = obs.emit if tally is None else None
            # An op's busy intervals (channel and die) sum to end - start.
            busy_total = 0
        tap = self.bus_tap
        tapped = self.channels[tap.channel] if tap is not None else None
        pool = self.cache_pool
        for op in ops:
            kind, target, reason, nbytes = op
            die, channel, array_timing = placement[
                target if kind is _ERASE else target // pages_per_block]
            # ONFI: the controller cannot issue to a busy die or over a
            # busy channel.  Every hold below therefore ends at or past
            # its resource's free_at, which it simply replaces.
            start = earliest
            if channel.free_at > start:
                start = channel.free_at
            if die.free_at > start:
                start = die.free_at
            if channel is tapped:
                # The probe sees the op from the instant its bus phase
                # begins.
                tap.observe(op, self.encode(op), start)
            if kind is _READ:
                read_pages += 1
                ns = read_bus_ns.get(nbytes)
                if ns is None:
                    ns = read_bus_ns[nbytes] = self._op_bus_ns(op)
                cmd_ns, data_ns = ns
                array_ns = array_timing.read_ns
                # Command cycles, array time (tR), data out.  Nothing
                # else claims the channel in between, so the data moves
                # the moment the array is done.
                cmd_end = start + cmd_ns
                array_end = cmd_end + array_ns
                end = array_end + data_ns
                channel.holds += 2
                channel.busy_ns += cmd_ns + data_ns
                channel.free_at = end
                die.holds += 1
                die.busy_ns += array_ns
                die.free_at = array_end
                if traced:
                    if emit is None:
                        busy_total += end - start
                    else:
                        # ResourceBusy(resource, start_ns, busy_ns, wait_ns)
                        emit(ResourceBusy(channel.name, start, cmd_ns,
                                          start - earliest))
                        emit(ResourceBusy(die.name, cmd_end, array_ns,
                                          cmd_end - earliest))
                        emit(ResourceBusy(channel.name, array_end, data_ns,
                                          0))
            else:
                if kind is _PROGRAM:
                    if reason is _HOST:
                        smart.host_program_pages += 1
                    else:
                        smart.record(op)  # FTL page + its per-reason detail
                    cache = self._program_bus_ns
                    array_ns = array_timing.program_ns
                else:
                    smart.erase_count += 1
                    cache = self._erase_bus_ns
                    array_ns = array_timing.erase_ns
                bus_ns = cache.get(nbytes)
                if bus_ns is None:
                    bus_ns = cache[nbytes] = self._op_bus_ns(op)
                bus_end = start + bus_ns
                end = bus_end + array_ns
                channel.holds += 1
                channel.busy_ns += bus_ns
                channel.free_at = bus_end
                die.holds += 1
                die.busy_ns += array_ns
                die.free_at = end
                if traced:
                    if emit is None:
                        busy_total += end - start
                    else:
                        emit(ResourceBusy(channel.name, start, bus_ns,
                                          start - earliest))
                        emit(ResourceBusy(die.name, bus_end, array_ns,
                                          bus_end - earliest))
                if (pool is not None and kind is _PROGRAM
                        and (reason is _HOST or reason is _PSLC)):
                    # The program carries cached sectors back out of RAM.
                    pool.schedule_release(end, self._sectors_per_page)
            if end > flash_done:
                flash_done = end
        smart.read_pages += read_pages
        if traced and tally is not None and ops:
            # Three intervals per read, two per program or erase.
            tally(obs, "resource_busy", 2 * len(ops) + read_pages,
                  busy_total)
        return flash_done

    def _op_bus_ns(self, op: FlashOp) -> int | tuple[int, int]:
        """Bus occupancy for ops shaped like *op*.

        :func:`operation_bus_ns` sums per-cycle times, and the cycle
        *list shape* (command + address counts, payload length) is fixed
        per (kind, nbytes) — address byte values never change the total —
        so encoding one representative op is exact for all of them.
        Reads return ``(cmd_ns, data_ns)``: command cycles and data-out
        occupy the channel on either side of the array busy time.
        """
        timing = self.timing
        bus_ns = operation_bus_ns(self.encode(op), timing)
        if op.kind is not _READ:
            return bus_ns
        data_ns = timing.transfer_ns(op.nbytes or self.geometry.page_size)
        return (bus_ns - data_ns, data_ns)

    def encode(self, op: FlashOp) -> OnfiOperation:
        """*op* as its ONFI cycle list — the one place an op becomes bus
        cycles, for the occupancy caches and the tap alike."""
        geometry = self.geometry
        timing = self.timing
        if op.kind is _ERASE:
            return encode_erase(geometry, timing,
                                geometry.block_address(op.target))
        addr = geometry.address(op.target)
        if op.kind is _PROGRAM:
            return encode_program(geometry, timing, addr, op.nbytes or None)
        return encode_read(geometry, timing, addr, op.nbytes or None)


class TimedSSD:
    """The FTL scheduled onto channel/die resources under a sim kernel,
    or — with *zero_latency* — run op by op with no timing at all."""

    def __init__(
        self,
        config: SsdConfig,
        model: str = "repro-ssd-timed",
        bus_tap: BusTap | None = None,
        injector: FailureInjector | None = None,
        zero_latency: bool = False,
    ) -> None:
        self.config = config
        self.model = model
        self.geometry = config.geometry
        self.timing = profile(config.timing_name)
        self.controller_overhead_ns = CONTROLLER_OVERHEAD_NS
        #: counter mode: ops are attributed to SMART and never scheduled.
        self.zero_latency = zero_latency
        self.ftl = Ftl(config, injector=injector)
        #: with an injector attached, a pending planned power cut is
        #: honored at the next submission (see :meth:`submit`).
        self._watch_power = injector is not None
        self.smart = SmartCounters()
        self.bus_tap = bus_tap
        self.obs: TraceSink = NULL_SINK
        self.kernel = Kernel()
        # Write-cache admission state: sectors admitted occupy RAM until
        # the flush program that carries them completes on flash.
        self._cache_pool = CapacityPool(self.ftl.cache.capacity)
        self._timeline = FlashTimeline(
            self.kernel, self.geometry, self.timing, config.pslc_block_ids(),
            self.smart, self._cache_pool, bus_tap)
        self._absorbed_seen = 0
        self._last_host_ns = 0
        self._background: Process | None = None

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------

    @property
    def now(self) -> int:
        return self.kernel.now

    @now.setter
    def now(self, value: int) -> None:
        # Hosts may only move time forward (e.g. a synchronous sector
        # command advancing past its request's completion).
        self.kernel.run_until(max(self.kernel.now, int(value)))

    # ------------------------------------------------------------------
    # Identity, observability and the SMART observation surface
    # ------------------------------------------------------------------

    @property
    def sector_size(self) -> int:
        return self.geometry.sector_size

    @property
    def num_sectors(self) -> int:
        return self.ftl.num_lpns

    @property
    def capacity_bytes(self) -> int:
        return self.num_sectors * self.sector_size

    def identify(self) -> DeviceInfo:
        return DeviceInfo(self.model, self.capacity_bytes, self.sector_size)

    def attach_sink(self, sink: TraceSink) -> None:
        """Route trace events from the device, the sim kernel's
        resources, and the whole FTL stack underneath to *sink* (pass
        :data:`~repro.obs.sinks.NULL_SINK` to detach)."""
        self.obs = sink
        self.kernel.attach_sink(sink)
        self.ftl.attach_sink(sink)

    def smart_snapshot(self) -> SmartCounters:
        """What ``smartctl -A`` would report right now."""
        self._sync_derived_attributes()
        return self.smart.snapshot()

    def smart_render(self) -> str:
        self._sync_derived_attributes()
        return self.smart.render()

    def _sync_derived_attributes(self) -> None:
        """Derive the firmware-computed attributes from FTL state."""
        ftl = self.ftl
        mean_erases = float(ftl.nand.block_erase_count.mean())
        remaining = 100 - int(100 * mean_erases / ftl.nand.erase_limit)
        self.smart.percent_lifetime_remaining = max(0, min(100, remaining))
        self.smart.reported_uncorrectable = ftl.stats.uncorrectable_reads
        self.smart.grown_bad_blocks = ftl.stats.blocks_retired
        self.smart.relocated_sectors = ftl.stats.relocated_sectors
        self.smart.read_retries = ftl.stats.read_retries
        self.smart.rain_reconstructions = ftl.stats.rain_reconstructions

    def _record(self, ops: list[FlashOp]) -> None:
        """Zero latency: attribute *ops* to SMART without scheduling
        them (the timeline's pass does this for a timed device).  As in
        :meth:`FlashTimeline.schedule`, host page programs, the bulk of
        a write's ops, are counted here, and ``record()`` takes the
        rest."""
        smart = self.smart
        record = smart.record
        host_programs = 0
        for op in ops:
            if op.kind is _PROGRAM and op.reason is _HOST:
                host_programs += 1
            else:
                record(op)
        smart.host_program_pages += host_programs

    # ------------------------------------------------------------------
    # Host interface
    # ------------------------------------------------------------------

    def submit(self, kind: str, lba: int, nsectors: int, at_ns: int) -> CompletedRequest:
        """Process one host request submitted at *at_ns*.

        Requests must be submitted in non-decreasing time order (the
        workload engine guarantees this).  Advancing to *at_ns* first
        fires any kernel events due in the gap — scheduled background
        maintenance runs here, overlapping host idle time.

        When a planned fault injector has a power cut pending (armed by
        a previous request's ``tick``), the plug is pulled before this
        request touches the device: :class:`~repro.sim.kernel.PowerLoss`
        propagates to the caller, and whatever the RAM cache held that
        never reached flash is gone (the crash sweep's semantics).

        A zero-latency device completes the request at *at_ns* and emits
        its ``host_request`` event ahead of the FTL's events, with the
        timing fields left at their ``-1`` sentinels.
        """
        kernel = self.kernel
        if self._watch_power and self.ftl.injector.power_cut_pending():
            raise PowerLoss(max(kernel.now, at_ns))
        if at_ns < kernel.now:
            at_ns = kernel.now
        if kernel._fel:
            kernel.run_until(at_ns)
        elif at_ns > kernel.now:
            # run_until with an empty event list only moves the clock;
            # skipping the call matters at millions of requests.
            kernel.now = at_ns
        self._last_host_ns = at_ns
        zero_latency = self.zero_latency
        obs = self.obs
        if obs.enabled:
            tally = TALLIES[obs.__class__]
            if zero_latency:
                if tally is None:
                    obs.emit(HostRequest(kind, lba, nsectors))
                else:
                    tally(obs, "host_request", 1)  # a -1 sentinel: no total
        if kind == "write":
            ops = self.ftl.write(lba, nsectors)
            self.smart.host_sectors_written += nsectors
        elif kind == "read":
            ops = self.ftl.read(lba, nsectors)
            self.smart.host_sectors_read += nsectors
        elif kind == "trim":
            ops = self.ftl.trim(lba, nsectors)
        else:
            raise ValueError(f"unknown request kind {kind!r}")
        if zero_latency:
            self._record(ops)
            return new_tuple(CompletedRequest,
                             (kind, lba, nsectors, at_ns, at_ns))

        flash_done = self._timeline.schedule(ops, at_ns) if ops else at_ns
        if kind == "write":
            complete = self._admit_write(at_ns, nsectors)
        else:
            complete = at_ns + self.controller_overhead_ns
            if flash_done > complete:
                complete = flash_done
        request = new_tuple(CompletedRequest,
                            (kind, lba, nsectors, at_ns, complete))
        if obs.enabled:
            if tally is not None:
                tally(obs, "host_request", 1, complete - at_ns)
            else:
                stall = (complete - at_ns - self.controller_overhead_ns
                         if kind == "write" else 0)
                if stall < 0:
                    stall = 0
                obs.emit(HostRequest(kind, lba, nsectors, at_ns,
                                     complete - at_ns, stall))
        return request

    # -- synchronous sector commands -----------------------------------
    #
    # FS models and black-box probes drive a device one command at a
    # time: each is submitted at the current clock, which then advances
    # past the completion (not at all on a zero-latency device).

    def write_sectors(self, lba: int, count: int = 1) -> CompletedRequest:
        """Write synchronously at the current clock; time advances past
        the request's completion."""
        return self._submit_sync("write", lba, count)

    def read_sectors(self, lba: int, count: int = 1) -> CompletedRequest:
        return self._submit_sync("read", lba, count)

    def trim_sectors(self, lba: int, count: int = 1) -> CompletedRequest:
        return self._submit_sync("trim", lba, count)

    def _submit_sync(self, kind: str, lba: int, count: int) -> CompletedRequest:
        request = self.submit(kind, lba, count, at_ns=self.now)
        self.now = request.complete_ns
        return request

    # ------------------------------------------------------------------
    # Write-cache admission
    # ------------------------------------------------------------------

    def _admit_write(self, at_ns: int, nsectors: int) -> int:
        """When do *nsectors* fit in the cache?  Absorbed sectors (write
        hits) cost nothing; the rest occupy space until flush programs
        release it."""
        absorbed_total = self.ftl.stats.cache_absorbed
        fresh = nsectors - (absorbed_total - self._absorbed_seen)
        self._absorbed_seen = absorbed_total
        when = self._cache_pool.acquire(at_ns, fresh, overshoot=nsectors)
        if when > at_ns and self.obs.enabled:
            obs = self.obs
            tally = TALLIES[obs.__class__]
            if tally is not None:
                tally(obs, "cache_stall", 1, when - at_ns)
            else:
                obs.emit(CacheStall(stall_ns=when - at_ns,
                                    occupied=self._cache_pool.occupied,
                                    capacity=self._cache_pool.capacity))
        return when + self.controller_overhead_ns

    def flush(self, at_ns: int | None = None) -> CompletedRequest:
        """FLUSH CACHE as a timed request."""
        at_ns = self.now if at_ns is None else max(at_ns, self.now)
        self.kernel.run_until(at_ns)
        self._last_host_ns = at_ns
        if self.zero_latency and self.obs.enabled:
            # As in submit: announced ahead of the FTL's events.
            self.obs.emit(HostRequest("flush", 0, 0))
        done = self._issue(self.ftl.flush(), at_ns)
        if not self.zero_latency:
            done = max(done, at_ns + self.controller_overhead_ns)
        return self._completed("flush", at_ns, done)

    def shutdown(self, at_ns: int | None = None) -> CompletedRequest:
        """Clean power-down: flush data, checkpoint the map."""
        flushed = self.flush(at_ns)
        if self.zero_latency and self.obs.enabled:
            self.obs.emit(HostRequest("shutdown", 0, 0))
        done = self._issue(self.ftl.checkpoint(), self.now)
        return self._completed("shutdown", flushed.submit_ns,
                               max(flushed.complete_ns, done))

    def _completed(self, kind: str, at_ns: int, done: int) -> CompletedRequest:
        """The finished drive command; a timed device emits its
        ``host_request`` here, after the FTL's events."""
        if self.obs.enabled and not self.zero_latency:
            self.obs.emit(HostRequest(kind=kind, lba=0, nsectors=0,
                                      submit_ns=at_ns,
                                      latency_ns=done - at_ns))
        return CompletedRequest(kind, 0, 0, at_ns, done)

    def _issue(self, ops: list[FlashOp], at_ns: int) -> int:
        """Account *ops* issued at *at_ns*: recorded on a zero-latency
        device, scheduled on a timed one.  Returns when the last one
        finishes (*at_ns* when none is timed)."""
        if self.zero_latency:
            self._record(ops)
            return at_ns
        return self._timeline.schedule(ops, at_ns)

    # ------------------------------------------------------------------
    # Background maintenance
    # ------------------------------------------------------------------

    def idle(self, at_ns: int | None = None, max_blocks: int = 8) -> int:
        """A host-idle window: background maintenance runs and occupies
        the dies (delaying whatever the host submits next — the
        "unpredictable background operations" effect).  Blocking form;
        see :meth:`enable_background_maintenance` for the scheduled
        form.  Returns when the maintenance is done (*at_ns* on a
        zero-latency device)."""
        at_ns = self.now if at_ns is None else max(at_ns, self.now)
        self.kernel.run_until(at_ns)
        return self._issue(self.ftl.idle_maintenance(max_blocks), at_ns)

    def enable_background_maintenance(
        self, policy: BackgroundPolicy | None = None
    ) -> Process:
        """Run idle maintenance as scheduled kernel events.

        A kernel process wakes every ``policy.check_interval_ns``; when
        the host has been quiet past ``policy.idle_threshold_ns`` and
        all flash resources are drained, it performs one maintenance
        round at that instant.  The work overlaps host idle gaps: a
        request submitted later at a time the maintenance made busy
        queues behind it.  Returns the process (``.cancel()`` stops it);
        calling again replaces the previous policy.
        """
        if self._background is not None:
            self._background.cancel()
        self._bg_policy = policy or BackgroundPolicy()
        self._background = self.kernel.spawn(self._background_loop())
        return self._background

    def disable_background_maintenance(self) -> None:
        if self._background is not None:
            self._background.cancel()
            self._background = None

    def _background_loop(self):
        policy = self._bg_policy
        while True:
            yield policy.check_interval_ns
            now = self.kernel.now
            if now - self._last_host_ns < policy.idle_threshold_ns:
                continue
            if self.kernel.horizon() > now:
                continue  # flash still working; wait for a real gap
            self._issue(self.ftl.idle_maintenance(policy.max_blocks), now)

    def quiesce(self) -> int:
        """Advance time past all outstanding flash work and cache
        releases (an idle period after preconditioning).  Scheduled
        background maintenance due in the window runs — and may extend
        it — before the horizon is final."""
        horizon = self.kernel.horizon()
        while True:
            next_at = self.kernel.next_event_at()
            if next_at is None or next_at > horizon:
                break
            self.kernel.run_until(horizon)
            horizon = max(horizon, self.kernel.horizon())
        self.kernel.run_until(horizon)
        self._cache_pool.release_due(horizon)
        return horizon
