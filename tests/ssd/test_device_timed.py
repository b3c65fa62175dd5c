"""Device façade (SMART accounting) and the timed executor."""

import gc
import itertools
import sys
import tracemalloc

import numpy as np
import pytest

from repro.flash.signals import render_samples
from repro.flash.timing import profile
from repro.ssd.device import SimulatedSSD
from repro.ssd.ops import FlashOp, OpKind, OpReason
from repro.ssd.presets import evo840_like, mqsim_baseline, mx500_like, tiny
from repro.ssd.recovery import recover_ftl
from repro.ssd.timed import BackgroundPolicy, BusTap, CompletedRequest, TimedSSD
from repro.workloads.engine import run_timed
from repro.workloads.patterns import Region
from repro.workloads.spec import JobSpec
from tests.helpers import record_requests


class TestHostDeviceProtocol:
    def test_timed_sync_wrappers_advance_clock(self):
        ssd = TimedSSD(tiny())
        request = ssd.write_sectors(0, 4)
        assert isinstance(request, CompletedRequest)
        assert ssd.now == request.complete_ns
        before = ssd.now
        ssd.read_sectors(0, 1)
        ssd.trim_sectors(0, 1)
        assert ssd.now >= before

    def test_timed_sync_matches_counter_accounting(self):
        """Driving a TimedSSD through its synchronous sector commands
        yields the same SMART accounting as the counter-mode device."""
        config = tiny()
        timed, counted = TimedSSD(config), SimulatedSSD(config)
        rng = np.random.default_rng(5)
        for _ in range(800):
            lba = int(rng.integers(counted.num_sectors))
            timed.write_sectors(lba, 1)
            counted.write_sectors(lba, 1)
        timed.flush()
        counted.flush()
        assert timed.smart.host_program_pages == counted.smart.host_program_pages
        assert timed.smart.erase_count == counted.smart.erase_count

    def test_timed_shutdown_checkpoints(self):
        ssd = TimedSSD(tiny())
        ssd.write_sectors(0, 1)
        request = ssd.shutdown()
        assert request.kind == "shutdown"
        assert ssd.ftl.mapping.dirty_tp_count == 0
        assert ssd.smart.meta_program_pages >= 1


class TestBackgroundMaintenance:
    def dirty_device(self, writes=4000, seed=0):
        ssd = TimedSSD(tiny())
        rng = np.random.default_rng(seed)
        for _ in range(writes):
            ssd.submit("write", int(rng.integers(ssd.num_sectors)), 1,
                       at_ns=ssd.now)
        ssd.quiesce()
        return ssd

    def test_maintenance_runs_in_idle_gaps(self):
        ssd = self.dirty_device()
        invocations = ssd.ftl.stats.gc_invocations
        policy = BackgroundPolicy(idle_threshold_ns=1_000_000,
                                  check_interval_ns=1_000_000, max_blocks=2)
        ssd.enable_background_maintenance(policy)
        # A long host-visible idle gap: the process wakes inside it.
        ssd.submit("write", 0, 1, at_ns=ssd.now + 500_000_000)
        assert ssd.ftl.stats.gc_invocations > invocations

    def test_no_maintenance_without_idle_gap(self):
        ssd = self.dirty_device()
        policy = BackgroundPolicy(idle_threshold_ns=10_000_000_000,
                                  check_interval_ns=1_000_000)
        ssd.enable_background_maintenance(policy)
        invocations = ssd.ftl.stats.gc_invocations
        ssd.submit("write", 0, 1, at_ns=ssd.now + 500_000_000)
        assert ssd.ftl.stats.gc_invocations == invocations

    def test_disable_stops_process(self):
        ssd = self.dirty_device(writes=500)
        ssd.enable_background_maintenance(
            BackgroundPolicy(idle_threshold_ns=1_000_000,
                             check_interval_ns=1_000_000))
        ssd.disable_background_maintenance()
        assert ssd.kernel.pending_events >= 0  # cancelled, not crashed
        ssd.submit("write", 0, 1, at_ns=ssd.now + 100_000_000)

    def test_maintenance_can_delay_foreground(self):
        """A request landing while scheduled maintenance occupies the
        dies queues behind it — the §2.1 'unpredictable background
        operations' effect, now produced by overlap instead of a
        blocking idle() call."""
        quiet = self.dirty_device()
        quiet_req = quiet.submit("read", 3, 1,
                                 at_ns=quiet.now + 2_100_000)

        busy = self.dirty_device()
        busy.enable_background_maintenance(BackgroundPolicy(
            idle_threshold_ns=1_000_000, check_interval_ns=2_000_000,
            max_blocks=8))
        busy_req = busy.submit("read", 3, 1, at_ns=busy.now + 2_100_000)
        assert busy_req.latency_ns > quiet_req.latency_ns


class TestSimulatedSSD:
    def test_identify(self):
        ssd = SimulatedSSD(tiny(), model="unit-test-drive")
        info = ssd.identify()
        assert info.model == "unit-test-drive"
        assert info.capacity_bytes == ssd.num_sectors * ssd.sector_size

    def test_smart_tracks_host_sectors(self):
        ssd = SimulatedSSD(tiny())
        ssd.write_sectors(0, 4)
        ssd.read_sectors(0, 2)
        assert ssd.smart.host_sectors_written == 4
        assert ssd.smart.host_sectors_read == 2

    def test_flush_reaches_flash(self):
        ssd = SimulatedSSD(tiny())
        ssd.write_sectors(0, 1)
        assert ssd.smart.host_program_pages == 0
        ssd.flush()
        assert ssd.smart.host_program_pages >= 1

    def test_shutdown_checkpoints(self):
        ssd = SimulatedSSD(tiny())
        ssd.write_sectors(0, 1)
        ssd.shutdown()
        assert ssd.ftl.mapping.dirty_tp_count == 0
        assert ssd.smart.meta_program_pages >= 1

    def test_smart_snapshot_is_black_box_surface(self):
        ssd = SimulatedSSD(tiny())
        ssd.write_sectors(0, 8)
        ssd.flush()
        snap = ssd.smart_snapshot()
        ssd.write_sectors(8, 8)
        ssd.flush()
        delta = ssd.smart.delta(snap)
        assert delta.host_sectors_written == 8

    def test_waf_counted_under_churn(self):
        ssd = SimulatedSSD(tiny())
        rng = np.random.default_rng(0)
        for _ in range(3000):
            ssd.write_sectors(int(rng.integers(ssd.num_sectors)))
        ssd.flush()
        assert ssd.smart.waf() > 0  # GC + metadata happened
        ssd.ftl.check_invariants()


class TestTimedSSD:
    def test_cached_write_is_fast(self):
        ssd = TimedSSD(tiny())
        req = ssd.submit("write", 0, 1, at_ns=0)
        assert req.latency_ns == ssd.controller_overhead_ns

    def test_flash_read_pays_array_and_bus_time(self):
        config = tiny()
        ssd = TimedSSD(config)
        ssd.submit("write", 0, 1, at_ns=0)
        ssd.flush()
        start = ssd.now
        req = ssd.submit("read", 0, 1, at_ns=start + 10_000_000_000)
        timing = profile(config.timing_name)
        assert req.latency_ns >= timing.read_ns

    def test_unknown_kind(self):
        ssd = TimedSSD(tiny())
        with pytest.raises(ValueError):
            ssd.submit("scrub", 0, 1, at_ns=0)

    def test_time_monotone(self):
        ssd = TimedSSD(tiny())
        ssd.submit("write", 0, 1, at_ns=100)
        req = ssd.submit("write", 1, 1, at_ns=50)  # clamped forward
        assert req.submit_ns >= 100

    def test_queueing_delays_busy_die(self):
        """Two back-to-back flushes contend for dies/channels."""
        config = tiny().with_changes(cache_sectors=8)
        ssd = TimedSSD(config)
        lat = []
        for lpn in range(64):
            req = ssd.submit("write", lpn % ssd.num_sectors, 1, at_ns=ssd.now)
            lat.append(req.latency_ns)
        assert max(lat) > min(lat)  # some writes stalled on flush

    def test_gc_creates_latency_tail(self):
        config = tiny()
        ssd = TimedSSD(config)
        requests = record_requests(ssd)
        rng = np.random.default_rng(0)
        for i in range(4000):
            lba = int(rng.integers(ssd.num_sectors))
            ssd.submit("write", lba, 1, at_ns=ssd.now)
        lats = [r.latency_us for r in requests if r.kind == "write"]
        assert ssd.ftl.stats.gc_invocations > 0
        p50, p999 = np.percentile(lats, [50, 99.9])
        assert p999 > 5 * p50  # GC stalls dominate the tail

    def test_smart_consistent_with_counter_mode(self):
        """Same request stream -> identical SMART program counts."""
        config = tiny()
        timed = TimedSSD(config)
        counted = SimulatedSSD(config)
        rng = np.random.default_rng(7)
        for _ in range(1500):
            lba = int(rng.integers(counted.num_sectors))
            timed.submit("write", lba, 1, at_ns=timed.now)
            counted.write_sectors(lba, 1)
        timed.flush()
        counted.flush()
        assert timed.smart.host_program_pages == counted.smart.host_program_pages
        assert timed.smart.ftl_program_pages == counted.smart.ftl_program_pages

    def test_latencies_filter_by_kind(self):
        ssd = TimedSSD(tiny())
        requests = record_requests(ssd)
        ssd.submit("write", 0, 1, at_ns=0)
        ssd.submit("read", 0, 1, at_ns=ssd.now)
        assert len([r for r in requests if r.kind == "write"]) == 1
        assert len(requests) == 2
        assert all(r.latency_us > 0 for r in requests)


def _mixed_requests(device: TimedSSD, count: int, seed: int,
                    through_engine: bool) -> None:
    """*count* random single-sector writes and reads, half each; the
    engine's run result is dropped."""
    span = device.num_sectors
    if through_engine:
        run_timed(device, [JobSpec("mix", "randrw", Region(0, span),
                                   io_count=count, seed=seed)])
        return
    rng = np.random.default_rng(seed)
    for lba, roll in zip(rng.integers(span, size=count).tolist(),
                         rng.random(count).tolist()):
        device.submit("read" if roll < 0.5 else "write", lba, 1,
                      at_ns=device.now)


def test_device_keeps_no_per_request_state():
    # A timed device's memory must not grow with the requests it serves:
    # what a caller wants to keep of a request, it keeps from the return
    # value (run_timed keeps a run's latencies for as long as the run).
    requests = 20_000
    for make_config, through_engine in itertools.product(
            (tiny, mqsim_baseline), (False, True)):
        device = TimedSSD(make_config())
        # Warm-up: the write cache, the kernel's heaps and the bus-time
        # caches reach their working size.
        _mixed_requests(device, 5_000, seed=1, through_engine=through_engine)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            _mixed_requests(device, requests, seed=2,
                            through_engine=through_engine)
            gc.collect()
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert grown < 16 * requests, (
            f"{grown / requests:.1f} B retained per request ("
            f"{make_config.__name__}, "
            f"{'run_timed' if through_engine else 'submit'})")


class TestBusTap:
    def test_tap_sees_only_its_channel(self):
        config = tiny()
        tap = BusTap(config.geometry, profile(config.timing_name), channel=0)
        ssd = TimedSSD(config, bus_tap=tap)
        for lpn in range(min(200, ssd.num_sectors)):
            ssd.submit("write", lpn, 1, at_ns=ssd.now)
        ssd.flush(at_ns=ssd.now)
        assert tap.trace.segments  # the probed channel saw traffic
        # All segments decode-sample cleanly.
        samples = render_samples(tap.trace, sample_period_ns=100,
                                 max_samples=50_000)
        assert len(samples["t"]) > 0

    def test_busy_windows_recorded(self):
        config = tiny()
        tap = BusTap(config.geometry, profile(config.timing_name), channel=0)
        ssd = TimedSSD(config, bus_tap=tap)
        for lpn in range(min(200, ssd.num_sectors)):
            ssd.submit("write", lpn, 1, at_ns=ssd.now)
        ssd.flush(at_ns=ssd.now)
        assert tap.trace.busy  # program busy periods visible on R/B#


# ----------------------------------------------------------------------
# The host read's call budget
# ----------------------------------------------------------------------

def _chunked_read_device() -> TimedSSD:
    """An 840 EVO-like device whose map has room for one resident chunk
    and no pSLC buffer, so reads resolve through the chunked map.  One
    sector per translation page of chunks 0 and 1 is on flash and every
    TP is stored; a warm-up read of chunk 0 then loads it and fills the
    bus-time caches for both read shapes (META and host)."""
    config = evo840_like(scale=2).with_changes(pslc_blocks=0,
                                               mapping_resident_chunks=1)
    device = TimedSSD(config)
    mapping = device.ftl.mapping
    for lba in range(0, 2 * mapping.chunk_lpns, mapping.tp_lpns):
        device.write_sectors(lba, 1)
    device.shutdown()  # data to flash, every dirty TP stored
    device.read_sectors(0, 1)
    assert mapping.resident_chunk_ids() == [0]
    return device


def _read_calls(device: TimedSSD, lba: int) -> int:
    """Python-level calls made by one one-sector read submitted through
    :meth:`TimedSSD.submit`, counted with ``sys.setprofile`` and so
    independent of the machine."""
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    at_ns = device.now
    sys.setprofile(count)
    try:
        device.submit("read", lba, 1, at_ns)
    finally:
        sys.setprofile(None)
    return calls


def test_resident_chunk_read_call_count():
    device = _chunked_read_device()
    mapping = device.ftl.mapping
    loads, read_pages = mapping.stats.chunk_loads, device.smart.read_pages
    calls = _read_calls(device, mapping.tp_lpns)
    assert mapping.stats.chunk_loads == loads
    assert device.smart.read_pages == read_pages + 1
    # One call each: submit, Ftl.read, MappingTable.lookup and the
    # scheduling pass.
    assert calls <= 5


def test_chunk_load_read_call_count():
    device = _chunked_read_device()
    mapping = device.ftl.mapping
    loads, read_pages = mapping.stats.chunk_loads, device.smart.read_pages
    calls = _read_calls(device, mapping.chunk_lpns)
    assert mapping.stats.chunk_loads == loads + 1
    tps_per_chunk = mapping.chunk_lpns // mapping.tp_lpns
    assert device.smart.read_pages == read_pages + tps_per_chunk + 1
    # Chunk 1's first load builds its load record and META reads, so it
    # makes more calls than a reload of an unchanged chunk (below).  One
    # call each: submit, Ftl.read, MappingTable.lookup, the residency
    # routine with the record's MappingEvents, the META reads'
    # application with their op list and the scheduling pass.
    assert calls <= 12


def test_chunk_reload_call_count():
    device = _chunked_read_device()
    ftl, mapping = device.ftl, device.ftl.mapping
    device.read_sectors(mapping.chunk_lpns, 1)  # evicts chunk 0
    earlier = ftl.read(0, 1)  # reloads chunk 0
    device.read_sectors(mapping.chunk_lpns, 1)  # evicts it again
    loads, read_pages = mapping.stats.chunk_loads, device.smart.read_pages
    calls = _read_calls(device, 0)
    reload = ftl._ops  # what the submitted read's Ftl.read returned
    assert mapping.stats.chunk_loads == loads + 1
    tps_per_chunk = mapping.chunk_lpns // mapping.tp_lpns
    assert device.smart.read_pages == read_pages + tps_per_chunk + 1
    # No TP of chunk 0 moved, so the reload reuses the earlier load's
    # record and META reads: one call each for submit, Ftl.read,
    # MappingTable.lookup, the residency routine, the META reads'
    # application and the scheduling pass.
    assert calls <= 6
    assert len(reload) == len(earlier) == tps_per_chunk + 1
    assert all(op is before
               for op, before in zip(reload[:-1], earlier[:-1]))


def _reload_chunk(ftl, chunk: int) -> list[FlashOp]:
    """Evict *chunk* of the one-resident-chunk map in
    :func:`_chunked_read_device` by reading the other chunk, then read
    the chunk's first sector; returns that read's ops."""
    chunk_lpns = ftl.mapping.chunk_lpns
    ftl.read((1 - chunk) * chunk_lpns, 1)
    return ftl.read(chunk * chunk_lpns, 1)


def _expected_load(ftl, chunk: int) -> list[FlashOp]:
    """A load of *chunk*: one META read per TP of the chunk with a
    stored copy, at the page ``tp_stored_ppn`` holds now."""
    mapping = ftl.mapping
    per_chunk = mapping.chunk_lpns // mapping.tp_lpns
    stored = mapping.tp_stored_ppn[chunk * per_chunk:(chunk + 1) * per_chunk]
    return [FlashOp(OpKind.READ, int(ppn), OpReason.META,
                    ftl.geometry.page_size)
            for ppn in stored.tolist() if ppn >= 0]


def test_chunk_load_follows_moved_translation_pages():
    # A chunk's load record (and the FTL's META reads built from it)
    # must be rebuilt whenever one of the chunk's TPs is stored anew:
    # by a meta re-flush, by GC relocating a meta page, and by
    # recovery's rebuild of a new FTL over the same flash.
    device = _chunked_read_device()
    ftl, mapping = device.ftl, device.ftl.mapping
    assert _reload_chunk(ftl, 0)[:-1] == _expected_load(ftl, 0)

    before = mapping.stored_ppn(1)
    ftl.write(mapping.tp_lpns, 1)  # TP 1 of chunk 0, re-flushed below
    ftl.flush()
    ftl.checkpoint()
    assert mapping.stored_ppn(1) != before
    assert _reload_chunk(ftl, 0)[:-1] == _expected_load(ftl, 0)

    before = mapping.stored_ppn(2)
    ftl._collect_block(before // ftl.geometry.pages_per_block)
    assert mapping.stored_ppn(2) != before  # GC moved TP 2's meta page
    ops = _reload_chunk(ftl, 0)
    assert ops[:-1] == _expected_load(ftl, 0)
    assert ops[-1].reason is OpReason.HOST

    recovered, _ = recover_ftl(ftl.config, ftl.nand)
    assert recovered.read(0, 1)[:-1] == _expected_load(recovered, 0)
    before = recovered.mapping.stored_ppn(3)
    recovered.write(3 * mapping.tp_lpns, 1)
    recovered.flush()
    recovered.checkpoint()
    assert recovered.mapping.stored_ppn(3) != before
    assert _reload_chunk(recovered, 0)[:-1] == _expected_load(recovered, 0)
    recovered.check_invariants()


@pytest.mark.parametrize("zero_latency, bound", [(True, 15.5), (False, 16.5)])
def test_random_write_gc_call_count(zero_latency, bound):
    """Python-level calls per random write in steady-state GC on the MX500
    model (RAIN, unchunked map), counter and timed mode: half the LBA
    space filled with 8-sector writes, then 1-, 2- and 8-sector writes
    at random LBAs in that half, 20,000 of warm-up and 10,000 counted.
    Each write is submitted when the previous one completes.  Counted
    with ``sys.setprofile``, so independent of the machine."""
    device = TimedSSD(mx500_like(2), zero_latency=zero_latency)
    half = device.num_sectors // 2
    submit = device.submit
    at = 0
    for lba in range(0, half, 8):
        at = submit("write", lba, 8, at).complete_ns
    rng = np.random.default_rng(5)
    sizes = rng.choice([1, 2, 8], size=30_000).tolist()
    lbas = [int(rng.integers(0, half - size + 1)) for size in sizes]
    for lba, size in zip(lbas[:20_000], sizes[:20_000]):
        at = submit("write", lba, size, at).complete_ns
    gc_before = device.ftl.stats.gc_invocations
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    sys.setprofile(count)
    try:
        for lba, size in zip(lbas[20_000:], sizes[20_000:]):
            at = submit("write", lba, size, at).complete_ns
    finally:
        sys.setprofile(None)
    # The window runs GC, so victim migration and erases are counted.
    assert device.ftl.stats.gc_invocations - gc_before > 50
    # 14.24 in counter mode and 14.84 timed here.
    assert calls / 10_000 <= bound
