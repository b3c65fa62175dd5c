"""End-to-end instrumentation tests: drive real devices with sinks
attached and cross-check the event stream against the FTL's own
statistics (the aggregates the events must explain)."""

import sys

import numpy as np
import pytest

from repro.obs import NULL_SINK, TALLIES, CounterSink
from repro.ssd.device import SimulatedSSD
from repro.ssd.presets import evo840_like, tiny
from repro.ssd.timed import TimedSSD
from repro.workloads.engine import run_counter, run_timed
from repro.workloads.patterns import Region
from repro.workloads.spec import JobSpec
from tests.helpers import record_requests


def churn_job(device, io_count=4000, seed=7):
    return JobSpec("churn", "randwrite", Region(0, device.num_sectors),
                   bs_sectors=1, io_count=io_count, iodepth=4, seed=seed)


class TestCounterModeInstrumentation:
    @pytest.fixture()
    def traced(self):
        device = SimulatedSSD(tiny())
        sink = CounterSink()
        run_counter(device, [churn_job(device)], sink=sink)
        return device, sink

    def test_host_requests_match_workload(self, traced):
        device, sink = traced
        # The job's 4000 writes plus run_counter's end-of-run FLUSH
        # (flush is a host command and is traced like one).
        assert sink.count("host_request") == 4000 + 1

    def test_cache_admits_match_sector_writes(self, traced):
        device, sink = traced
        assert sink.count("cache_admit") == device.ftl.stats.host_sector_writes

    def test_gc_events_match_stats(self, traced):
        device, sink = traced
        assert sink.count("gc_started") == device.ftl.stats.gc_invocations
        assert sink.count("gc_finished") == device.ftl.stats.gc_invocations
        assert sink.count("gc_victim_selected") >= sink.count("gc_started")
        assert sink.total("gc_finished") == device.ftl.stats.gc_migrated_sectors

    def test_flash_ops_match_smart_counts(self, traced):
        device, sink = traced
        smart = device.smart
        expected = (smart.host_program_pages + smart.ftl_program_pages
                    + smart.read_pages + smart.erase_count)
        assert sink.count("flash_op") == expected

    def test_detach_restores_fast_path(self, traced):
        device, sink = traced
        device.attach_sink(NULL_SINK)
        before = sink.count("flash_op")
        device.write_sectors(0, 8)
        device.flush()
        assert sink.count("flash_op") == before
        assert device.ftl.obs is NULL_SINK
        assert device.ftl.cache.obs is NULL_SINK


class TestTimedModeInstrumentation:
    def test_host_requests_carry_latency(self):
        device = TimedSSD(tiny())
        requests = record_requests(device)
        sink = CounterSink()
        run_timed(device, [churn_job(device, io_count=1500)], sink=sink)
        assert sink.count("host_request") == 1500
        # Total latency in the trace equals what the device returned.
        total_latency = sum(r.latency_ns for r in requests
                            if r.kind == "write")
        assert sink.total("host_request") == total_latency

    def test_cache_stalls_emitted_under_pressure(self):
        device = TimedSSD(tiny())
        sink = CounterSink()
        run_timed(device, [churn_job(device, io_count=1500)], sink=sink)
        assert sink.count("cache_stall") > 0
        # Stall is only ever part of a write's latency.
        assert sink.total("cache_stall") <= sink.total("host_request")

    def test_flush_is_traced(self):
        device = TimedSSD(tiny())
        sink = CounterSink()
        device.attach_sink(sink)
        device.submit("write", 0, 4, at_ns=0)
        device.flush()
        kinds = sink.counts
        assert kinds["host_request"] >= 2  # the write and the flush


class TestSubsystemEvents:
    def test_pslc_drains_emit_slc_migration(self):
        device = SimulatedSSD(evo840_like(scale=4))
        sink = CounterSink()
        device.attach_sink(sink)
        rng = np.random.default_rng(1)
        for _ in range(3000):
            device.write_sectors(int(rng.integers(device.num_sectors)), 1)
        device.flush()
        assert sink.count("slc_migration") == device.ftl.stats.pslc_drains
        assert sink.count("slc_migration") > 0

    def test_wear_leveling_emits_rebalance(self):
        config = tiny().with_changes(wear_leveling=True,
                                     wear_leveling_delta=2)
        device = SimulatedSSD(config)
        sink = CounterSink()
        device.attach_sink(sink)
        rng = np.random.default_rng(2)
        # Hot/cold split: a few LPNs take all traffic so erase counts
        # diverge, then idle maintenance must rebalance.
        hot = max(1, device.num_sectors // 8)
        for lba in range(0, device.num_sectors, 4):
            device.write_sectors(lba, min(4, device.num_sectors - lba))
        for round_ in range(40):
            for _ in range(200):
                device.write_sectors(int(rng.integers(hot)), 1)
            device.idle(max_blocks=4)
        assert sink.count("wear_rebalance") == device.ftl.stats.wear_migrations
        assert sink.count("wear_rebalance") > 0

    def test_idle_gc_tagged_as_idle_trigger(self):
        from repro.obs.events import GcStarted

        class Capture(CounterSink):
            def __init__(self):
                super().__init__()
                self.triggers = set()

            def emit(self, event):
                super().emit(event)
                if isinstance(event, GcStarted):
                    self.triggers.add(event.trigger)

        device = SimulatedSSD(tiny())
        sink = Capture()
        device.attach_sink(sink)
        rng = np.random.default_rng(3)
        for _ in range(6000):
            device.write_sectors(int(rng.integers(device.num_sectors)), 1)
        device.idle(max_blocks=8)
        assert "foreground" in sink.triggers


    def test_a_subclass_that_overrides_emit_sees_every_event(self):
        """``Capture`` above overrides ``emit`` to look at events, so it
        gets them one by one, the hot sites' included; a subclass that
        overrides ``tally`` too aggregates again."""
        class Seen(CounterSink):
            def __init__(self):
                super().__init__()
                self.names = set()

            def emit(self, event):
                super().emit(event)
                self.names.add(event.NAME)

        class Summing(Seen):
            def tally(self, name, count, total=None):
                super().tally(name, count, total)

        assert TALLIES[Seen] is None
        assert TALLIES[Summing] is Summing.tally
        sink = Seen()
        device = TimedSSD(tiny())
        device.attach_sink(sink)
        for lba in range(0, 64, 4):
            device.write_sectors(lba, 4)
        device.flush()
        device.read_sectors(0, 4)
        for name in ("resource_busy", "host_request", "flash_op",
                     "cache_admit", "cache_flush"):
            assert name in sink.names, name
            assert sink.count(name) > 0, name


# ----------------------------------------------------------------------
# What an enabled event costs
# ----------------------------------------------------------------------

def _calls_and_events(sink) -> tuple[int, dict[str, int]]:
    """Python-level calls made by a warm one-page-flushing write and a
    flash read on a ``tiny`` timed device with *sink* attached, and the
    events emitted meanwhile by name.  Counted with ``sys.setprofile``,
    so independent of the machine."""
    device = TimedSSD(tiny())
    device.attach_sink(sink)
    spp, capacity = device.ftl._spp, device.ftl.cache.capacity
    device.write_sectors(0, capacity)  # the cache full, nothing flushed
    device.write_sectors(capacity, spp)  # warm: one page programmed
    device.read_sectors(0, 1)  # warm: one flash read
    smart = device.smart
    programs, reads = smart.host_program_pages, smart.read_pages
    before = dict(getattr(sink, "counts", {}))
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    sys.setprofile(count)
    try:
        device.write_sectors(capacity + spp, spp)
        device.read_sectors(spp, 1)
    finally:
        sys.setprofile(None)
    assert smart.host_program_pages == programs + 1
    assert smart.read_pages == reads + 1
    events = {name: n - before.get(name, 0)
              for name, n in getattr(sink, "counts", {}).items()}
    return calls, events


class _PerEventCounter(CounterSink):
    """A ``CounterSink`` that defines ``emit`` (as the same function), so
    it takes every event one by one: the recording sinks' path."""

    emit = CounterSink.emit


def test_an_enabled_event_costs_its_construction_and_one_emit():
    traced, events = _calls_and_events(_PerEventCounter())
    untraced, _ = _calls_and_events(NULL_SINK)
    # The host page program and the host read emit their flash_op
    # without the _emit hop.
    assert events["flash_op"] == 2
    assert events["host_request"] == 2
    assert traced - untraced <= 2 * sum(events.values())
    # Aggregating, the same sink keeps the same counts with one tally
    # call per site: fewer calls than there are events.
    tallied, same = _calls_and_events(CounterSink())
    assert same == events
    assert tallied - untraced < sum(events.values())
