"""The event contract the hot emit sites rely on.

``TimedSSD``, ``Ftl._emit``, ``WriteCache.insert`` and the open-loop
engine build their events positionally, so a reordered or inserted field
would not raise — it would silently put a value under the wrong name in
every trace.  The literal table below is the guard: change an event's
fields and this file has to change with it.  The rest pins what sinks
may assume of any event (slotted, flat JSON record, metric rule) and
the exact bytes of a trace that passes through every hot site.
"""

import dataclasses
import io
import json

import pytest

from repro.obs import (
    EVENT_TYPES,
    CounterSink,
    HistogramSink,
    HostRequest,
    JsonlSink,
    TeeSink,
    TraceEvent,
)
from repro.ssd.presets import tiny
from repro.ssd.timed import TimedSSD
from repro.workloads.engine import run_timed
from repro.workloads.patterns import Region
from repro.workloads.spec import JobSpec
from tests.helpers import ListSink
from tests.regression.test_pins import _digest, check_pin, event_counts

#: wire name -> constructor argument order.
FIELDS = {
    "host_request": ("kind", "lba", "nsectors", "submit_ns", "latency_ns",
                     "stall_ns"),
    "queue_depth": ("job", "at_ns", "depth"),
    "cache_admit": ("lpn", "absorbed"),
    "cache_flush": ("sectors", "pending"),
    "cache_stall": ("stall_ns", "occupied", "capacity"),
    "gc_victim_selected": ("plane", "victim", "pool_size", "valid_sectors",
                           "policy"),
    "gc_started": ("victim", "valid_sectors", "trigger", "policy"),
    "gc_finished": ("victim", "migrated_sectors", "flash_ops", "erased"),
    "flash_op": ("kind", "target", "reason", "nbytes", "policy"),
    "resource_busy": ("resource", "start_ns", "busy_ns", "wait_ns"),
    "wear_rebalance": ("victim", "erase_count", "spread"),
    "slc_migration": ("block", "sectors"),
    "memtable_flush": ("entries", "sectors"),
    "sstable_written": ("level", "entries", "sectors"),
    "compaction_started": ("level", "sstables_in", "sectors_in"),
    "compaction_finished": ("level", "sstables_out", "sectors_read",
                            "sectors_written"),
    "btree_page_split": ("page", "depth"),
    "btree_page_merge": ("page", "depth"),
    "fault_injected": ("kind", "target"),
    "read_retry": ("ppn", "step", "success"),
    "rain_reconstruction": ("ppn", "stripe_reads", "relocated"),
    "block_retired": ("block", "cause", "migrated_sectors"),
    "degraded_mode": ("mode", "reason", "spare_blocks"),
}


def _sample(cls):
    """An instance built positionally from a distinct value per field,
    and those values."""
    values = []
    for i, f in enumerate(dataclasses.fields(cls), start=1):
        if f.type == "str":
            values.append(f"s{i}")
        elif f.type == "bool":
            values.append(i % 2 == 0)
        else:
            values.append(i)
    return cls(*values), values


def test_table_names_every_event_class_once():
    assert sorted(FIELDS) == sorted(EVENT_TYPES)
    # ``slots=True`` rebuilds each class, and the discarded original
    # lingers in ``__subclasses__()`` until collected: compare names.
    names = {cls.__name__ for cls in TraceEvent.__subclasses__()}
    assert names == {cls.__name__ for cls in EVENT_TYPES.values()}
    assert len(names) == len(EVENT_TYPES)


@pytest.mark.parametrize("name", sorted(FIELDS))
class TestEveryEvent:
    def test_positional_order_is_the_table(self, name):
        cls = EVENT_TYPES[name]
        assert cls.NAME == name
        assert tuple(f.name for f in dataclasses.fields(cls)) == FIELDS[name]
        event, values = _sample(cls)
        assert [getattr(event, f) for f in FIELDS[name]] == values

    def test_slotted(self, name):
        event, _ = _sample(EVENT_TYPES[name])
        assert not hasattr(event, "__dict__")
        with pytest.raises(AttributeError):
            event.not_a_field = 1

    def test_compared_by_value(self, name):
        cls = EVENT_TYPES[name]
        event, values = _sample(cls)
        assert event == cls(*values)
        assert event != cls(*values[:-1], None)

    def test_record_is_flat_ordered_json(self, name):
        event, values = _sample(EVENT_TYPES[name])
        record = event.to_record()
        assert list(record) == ["event", *FIELDS[name]]
        assert list(record.values()) == [name, *values]
        assert json.loads(json.dumps(record)) == record

    def test_metric_value(self, name):
        cls = EVENT_TYPES[name]
        event, _ = _sample(cls)
        if cls.METRIC is None:
            assert event.metric_value() is None
        else:
            assert cls.METRIC in FIELDS[name]
            field_types = {f.name: f.type for f in dataclasses.fields(cls)}
            assert field_types[cls.METRIC] == "int"
            value = event.metric_value()
            assert type(value) is float
            assert value == float(getattr(event, cls.METRIC))

    def test_summary_sinks_apply_the_metric_rule_inline(self, name):
        """The sinks read the headline value themselves; they must keep
        exactly the values ``metric_value()`` keeps."""
        cls = EVENT_TYPES[name]
        measured, _ = _sample(cls)
        events = [measured]
        if cls.METRIC is not None:
            sentinel, _ = _sample(cls)
            setattr(sentinel, cls.METRIC, -1)
            assert sentinel.metric_value() is None
            events.append(sentinel)
        counter, histogram = CounterSink(), HistogramSink()
        for event in events:
            counter.emit(event)
            histogram.emit(event)
        assert counter.count(name) == histogram.counts[name] == len(events)
        value = measured.metric_value()
        if value is None:
            assert name not in counter.metric_totals
            assert name not in histogram.samples
        else:
            assert counter.total(name) == value
            assert histogram.samples[name] == [value]
            assert type(histogram.samples[name][0]) is float
        # The same events as one tally, summed as the hot sites sum them:
        # the non-negative headline values, or None when there are none.
        kept = [getattr(e, cls.METRIC) for e in events
                if cls.METRIC is not None and getattr(e, cls.METRIC) >= 0]
        tallied = CounterSink()
        tallied.tally(name, len(events), sum(kept) if kept else None)
        assert dict(tallied.counts) == dict(counter.counts)
        assert dict(tallied.metric_totals) == dict(counter.metric_totals)
        # A sentinel alone, or an event without a METRIC, adds no total
        # and creates no key.
        alone = CounterSink()
        alone.tally(name, 1)
        assert alone.count(name) == 1
        assert name not in alone.metric_totals


def test_host_request_sentinel_latency_is_not_a_metric():
    assert HostRequest("write", 0, 1).latency_ns == -1
    assert HostRequest("write", 0, 1).metric_value() is None
    assert HostRequest("write", 0, 1, 5, 0, 0).metric_value() == 0.0


# ----------------------------------------------------------------------
# One traced run through every hot emit site
# ----------------------------------------------------------------------

#: (name, rw, bs, arrival, rate IOPS, requests): perfbench's
#: ``mixed_open4`` tenants, sized down to the ``tiny`` preset.
TENANTS = (
    ("oltp", "randrw", 2, "poisson", 1_600.0, 320),
    ("log", "write", 8, "fixed", 400.0, 80),
    ("scan", "randread", 1, "bursty", 1_600.0, 320),
    ("ingest", "randwrite", 1, "diurnal", 1_200.0, 240),
)


def _drive(sink):
    device = TimedSSD(tiny())
    span = device.num_sectors
    # Untraced fill, so the traced part runs against foreground GC.
    run_timed(device, [JobSpec("fill", "write", Region(0, span), bs_sectors=8,
                               io_count=span // 8, seed=5)])
    device.attach_sink(sink)
    quarter = span // 4
    run_timed(device, [
        JobSpec(name, rw, Region(k * quarter, quarter), bs_sectors=bs,
                io_count=count, read_fraction=0.7, seed=90 + k,
                submission="open", rate_iops=rate, arrival=arrival)
        for k, (name, rw, bs, arrival, rate, count) in enumerate(TENANTS)
    ])
    run_timed(device, [JobSpec("solo", "randwrite", Region(0, span),
                               io_count=200, seed=7, submission="open",
                               rate_iops=2_000.0)])
    for lba in range(0, span // 2, 16):
        device.trim_sectors(lba, 4)
    device.flush()
    sink.close()


@pytest.fixture(scope="module")
def traced():
    text = io.StringIO()
    counter, histogram, listed = CounterSink(), HistogramSink(), ListSink()
    _drive(TeeSink(JsonlSink(text), counter, histogram, listed))
    return text.getvalue(), counter, histogram, listed.events


def test_run_reaches_every_hot_site(traced):
    _, counter, _, events = traced
    for name in ("resource_busy", "host_request", "flash_op", "cache_admit",
                 "queue_depth", "gc_started"):
        assert counter.count(name) > 0, name
    kinds = {e.kind for e in events if isinstance(e, HostRequest)}
    assert kinds == {"read", "write", "trim", "flush"}
    jobs = {e.job for e in events if e.NAME == "queue_depth"}
    assert jobs == {name for name, *_ in TENANTS} | {"solo"}


def test_trace_bytes_are_pinned(traced):
    text, _, _, events = traced
    assert text.count("\n") == len(events)
    check_pin("event_contract_trace", _digest(text.encode()), {
        "lines": len(events), **event_counts(e.NAME for e in events)})


def test_only_the_host_request_sentinel_is_negative(traced):
    """Every headline value of the run is an int, and the only negative
    one is a counter-mode ``HostRequest``'s ``-1``: the rule that skips
    negative values drops nothing that is a measurement."""
    _, _, _, events = traced
    for event in events:
        if event.METRIC is None:
            continue
        value = getattr(event, event.METRIC)
        assert type(value) is int, event
        if value < 0:
            assert isinstance(event, HostRequest), event
            assert value == -1, event


def test_a_tallying_counter_keeps_the_same_summary(traced):
    """Attached directly, a ``CounterSink`` takes the hot sites' tallies;
    behind the tee it took every event.  Both keep the same numbers."""
    _, behind_tee, _, _ = traced
    direct = CounterSink()
    _drive(direct)
    assert dict(direct.counts) == dict(behind_tee.counts)
    assert dict(direct.metric_totals) == dict(behind_tee.metric_totals)


#: the names the hot sites tally for an aggregating sink.
TALLIED = ("resource_busy", "host_request", "flash_op", "cache_admit",
           "cache_flush", "cache_stall", "queue_depth")


def test_a_counter_sink_gets_only_rare_events_through_emit():
    """Clock-free bound on per-event delivery to a ``CounterSink``: over
    the run above (18.8 events per request) its ``emit`` is called 0.67
    times per request, all of them GC events and the closing flush's
    ``host_request``.  Any hot site that went back to building one event
    per occurrence would add at least 0.8 per request."""
    sink = CounterSink()
    emitted = []
    counted = sink.emit

    def emit(event):  # an instance attribute: the class still aggregates
        emitted.append(event.NAME)
        counted(event)

    sink.emit = emit
    _drive(sink)
    requests = sink.count("host_request")
    assert len(emitted) / requests <= 1.0
    # Only the drive commands (the one flush) emit their host_request.
    assert [n for n in emitted if n in TALLIED] == ["host_request"]


def test_summary_sinks_agree_with_the_event_list(traced):
    _, counter, histogram, events = traced
    counts, totals, samples = {}, {}, {}
    for event in events:
        counts[event.NAME] = counts.get(event.NAME, 0) + 1
        value = event.metric_value()
        if value is not None:
            totals[event.NAME] = totals.get(event.NAME, 0.0) + value
            samples.setdefault(event.NAME, []).append(value)
    assert dict(counter.counts) == counts == dict(histogram.counts)
    assert dict(counter.metric_totals) == totals
    assert dict(histogram.samples) == samples
