"""Observability: typed trace events and pluggable sinks.

The simulator's answer to the paper's transparency complaint, turned on
itself: the FTL, GC, write cache, pSLC buffer, wear leveler, timed
scheduler, and workload engine all emit typed events describing the
internal actions a real SSD hides.  By default every emitter points at
the shared :data:`NULL_SINK` and the instrumentation costs one attribute
check per event; attach a real sink (per device, via
``attach_sink``) to count, summarize, or stream the events as JSONL.

Quick use::

    from repro.obs import CounterSink
    device = SimulatedSSD(tiny())
    sink = CounterSink()
    device.attach_sink(sink)
    ...  # run a workload
    print(sink.summarize())
"""

from repro.obs.events import (
    EVENT_TYPES,
    BtreePageMerge,
    BtreePageSplit,
    CacheAdmit,
    CacheFlush,
    CacheStall,
    CompactionFinished,
    CompactionStarted,
    FlashOpIssued,
    GcFinished,
    GcStarted,
    GcVictimSelected,
    HostRequest,
    MemtableFlush,
    QueueDepth,
    ResourceBusy,
    SlcMigration,
    SstableWritten,
    TraceEvent,
    WearRebalance,
)
from repro.obs.sinks import (
    NULL_SINK,
    TALLIES,
    CounterSink,
    HistogramSink,
    JsonlSink,
    NullSink,
    TeeSink,
    TraceSink,
    load_trace,
    read_jsonl,
)
from repro.obs.summary import (
    TAIL_BUCKETS,
    BucketAttribution,
    attribute_latencies,
    attribute_tail,
    stall_reconciliation,
)

__all__ = [
    "TraceEvent", "EVENT_TYPES",
    "HostRequest", "QueueDepth", "CacheAdmit", "CacheFlush", "CacheStall",
    "GcVictimSelected", "GcStarted", "GcFinished",
    "FlashOpIssued", "ResourceBusy", "WearRebalance", "SlcMigration",
    "MemtableFlush", "SstableWritten",
    "CompactionStarted", "CompactionFinished",
    "BtreePageSplit", "BtreePageMerge",
    "TraceSink", "NullSink", "NULL_SINK",
    "CounterSink", "HistogramSink", "JsonlSink", "TeeSink",
    "read_jsonl", "load_trace", "TALLIES",
    "BucketAttribution", "TAIL_BUCKETS",
    "attribute_latencies", "attribute_tail", "stall_reconciliation",
]
