"""Typed trace events emitted by the simulator's hot paths.

The paper's complaint is that SSDs hide the internal events — GC victim
picks, cache flushes, pSLC migrations — that explain their performance.
The simulator used to hide them too: everything surfaced as end-of-run
aggregates.  These events are the missing per-occurrence record.  Each
is a slotted dataclass (no ``__dict__``, compared by value) with

* ``NAME`` — the stable wire name used in JSONL traces and summaries,
* ``METRIC`` — the headline int field (if any) that
  :class:`~repro.obs.sinks.CounterSink` sums and
  :class:`~repro.obs.sinks.HistogramSink` builds distributions over.
  A negative headline value is a not-yet-measured sentinel (a
  counter-mode ``HostRequest``'s ``-1`` latency), not a measurement:
  :meth:`TraceEvent.metric_value` states the rule, and the sinks and
  the tallying sites apply it inline.

An event is immutable by convention: emitters build it, sinks read it,
nobody assigns to it afterwards (the classes are not ``frozen`` because
a frozen ``__init__`` pays one ``object.__setattr__`` per field, which
made an enabled sink cost more than the simulation it explains).  The
sites that emit nearly every event — ``TimedSSD``'s scheduling pass and
``submit``, ``Ftl._emit`` with the host read and page program that
build ``FlashOpIssued`` themselves, ``WriteCache.insert``, the open-loop
``QueueDepth`` sites — pass fields positionally, so **field order is
part of each event's contract**; ``tests/obs/test_event_contract.py``
pins it per class.  New fields go last, with a default.

An event reaches a sink one of two ways (see :mod:`repro.obs.sinks`).
A recording sink gets every event built and passed to ``emit``: its
construction plus one call.  An aggregating sink (one with ``tally``,
such as :class:`~repro.obs.sinks.CounterSink`) gets no object at all
from those hot sites: each adds its occurrences' count and headline
values in locals and hands the sink one ``tally(name, count, total)``
per call, applying :meth:`TraceEvent.metric_value`'s sentinel rule
itself.  Rare events are built and emitted either way.

Events deliberately carry plain ints/strings (no enums, no numpy
scalars) so a JSONL trace round-trips through ``json`` without custom
encoders and is byte-identical for identical seeds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar


@dataclass(slots=True)
class TraceEvent:
    """Base class: every event serializes to a flat dict."""

    NAME: ClassVar[str] = "event"
    #: field holding the event's headline magnitude, or None.
    METRIC: ClassVar[str | None] = None

    def to_record(self) -> dict:
        record = {"event": self.NAME}
        # Every event derives from TraceEvent directly, so its own
        # ``__slots__`` is its full field list, in declaration order.
        for name in self.__slots__:
            record[name] = getattr(self, name)
        return record

    def metric_value(self) -> float | None:
        """The headline value as a float, or None when the class has no
        ``METRIC`` or the value is negative (a sentinel).  The summary
        sinks apply this rule inline instead of calling it."""
        metric = self.METRIC
        if metric is None:
            return None
        value = getattr(self, metric)
        return None if value < 0 else float(value)


# ----------------------------------------------------------------------
# Host / workload layer
# ----------------------------------------------------------------------


@dataclass(slots=True)
class HostRequest(TraceEvent):
    """One host command as the device saw it.

    A timed :class:`~repro.ssd.timed.TimedSSD` emits it once the request
    is scheduled, filling ``submit_ns``, ``latency_ns`` and, for writes,
    ``stall_ns`` (the portion of the latency spent waiting for cache
    space — the GC-induced tail).  A zero-latency device (counter mode)
    emits it before the FTL runs the command, ahead of the events the
    command causes, with the timing fields at their ``-1`` defaults.
    """

    NAME: ClassVar[str] = "host_request"
    METRIC: ClassVar[str] = "latency_ns"

    kind: str
    lba: int
    nsectors: int
    submit_ns: int = -1
    latency_ns: int = -1
    stall_ns: int = 0


@dataclass(slots=True)
class QueueDepth(TraceEvent):
    """Open-loop submission backlog after one arrival.

    Emitted by the workload engine's open-loop mode: ``depth`` counts
    the job's requests in flight (arrived at the device, not yet
    complete) including the one that just arrived.  Closed-loop jobs
    hold depth constant at ``iodepth`` by construction, so only
    arrival-driven submission emits this.
    """

    NAME: ClassVar[str] = "queue_depth"
    METRIC: ClassVar[str] = "depth"

    job: str
    at_ns: int
    depth: int


# ----------------------------------------------------------------------
# Write cache
# ----------------------------------------------------------------------


@dataclass(slots=True)
class CacheAdmit(TraceEvent):
    """A host sector entered the RAM write cache.

    ``absorbed`` marks a write hit: an older pending copy of the same
    LPN was superseded, so one flash write was saved.
    """

    NAME: ClassVar[str] = "cache_admit"

    lpn: int
    absorbed: bool


@dataclass(slots=True)
class CacheFlush(TraceEvent):
    """The cache handed a batch of sectors to the FTL for programming."""

    NAME: ClassVar[str] = "cache_flush"
    METRIC: ClassVar[str] = "sectors"

    sectors: int
    pending: int  #: sectors still buffered after the batch left


@dataclass(slots=True)
class CacheStall(TraceEvent):
    """A timed write blocked on cache admission.

    Emitted only when the stall is non-zero: the cache was full and the
    request had to wait ``stall_ns`` for flush programs to complete on
    flash and release space.  This is the paper's §2.1 tail mechanism
    made visible.
    """

    NAME: ClassVar[str] = "cache_stall"
    METRIC: ClassVar[str] = "stall_ns"

    stall_ns: int
    occupied: int
    capacity: int


# ----------------------------------------------------------------------
# Garbage collection
# ----------------------------------------------------------------------


@dataclass(slots=True)
class GcVictimSelected(TraceEvent):
    """The victim selector picked a block (before migration starts)."""

    NAME: ClassVar[str] = "gc_victim_selected"
    METRIC: ClassVar[str] = "valid_sectors"

    plane: int
    victim: int
    pool_size: int
    valid_sectors: int
    policy: str


@dataclass(slots=True)
class GcStarted(TraceEvent):
    """Block collection began. ``trigger`` is ``foreground`` (the host
    write path hit the low watermark) or ``idle`` (background GC)."""

    NAME: ClassVar[str] = "gc_started"
    METRIC: ClassVar[str] = "valid_sectors"

    victim: int
    valid_sectors: int
    trigger: str
    #: victim-selection policy driving this collection ("" if unknown).
    policy: str = ""


@dataclass(slots=True)
class GcFinished(TraceEvent):
    """Block collection completed (migration + erase or retirement)."""

    NAME: ClassVar[str] = "gc_finished"
    METRIC: ClassVar[str] = "migrated_sectors"

    victim: int
    migrated_sectors: int
    flash_ops: int
    erased: bool


# ----------------------------------------------------------------------
# Flash / maintenance layer
# ----------------------------------------------------------------------


@dataclass(slots=True)
class FlashOpIssued(TraceEvent):
    """One physical flash operation left the FTL."""

    NAME: ClassVar[str] = "flash_op"
    METRIC: ClassVar[str] = "nbytes"

    kind: str  #: read / program / erase
    target: int  #: ppn (reads/programs) or block (erases)
    reason: str  #: host / gc / meta / parity / pslc / wear / refresh
    nbytes: int
    #: policy on whose behalf the op was issued (victim policy during
    #: GC, wear policy during leveling, "" on the plain host path).
    policy: str = ""


@dataclass(slots=True)
class ResourceBusy(TraceEvent):
    """One busy interval on a named device resource (channel or die).

    Emitted for every hold while a sink is attached — by
    :meth:`repro.sim.kernel.Resource.hold`, and by the timed device's
    scheduling pass, which advances its resources' timelines in place:
    ``busy_ns`` is the occupied interval's length and
    ``wait_ns`` how long the operation queued behind earlier holds
    before starting — summing per resource gives the utilization and
    queueing record behind the timed figures.
    """

    NAME: ClassVar[str] = "resource_busy"
    METRIC: ClassVar[str] = "busy_ns"

    resource: str
    start_ns: int
    busy_ns: int
    wait_ns: int


@dataclass(slots=True)
class WearRebalance(TraceEvent):
    """Static wear leveling chose a cold block to rotate back into
    circulation."""

    NAME: ClassVar[str] = "wear_rebalance"
    METRIC: ClassVar[str] = "spread"

    victim: int
    erase_count: int
    spread: int


@dataclass(slots=True)
class SlcMigration(TraceEvent):
    """A pSLC buffer block was drained to the main (MLC/TLC) area."""

    NAME: ClassVar[str] = "slc_migration"
    METRIC: ClassVar[str] = "sectors"

    block: int
    sectors: int


# ----------------------------------------------------------------------
# Storage engines (repro.engines)
# ----------------------------------------------------------------------


@dataclass(slots=True)
class MemtableFlush(TraceEvent):
    """An LSM memtable reached its threshold and became an L0 SSTable."""

    NAME: ClassVar[str] = "memtable_flush"
    METRIC: ClassVar[str] = "sectors"

    entries: int
    sectors: int


@dataclass(slots=True)
class SstableWritten(TraceEvent):
    """One SSTable materialized on flash (memtable flush or compaction
    output)."""

    NAME: ClassVar[str] = "sstable_written"
    METRIC: ClassVar[str] = "sectors"

    level: int
    entries: int
    sectors: int


@dataclass(slots=True)
class CompactionStarted(TraceEvent):
    """Leveled compaction began merging ``sstables_in`` tables from
    ``level`` into ``level + 1``."""

    NAME: ClassVar[str] = "compaction_started"
    METRIC: ClassVar[str] = "sectors_in"

    level: int
    sstables_in: int
    sectors_in: int


@dataclass(slots=True)
class CompactionFinished(TraceEvent):
    """A compaction completed: inputs were read and dropped, merged
    outputs written one level down.  ``sectors_written`` is the
    engine-level write amplification this compaction added."""

    NAME: ClassVar[str] = "compaction_finished"
    METRIC: ClassVar[str] = "sectors_written"

    level: int
    sstables_out: int
    sectors_read: int
    sectors_written: int


@dataclass(slots=True)
class BtreePageSplit(TraceEvent):
    """A B-tree page overflowed and split in two."""

    NAME: ClassVar[str] = "btree_page_split"
    METRIC: ClassVar[str] = "depth"

    page: int
    depth: int


@dataclass(slots=True)
class BtreePageMerge(TraceEvent):
    """An underfull B-tree page merged into its sibling."""

    NAME: ClassVar[str] = "btree_page_merge"
    METRIC: ClassVar[str] = "depth"

    page: int
    depth: int


# ----------------------------------------------------------------------
# Faults and graceful degradation (repro.faults)
# ----------------------------------------------------------------------


@dataclass(slots=True)
class FaultInjected(TraceEvent):
    """A planned fault fired at the NAND boundary.

    ``kind`` is one of the :data:`repro.faults.plan.FAULT_KINDS`;
    ``target`` is a PPN (program/read faults), block (erase faults) or
    die index (die_offline).
    """

    NAME: ClassVar[str] = "fault_injected"

    kind: str
    target: int


@dataclass(slots=True)
class ReadRetry(TraceEvent):
    """One step of the read-retry ladder on an uncorrectable read.

    Real firmware re-reads with shifted sense voltages; each step costs
    an extra flash read and recovers a slice of the raw error budget.
    """

    NAME: ClassVar[str] = "read_retry"
    METRIC: ClassVar[str] = "step"

    ppn: int
    step: int
    success: bool


@dataclass(slots=True)
class RainReconstruction(TraceEvent):
    """An uncorrectable page was rebuilt from its RAIN stripe peers.

    ``stripe_reads`` counts the peer pages read to reconstruct;
    ``relocated`` is True when the rebuilt sector was re-programmed to a
    fresh page (so the failing copy stops being load-bearing).
    """

    NAME: ClassVar[str] = "rain_reconstruction"
    METRIC: ClassVar[str] = "stripe_reads"

    ppn: int
    stripe_reads: int
    relocated: bool


@dataclass(slots=True)
class BlockRetired(TraceEvent):
    """A grown bad block left circulation permanently.

    ``cause`` is ``program_fail`` or ``erase_fail``; ``migrated_sectors``
    counts the valid sectors moved off the failing block first.
    """

    NAME: ClassVar[str] = "block_retired"
    METRIC: ClassVar[str] = "migrated_sectors"

    block: int
    cause: str
    migrated_sectors: int


@dataclass(slots=True)
class DegradedModeChanged(TraceEvent):
    """The FTL changed degradation state (e.g. entered read-only mode
    because the spare-block pool was exhausted by grown bad blocks)."""

    NAME: ClassVar[str] = "degraded_mode"

    mode: str
    reason: str
    spare_blocks: int


#: Every event type, keyed by wire name (useful for decoding traces).
EVENT_TYPES: dict[str, type[TraceEvent]] = {
    cls.NAME: cls
    for cls in (
        HostRequest, QueueDepth, CacheAdmit, CacheFlush, CacheStall,
        GcVictimSelected, GcStarted, GcFinished,
        FlashOpIssued, ResourceBusy, WearRebalance, SlcMigration,
        MemtableFlush, SstableWritten, CompactionStarted,
        CompactionFinished, BtreePageSplit, BtreePageMerge,
        FaultInjected, ReadRetry, RainReconstruction, BlockRetired,
        DegradedModeChanged,
    )
}
