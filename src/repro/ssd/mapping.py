"""Logical-to-physical mapping with translation-page metadata costs.

A page-mapped FTL keeps one entry per logical sector.  The entries are
grouped into *translation pages* (TPs): the unit in which mapping metadata
is persisted to flash.  RAM holds a bounded set of dirty TPs; metadata
reaches flash two ways:

* **eviction** — dirtying a TP beyond the RAM budget forces the
  least-recently-dirtied TP out (one metadata program);
* **checkpoint** — every ``sync_interval`` host sector updates, all dirty
  TPs are flushed (a periodic consistency point).

This is the mechanism behind the paper's Fig 4b: each workload alone has a
dirty-TP working set that fits the budget pays only checkpoint flushes;
workloads whose *union* of working sets overflows the budget move the FTL
into the eviction-dominated regime.  Together with GC debt (which likewise
accumulates with total volume, not per-request), this is why the paper's
IOPS-weighted additive WAF prediction fails for concurrent runs.

Orthogonally, the map may be split into demand-loaded *chunks* (the
840 EVO's 117.5 MB chunks, §3.2): a chunk must be resident before any of
its entries can be used, and loading one costs flash reads of its stored
TPs.  Those reads change only when one of the chunk's TPs is stored
again, so each chunk keeps one shared load record, built at its first
load and dropped by :meth:`MappingTable.note_flushed`.

The table reports metadata work as :class:`MappingEvents`; the FTL turns
those into actual flash operations (it owns page allocation).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

#: l2p value for an unmapped sector.
UNMAPPED = -1


@dataclass
class MappingEvents:
    """Metadata work triggered by a lookup/update.

    ``flush_tps`` — TP ids that must be written to flash now.
    ``load_tp_ppns`` — flash page numbers to read for a chunk load.
    ``loaded_chunks`` — chunk ids that became resident (for stats/RE).
    """

    flush_tps: list[int] = field(default_factory=list)
    load_tp_ppns: list[int] = field(default_factory=list)
    loaded_chunks: list[int] = field(default_factory=list)

    def merge(self, other: "MappingEvents") -> None:
        self.flush_tps.extend(other.flush_tps)
        self.load_tp_ppns.extend(other.load_tp_ppns)
        self.loaded_chunks.extend(other.loaded_chunks)

    @property
    def empty(self) -> bool:
        return not (self.flush_tps or self.load_tp_ppns or self.loaded_chunks)


#: Shared no-metadata result returned by the lookup/update fast paths
#: (every resident-chunk lookup among them).  Callers only read returned
#: events (or merge them into their own accumulator), so one instance
#: serves them all without a per-call allocation; its fields are empty
#: tuples, so merging into it or appending to it raises instead of
#: leaking ids into every later result.
EMPTY_EVENTS = MappingEvents((), (), ())


@dataclass
class MappingStats:
    """Counters for analysis and the RE experiments."""

    updates: int = 0
    lookups: int = 0
    tp_flushes: int = 0
    checkpoint_flushes: int = 0
    eviction_flushes: int = 0
    chunk_loads: int = 0


class MappingTable:
    """Sector-granularity L2P map with TP dirty tracking and chunked load."""

    def __init__(
        self,
        num_lpns: int,
        tp_lpns: int,
        dirty_tp_limit: int,
        sync_interval: int,
        chunk_lpns: int = 0,
        resident_chunks: int = 8,
    ) -> None:
        if num_lpns <= 0:
            raise ValueError("num_lpns must be positive")
        if chunk_lpns and chunk_lpns % tp_lpns != 0:
            raise ValueError("chunk_lpns must be a multiple of tp_lpns")
        if dirty_tp_limit < 1:
            raise ValueError("dirty_tp_limit must be >= 1")
        if resident_chunks < 1:
            raise ValueError("resident_chunks must be >= 1")
        self.num_lpns = num_lpns
        self.tp_lpns = tp_lpns
        self.dirty_tp_limit = dirty_tp_limit
        self.sync_interval = sync_interval
        self.chunk_lpns = chunk_lpns
        self.resident_chunks = resident_chunks
        self._tps_per_chunk = chunk_lpns // tp_lpns

        #: edited in place only — scalar views alias this buffer.
        self.l2p = np.full(num_lpns, UNMAPPED, dtype=np.int64)
        #: the same buffer read and written one entry at a time: a
        #: memoryview item is a plain int, several times cheaper than a
        #: numpy scalar.  Array-wide readers keep using ``l2p``.
        self._l2p_view = memoryview(self.l2p)
        self.num_tps = -(-num_lpns // tp_lpns)
        #: flash location of each TP's last flushed copy (-1 = never stored).
        #: Edited in place only — a scalar view aliases this buffer.
        self.tp_stored_ppn = np.full(self.num_tps, -1, dtype=np.int64)
        self._tp_stored_view = memoryview(self.tp_stored_ppn)
        self._dirty: OrderedDict[int, None] = OrderedDict()
        self._resident: OrderedDict[int, None] = OrderedDict()
        #: chunk -> its shared load record (see :meth:`_ensure_resident`);
        #: empty on an unchunked map.
        self._load_records: dict[int, MappingEvents] = {}
        self._since_sync = 0
        self.stats = MappingStats()

    # ------------------------------------------------------------------
    # Address helpers
    # ------------------------------------------------------------------

    def tp_of(self, lpn: int) -> int:
        return lpn // self.tp_lpns

    def _tps_in_chunk(self, chunk: int) -> range:
        per_chunk = self._tps_per_chunk
        start = chunk * per_chunk
        return range(start, min(start + per_chunk, self.num_tps))

    @property
    def num_chunks(self) -> int:
        if not self.chunk_lpns:
            return 1
        return -(-self.num_lpns // self.chunk_lpns)

    # ------------------------------------------------------------------
    # Core operations
    # ------------------------------------------------------------------

    def lookup(self, lpn: int) -> tuple[int, MappingEvents]:
        """Translate one LPN; may require a chunk load.

        Returns the shared :data:`EMPTY_EVENTS` whenever there is no
        metadata work — always on an unchunked map, and on a chunked one
        whenever *lpn*'s chunk is resident (it becomes the most recently
        used).  Only a miss hands its chunk to :meth:`_ensure_resident`
        and returns what that returns: the chunk's shared load record,
        or fresh events when the load flushes dirty TPs.
        """
        if not 0 <= lpn < self.num_lpns:
            self._check_lpn(lpn)
        self.stats.lookups += 1
        chunk_lpns = self.chunk_lpns
        if chunk_lpns:
            resident = self._resident
            chunk = lpn // chunk_lpns
            if chunk not in resident:
                return self._l2p_view[lpn], self._ensure_resident(chunk)
            resident.move_to_end(chunk)
        return self._l2p_view[lpn], EMPTY_EVENTS

    def update(self, lpn: int, psa: int) -> tuple[int, MappingEvents]:
        """Map *lpn* to physical sector *psa*; returns (old_psa, events)."""
        self._check_lpn(lpn)
        self.stats.updates += 1
        # Fast path: unchunked map, TP already dirty, no checkpoint due —
        # exactly the case where the general path below would allocate two
        # MappingEvents just to report "nothing happened".  This is the
        # steady state of every sequential/looping write workload.  The
        # FTL's host page program runs this lane inline
        # (Ftl._program_data_page): keep the two in step.
        if not self.chunk_lpns and self._since_sync + 1 < self.sync_interval:
            tp_id = lpn // self.tp_lpns
            dirty = self._dirty
            if tp_id in dirty:
                dirty.move_to_end(tp_id)
                l2p = self._l2p_view
                old = l2p[lpn]
                l2p[lpn] = psa
                self._since_sync += 1
                return old, EMPTY_EVENTS
        chunk_lpns = self.chunk_lpns
        if not chunk_lpns:
            events = MappingEvents()
        else:
            chunk = lpn // chunk_lpns
            resident = self._resident
            if chunk in resident:
                resident.move_to_end(chunk)
                events = MappingEvents()
            else:
                # Fresh events: the merges below must not reach the
                # chunk's shared load record.
                events = self._ensure_resident(chunk, fresh=True)
        old = self._l2p_view[lpn]
        self._l2p_view[lpn] = psa
        events.merge(self._mark_dirty(self.tp_of(lpn)))
        self._since_sync += 1
        if self._since_sync >= self.sync_interval:
            events.merge(self.checkpoint())
        return old, events

    def trim(self, lpn: int) -> tuple[int, MappingEvents]:
        """Unmap one LPN (TRIM); dirties its TP like an update."""
        return self.update(lpn, UNMAPPED)

    def silent_update(self, lpn: int, psa: int) -> int:
        """Update without metadata cost (recovery's rebuild; GC migrations
        take :meth:`silent_update_run`: real FTLs piggyback those map
        updates on the migration destination block's OOB and the eventual
        TP write)."""
        self._check_lpn(lpn)
        old = self._l2p_view[lpn]
        self._l2p_view[lpn] = psa
        return old

    def silent_update_run(self, lpns: np.ndarray, psas: np.ndarray) -> np.ndarray:
        """:meth:`silent_update` for a run of sectors in array operations:
        ``lpns[i]`` to ``psas[i]`` (``int64`` arrays; the PSAs distinct,
        as fresh sectors are).  Returns the old PSAs.

        Equal in every effect to calling ``silent_update`` per sector in
        order: a repeated LPN's later slot gets the earlier slot's PSA as
        its old PSA and keeps the last PSA, and an out-of-range LPN raises
        :class:`IndexError` once the sectors ahead of it are applied."""
        if len(lpns) and (lpns.min() < 0 or lpns.max() >= self.num_lpns):
            bad = int(((lpns < 0) | (lpns >= self.num_lpns)).argmax())
            self.silent_update_run(lpns[:bad], psas[:bad])
            self._check_lpn(int(lpns[bad]))
        l2p = self.l2p
        olds = l2p[lpns]
        l2p[lpns] = psas
        if (l2p[lpns] != psas).any():
            # A repeated LPN (only one of its slots reads back its own
            # PSA): undo, then apply the run one sector at a time.
            l2p[lpns] = olds
            view = self._l2p_view
            for i, (lpn, psa) in enumerate(zip(lpns.tolist(), psas.tolist())):
                olds[i] = view[lpn]
                view[lpn] = psa
        return olds

    def checkpoint(self) -> MappingEvents:
        """Flush every dirty TP (periodic consistency point)."""
        events = MappingEvents(flush_tps=list(self._dirty.keys()))
        self.stats.tp_flushes += len(self._dirty)
        self.stats.checkpoint_flushes += len(self._dirty)
        self._dirty.clear()
        self._since_sync = 0
        return events

    def note_flushed(self, tp_id: int, ppn: int) -> None:
        """Record where the FTL just stored a TP, and drop the load
        record of its chunk (the next load of that chunk builds a new
        one).

        This is the one writer of :attr:`tp_stored_ppn`: the FTL's meta
        program, GC's meta relocation and recovery all come through
        here.  Nothing else may write the array, or a chunk's load
        record would go on reading a TP's old location."""
        self._tp_stored_view[tp_id] = ppn
        records = self._load_records
        if records:
            records.pop(tp_id // self._tps_per_chunk, None)

    def stored_ppn(self, tp_id: int) -> int:
        """Flash page of a TP's last flushed copy (-1 = never stored)."""
        return self._tp_stored_view[tp_id]

    # ------------------------------------------------------------------
    # Dirty tracking
    # ------------------------------------------------------------------

    def _mark_dirty(self, tp_id: int) -> MappingEvents:
        events = MappingEvents()
        if tp_id in self._dirty:
            self._dirty.move_to_end(tp_id)
            return events
        while len(self._dirty) >= self.dirty_tp_limit:
            victim, _ = self._dirty.popitem(last=False)
            events.flush_tps.append(victim)
            self.stats.tp_flushes += 1
            self.stats.eviction_flushes += 1
        self._dirty[tp_id] = None
        return events

    @property
    def dirty_tp_count(self) -> int:
        return len(self._dirty)

    def is_dirty(self, tp_id: int) -> bool:
        return tp_id in self._dirty

    # ------------------------------------------------------------------
    # Chunk residency
    # ------------------------------------------------------------------

    def _ensure_resident(self, chunk: int, fresh: bool = False) -> MappingEvents:
        """Load *chunk* (of a chunked map; not resident) as the most
        recently used resident chunk.  The least recently used chunks
        are first evicted down to the budget, their dirty TPs flushed;
        the load costs one flash read per TP with a stored copy.

        Returns the chunk's shared load record — ``loaded_chunks=(chunk,)``
        and its stored TP ppns in TP order, in tuples so that merging
        into it or appending to it raises — when the load flushes no TP
        and *fresh* is false.  Otherwise returns fresh events built from
        the record.  The record is built at the chunk's first load and
        again after :meth:`note_flushed` drops it."""
        resident = self._resident
        dirty = self._dirty
        flush_tps = None
        while len(resident) >= self.resident_chunks:
            evicted, _ = resident.popitem(last=False)
            if not dirty:
                continue
            # Dirty TPs belonging to the evicted chunk must be persisted.
            for tp_id in self._tps_in_chunk(evicted):
                if tp_id in dirty:
                    del dirty[tp_id]
                    if flush_tps is None:
                        flush_tps = []
                    flush_tps.append(tp_id)
                    self.stats.tp_flushes += 1
                    self.stats.eviction_flushes += 1
        resident[chunk] = None
        self.stats.chunk_loads += 1
        record = self._load_records.get(chunk)
        if record is None:
            first = chunk * self._tps_per_chunk
            stored = self.tp_stored_ppn[first:first + self._tps_per_chunk]
            record = self._load_records[chunk] = MappingEvents(
                (), tuple(stored[stored >= 0].tolist()), (chunk,))
        if flush_tps is None and not fresh:
            return record
        return MappingEvents(flush_tps or [], list(record.load_tp_ppns),
                             [chunk])

    def resident_chunk_ids(self) -> list[int]:
        return list(self._resident.keys())

    # ------------------------------------------------------------------

    def mapped_count(self) -> int:
        return int(np.count_nonzero(self.l2p != UNMAPPED))

    def _check_lpn(self, lpn: int) -> None:
        if not 0 <= lpn < self.num_lpns:
            raise IndexError(f"lpn {lpn} out of range [0, {self.num_lpns})")
