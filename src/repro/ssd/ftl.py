"""The flash translation layer.

This is the "complex layer of proprietary firmware" the paper is about:
it owns the logical-to-physical map, the write cache, page allocation,
garbage collection, RAIN parity, and the pSLC buffer, and it emits a
:class:`~repro.ssd.ops.FlashOp` stream describing every physical
operation it causes.

Write path (sectors in, flash pages out)::

    host request -> WriteCache.insert_run (absorb/pack, stops when over
                    capacity) -> take_flush_batch (the oldest pending
                    sectors) -> [pSLC buffer] -> data page
      per data page:  allocate -> program -> PROGRAM op -> block_valid bump
                      -> MappingTable.update_page (old PSAs, merged events)
        per sector:   stamp p2l -> invalidate owned old copy
                  \\-> deferred mapping events -> dirty TP -> meta page
                  \\-> RAIN stripe accounting -> parity page
                  \\-> free-block pressure -> GC migrations

Migration path (GC, wear leveling, refresh, retirement, RAIN relocation)::

    victim block -> one nonzero scan (live LPNs, live TPs) -> READ ops
      per destination page:  allocate -> program fail? retire -> stamp
                             block_birth -> program -> PROGRAM op
      per run of pages:      MappingTable.silent_update_run -> stamp
                             p2l -> ownership mask
                             (committed before a retirement or a parity
                             program, and at the end)
      -> meta pages for live TPs

Accounting conventions (documented because the black-box experiments
measure them):

* Host data page programs count as *host* pages even when they land in
  the pSLC buffer; drain traffic counts as FTL (reason ``PSLC``).
* GC migrations update the map via :meth:`MappingTable.silent_update_run`
  — real FTLs piggyback those updates on the destination block's OOB, so
  they do not generate additional translation-page writes here.
* RAIN parity pages are counted but held as immediately-invalid overhead
  (parity is reconstructible; GC never migrates it).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.flash.errors import (
    PSLC_RELIABILITY,
    RELIABILITY_BY_TIMING,
    FailureInjector,
    ReliabilityModel,
)
from repro.flash.geometry import Geometry
from repro.flash.nand import NandArray
from repro.obs.events import (
    BlockRetired,
    DegradedModeChanged,
    FlashOpIssued,
    GcFinished,
    GcStarted,
    RainReconstruction,
    ReadRetry,
)
from repro.obs.sinks import NULL_SINK, TALLIES, TraceSink
from repro.ssd.allocation import OutOfSpace, PageAllocator
from repro.ssd.cache import WriteCache
from repro.ssd.config import SsdConfig
from repro.ssd.gc import VictimSelector
from repro.ssd.mapping import (
    EMPTY_EVENTS,
    UNMAPPED,
    MappingEvents,
    MappingTable,
)
from repro.ssd.ops import FlashOp, OpKind, OpReason, new_tuple
from repro.ssd.policy import ALLOCATION, EVICTION, VICTIM, WEAR, designate
from repro.ssd.rain import RainAccountant
from repro.ssd.slc import PslcBuffer
from repro.ssd.wearlevel import WearLeveler

#: p2l code space: values <= META_P2L_BASE mark metadata pages; the
#: translation-page id is recovered as ``META_P2L_BASE - value``.
META_P2L_BASE = -2

#: p2l value of a slot holding nothing valid: a slot is valid exactly
#: when its p2l entry is anything else.
P2L_NONE = -1

#: idle-time GC keeps this many blocks free beyond the high water
#: mark (one of §2.1's "unpredictable background operations").
IDLE_GC_EXTRA_BLOCKS = 2

#: RBER attenuation per retry step (expected errors shrink by this
#: factor each step of the ladder).
READ_RETRY_RBER_FACTOR = 0.5

# Enum members as module constants for the hot paths (as in timed.py).
_READ, _PROGRAM, _ERASE = OpKind.READ, OpKind.PROGRAM, OpKind.ERASE
_HOST, _META, _PSLC = OpReason.HOST, OpReason.META, OpReason.PSLC


def _tp_to_p2l(tp_id: int) -> int:
    return META_P2L_BASE - tp_id


def _p2l_to_tp(value: int) -> int:
    return META_P2L_BASE - value


class ReadOnlyError(Exception):
    """The device is in read-only degraded mode: grown bad blocks have
    eaten the spare pool down to ``spare_blocks_min`` and accepting more
    writes could strand data with no block to migrate it to.  Reads (and
    draining already-acknowledged cache contents) still work."""


@dataclass
class FtlStats:
    """FTL-internal statistics (invisible to a black-box observer)."""

    host_sector_writes: int = 0
    host_sector_reads: int = 0
    cache_absorbed: int = 0
    gc_invocations: int = 0
    gc_migrated_sectors: int = 0
    pslc_staged_sectors: int = 0
    pslc_drains: int = 0
    blocks_retired: int = 0
    trimmed_sectors: int = 0
    idle_gc_blocks: int = 0
    wear_migrations: int = 0
    refreshed_blocks: int = 0
    uncorrectable_reads: int = 0
    read_retries: int = 0
    rain_reconstructions: int = 0
    relocated_sectors: int = 0


class Ftl:
    """Page-mapped FTL over a :class:`NandArray`."""

    def __init__(
        self,
        config: SsdConfig,
        nand: NandArray | None = None,
        injector: FailureInjector | None = None,
        reliability: ReliabilityModel | None = None,
    ) -> None:
        self.config = config
        geometry = config.geometry
        self.geometry = geometry
        self.nand = nand if nand is not None else NandArray(
            geometry, erase_limit=config.erase_limit
        )
        self.injector = injector if injector is not None else FailureInjector()
        self.reliability = (reliability if reliability is not None
                            else RELIABILITY_BY_TIMING[config.timing_name])

        spp = self._spp = geometry.sectors_per_page
        ppb = self._ppb = geometry.pages_per_block
        self._page_size = geometry.page_size
        self._sector_size = geometry.sector_size
        self.num_lpns = config.logical_sectors
        self._sectors_per_block = spp * ppb
        #: slot offsets within a page, for building a run's PSAs.
        self._page_slots = np.arange(spp, dtype=np.int64)
        total_psas = geometry.total_pages * spp
        #: physical-sector -> logical-sector reverse map (see p2l codes
        #: above), which is also the valid map: a sector is valid exactly
        #: when its entry is not P2L_NONE.  Edited in place only — scalar
        #: views alias this buffer.
        self.p2l = np.full(total_psas, P2L_NONE, dtype=np.int64)
        #: valid sectors per block.  Edited in place only — scalar views
        #: alias this buffer.
        self.block_valid = np.zeros(geometry.total_blocks, dtype=np.int32)
        # One-entry reads and writes go through memoryviews of the two
        # buffers (items are plain ints, several times cheaper than
        # numpy scalars); array-wide work — GC's nonzero scan,
        # check_invariants, recovery — uses the arrays.
        self._p2l_view = memoryview(self.p2l)
        self._block_valid_view = memoryview(self.block_valid)

        # pSLC buffer blocks are striped across planes (TurboWrite-style
        # fixed regions with full die parallelism).
        pslc_block_ids = list(config.pslc_block_ids())
        self.pslc = PslcBuffer(geometry, pslc_block_ids,
                               self.nand.block_write_ptr)
        #: the device has a pSLC buffer (fixed at construction): without
        #: one the page paths skip every buffer check.
        self._has_pslc = self.pslc.enabled
        excluded = frozenset(pslc_block_ids)

        self.allocator = PageAllocator(
            geometry, self.nand, ALLOCATION[config.allocation_scheme](),
            excluded_blocks=excluded,
            gc_low_water_blocks=config.gc_low_water_blocks,
        )
        # Stream routing (e.g. hotcold separation) only exists when the
        # allocation policy declares extra streams; the default path
        # skips the per-page route call entirely.
        self._routed = bool(self.allocator.policy.extra_streams)
        self._route = self.allocator.route

        cache_sectors, extra_dirty_tps = designate(config)
        dirty_limit = config.mapping_dirty_tp_limit + extra_dirty_tps
        self.cache = WriteCache(cache_sectors,
                                eviction=EVICTION[config.cache_eviction])

        #: bypass admission: host writes skip the cache and pack straight
        #: into pages through the direct staging buffer below (at most
        #: one page's worth pending).
        self._bypass = config.cache_admission == "bypass"
        self._staged: list[int] = []

        self.mapping = MappingTable(
            num_lpns=self.num_lpns,
            tp_lpns=config.mapping_tp_lpns,
            dirty_tp_limit=dirty_limit,
            sync_interval=config.mapping_sync_interval,
            chunk_lpns=config.mapping_chunk_lpns,
            resident_chunks=config.mapping_resident_chunks,
        )
        self.selector = VictimSelector(
            VICTIM[config.gc_policy],
            geometry,
            self.nand,
            self.allocator,
            self.block_valid,
            sample_size=config.gc_sample_size,
        )
        self.rain = RainAccountant(config.rain_stripe)
        self.leveler = WearLeveler(
            geometry, self.nand, self.allocator,
            delta=config.wear_leveling_delta,
            policy=WEAR[config.wear_policy],
            sample_size=config.gc_sample_size,
        ) if config.wear_leveling else None
        #: host-sector-write sequence when each block was first programmed
        #: since its last erase (-1 = not programmed); drives refresh age.
        #: Over an array that already holds data (recovery), the clock is
        #: the one that survives power loss: a block is born at its page
        #: 0's program stamp and the sequence resumes past the newest one.
        self.block_birth = self.nand.page_seq[::ppb].copy()
        self._op_seq = int(self.nand.page_seq.max()) + 1
        #: host commands seen (write/read/trim calls) — the op clock the
        #: fault injector's ``at_op`` triggers count against.
        self._host_ops = 0
        #: terminal degraded state: writes/trims raise ReadOnlyError.
        self.degraded_read_only = False
        self.obs: TraceSink = NULL_SINK
        self.stats = FtlStats()
        self._ops: list[FlashOp] = []
        #: chunk -> (its mapping load record, that record's META reads),
        #: so that a repeat load of an unchanged chunk reuses its ops.
        self._meta_reads: dict[int, tuple[MappingEvents, tuple[FlashOp, ...]]] = {}
        #: blocks currently being migrated (nested GC must not touch them).
        self._gc_in_flight: set[int] = set()
        #: True while GC migration is writing; migration draws on the
        #: watermark reserve instead of recursively triggering GC.
        self._in_gc = False
        #: name of the policy currently driving maintenance traffic
        #: (labels FlashOpIssued events; "" on the plain host path).
        self._active_policy = ""

    def attach_sink(self, sink: TraceSink) -> None:
        """Route this FTL's trace events (and those of its write cache,
        victim selector, pSLC buffer, and wear leveler) to *sink*.
        Pass :data:`~repro.obs.sinks.NULL_SINK` to detach."""
        self.obs = sink
        self.cache.obs = sink
        self.selector.obs = sink
        self.pslc.obs = sink
        if self.leveler is not None:
            self.leveler.obs = sink
        if hasattr(self.injector, "obs"):
            self.injector.obs = sink

    # ------------------------------------------------------------------
    # Host interface
    # ------------------------------------------------------------------

    def write(self, lpn: int, nsectors: int = 1) -> list[FlashOp]:
        """Write *nsectors* consecutive logical sectors starting at *lpn*."""
        if nsectors < 1 or lpn < 0 or lpn + nsectors > self.num_lpns:
            self._check_range(lpn, nsectors)
        if self.degraded_read_only:
            self._check_writable()
        self._host_ops += 1
        if self.injector.__class__ is not FailureInjector:
            self.injector.tick(self._host_ops)
        ops = self._ops = []
        stats = self.stats
        stop = lpn + nsectors
        if self._bypass:
            for sector in range(lpn, stop):
                stats.host_sector_writes += 1
                self._op_seq += 1
                self._stage_direct(sector)
            return ops
        cache = self.cache
        pending, capacity = cache.pending, cache.capacity
        has_pslc = self._has_pslc
        take = cache.take_flush_batch
        spp = self._spp
        # insert_run hands back control exactly where the cache went over
        # capacity, so flushes interleave with admissions as a per-sector
        # loop's would (block_birth reads _op_seq there).
        while lpn < stop:
            admitted_to, hits = cache.insert_run(lpn, stop)
            stats.host_sector_writes += admitted_to - lpn
            self._op_seq += admitted_to - lpn
            stats.cache_absorbed += hits
            lpn = admitted_to
            while len(pending) > capacity:
                if has_pslc:
                    self._commit_batch(take(spp))
                else:
                    self._program_data_page(take(spp), "host", _HOST)
        return ops

    def read(self, lpn: int, nsectors: int = 1) -> list[FlashOp]:
        """Read *nsectors* consecutive logical sectors starting at *lpn*.

        The injector's ``tick`` and ``read_uncorrectable`` hooks (as on
        write and trim) are called whenever an injector other than the
        base :class:`FailureInjector`, whose hooks do nothing, is
        installed; the check is made on every call, so assigning
        ``ftl.injector`` takes effect at the next request."""
        if nsectors < 1 or lpn < 0 or lpn + nsectors > self.num_lpns:
            self._check_range(lpn, nsectors)
        self._host_ops += 1
        injector = self.injector
        hooked = injector.__class__ is not FailureInjector
        if hooked:
            injector.tick(self._host_ops)
        ops = self._ops = []
        obs = self.obs
        traced = obs.enabled
        tally = TALLIES[obs.__class__] if traced else None
        stats = self.stats
        pending = self.cache.pending
        staged = self._staged
        pslc_index = self.pslc.index
        lookup = self.mapping.lookup
        ops_per_day = self.config.ops_per_day
        spp = self._spp
        sector_size = self._sector_size
        for sector in range(lpn, lpn + nsectors):
            stats.host_sector_reads += 1
            if sector in pending or (staged and sector in staged):
                continue  # RAM hit: write cache or bypass staging buffer
            psa = pslc_index.get(sector)
            if psa is None:
                psa, events = lookup(sector)
                if events is not EMPTY_EVENTS:
                    self._apply_mapping_events(events)
            if psa != UNMAPPED:
                ppn = psa // spp
                # The host read is the hottest flash-op site: it emits
                # (or tallies) the op's event itself, as _emit would.
                ops.append(new_tuple(FlashOp,
                                     (_READ, ppn, _HOST, sector_size)))
                if traced:
                    if tally is not None:
                        tally(obs, "flash_op", 1, sector_size)
                    else:
                        obs.emit(FlashOpIssued("read", ppn, "host",
                                               sector_size,
                                               self._active_policy))
                hard = hooked and injector.read_uncorrectable(ppn, sector)
                if hard or ops_per_day:
                    self._check_read_integrity(ppn, sector, hard)
        return ops

    def _check_read_integrity(self, ppn: int, lpn: int, hard: bool) -> None:
        """Degraded read path: ECC check, read-retry ladder, RAIN
        reconstruction.

        An uncorrectable read comes from two sources: the retention/ECC
        model (expected raw bit errors exceed the ECC budget — a *soft*
        failure real firmware attacks with shifted-sense re-reads) or the
        fault injector (a *hard* failure no retry cures).  The ladder
        runs in both cases, charging one extra flash read per step; on
        exhaustion, a RAIN-protected device rebuilds the page from its
        stripe peers and relocates the sector, otherwise the sector is
        reported uncorrectable (counted, not fatal — real drives report
        the sector and carry on).

        :meth:`read` asks the injector (unless it is the base class, whose
        answer is always False) once per flash-read sector and passes its
        answer as *hard*; it calls this method only when that answer is
        True or the retention model is on (``ops_per_day``), the only
        cases in which there is anything to check."""
        budget = self._expected_read_errors(ppn)
        if not hard and (budget is None or budget[0] <= budget[1]):
            return
        config = self.config
        for step in range(1, config.read_retry_steps + 1):
            self.stats.read_retries += 1
            self._emit(FlashOp(_READ, ppn, _HOST, self._sector_size))
            success = (not hard and budget is not None
                       and budget[0] * READ_RETRY_RBER_FACTOR ** step
                       <= budget[1])
            if self.obs.enabled:
                self.obs.emit(ReadRetry(ppn=ppn, step=step, success=success))
            if success:
                return
        if self.rain.enabled:
            peers = self.rain.peers_of(ppn)
            if peers:
                for peer in sorted(peers):
                    self._emit(FlashOp(OpKind.READ, peer, OpReason.PARITY,
                                       self.geometry.page_size))
                self.stats.rain_reconstructions += 1
                relocated = self._relocate_sector(lpn)
                if self.obs.enabled:
                    self.obs.emit(RainReconstruction(
                        ppn=ppn, stripe_reads=len(peers), relocated=relocated,
                    ))
                return
        self.stats.uncorrectable_reads += 1

    def _expected_read_errors(self, ppn: int) -> tuple[float, float] | None:
        """Retention/ECC model: ``(expected_bit_errors, ecc_limit)`` for
        a page, or None when age modeling is off or the block unborn."""
        if not self.config.ops_per_day:
            return None
        block = ppn // self.geometry.pages_per_block
        birth = int(self.block_birth[block])
        if birth < 0:
            return None
        age_days = (self._op_seq - birth) / self.config.ops_per_day
        model = self.reliability
        if block in self.allocator.excluded_blocks:
            model = PSLC_RELIABILITY  # buffer blocks run in pSLC mode
        cycles = int(self.nand.block_erase_count[block])
        return model.expected_bit_errors(cycles, age_days), model.ecc_correctable

    def _relocate_sector(self, lpn: int) -> bool:
        """Re-program a reconstructed sector to a fresh page so the
        failing physical copy stops being load-bearing."""
        was_in_gc = self._in_gc
        self._in_gc = True
        try:
            self._migrate_sectors([lpn], OpReason.GC)
        finally:
            self._in_gc = was_in_gc
        self.stats.relocated_sectors += 1
        return True

    def trim(self, lpn: int, nsectors: int = 1) -> list[FlashOp]:
        """Discard logical sectors (ATA TRIM)."""
        self._check_range(lpn, nsectors)
        self._check_writable()
        self._host_ops += 1
        if self.injector.__class__ is not FailureInjector:
            self.injector.tick(self._host_ops)
        self._ops = []
        for sector in range(lpn, lpn + nsectors):
            self.stats.trimmed_sectors += 1
            self.cache.drop(sector)
            if self._staged and sector in self._staged:
                self._staged = [s for s in self._staged if s != sector]
            self.pslc.invalidate(sector)
            old, events = self.mapping.trim(sector)
            self._invalidate_old_copy(sector, old, UNMAPPED)
            self._apply_mapping_events(events)
        return self._ops

    def flush(self) -> list[FlashOp]:
        """Drain the write cache and close open RAIN stripes."""
        self._ops = []
        if self._staged:
            self._flush_staged()
        while len(self.cache):
            self._commit_batch(self.cache.take_flush_batch(self._spp))
        if self.rain.flush():
            self._program_parity_page()
        return self._ops

    def checkpoint(self) -> list[FlashOp]:
        """Persist all dirty mapping state (clean shutdown)."""
        self._ops = []
        self._apply_mapping_events(self.mapping.checkpoint())
        return self._ops

    # ------------------------------------------------------------------
    # Write machinery
    # ------------------------------------------------------------------

    def _commit_batch(self, batch: list[int]) -> None:
        """Commit one page's worth of host sectors (cache flush or bypass
        staging): into the pSLC buffer while it has space, else onto a
        main-area page, then drain buffer blocks while the buffer is at
        or over its drain threshold (a full one is over any)."""
        if not self._has_pslc:
            self._program_data_page(batch, "host", _HOST)
            return
        pslc = self.pslc
        if pslc.has_space():
            self._stage_batch_in_pslc(batch)
        else:
            self._program_data_page(batch, "host", _HOST)
        threshold = self.config.pslc_drain_threshold
        while pslc.used_fraction() >= threshold and self._drain_pslc_block():
            pass

    def _stage_direct(self, sector: int) -> None:
        """Cache-bypass path: collect sectors in a one-page staging
        buffer and program it the moment it fills."""
        self._staged.append(sector)
        if len(self._staged) >= self._spp:
            self._flush_staged()

    def _flush_staged(self) -> None:
        """Commit the bypass staging buffer (at most one page, since
        :meth:`_stage_direct` flushes it the moment it fills)."""
        batch = sorted(self._staged)
        self._staged = []
        self._commit_batch(batch)

    def _program_data_page(
        self, lpns: list[int], stream: str, reason: OpReason,
    ) -> None:
        """Program one page of host (or pSLC drain) sectors *lpns* and
        update all bookkeeping, mapping events included.  Migrations take
        :meth:`_migrate_sectors` instead.

        :meth:`MappingTable.update_page` maps the page's sectors; then
        one loop, in slot order, stamps each slot in ``p2l`` and clears
        its old copy by the ownership rule of
        :meth:`_invalidate_old_copy`; ``block_valid`` takes one bump for
        the page.  This equals an ``update()`` + stamp + invalidate
        sequence per sector: ``update()`` never reads ``p2l``, and a
        repeated LPN's earlier slot is stamped by the time its later
        slot's old copy (that earlier slot) is checked."""
        if self.allocator.planes_at_watermark:
            self._ensure_free_space()
        spp = self._spp
        if self._routed:
            stream = self._route(stream, lpns)
        ppn = self._allocate_programmable_page(stream)
        lpns = lpns[:spp]
        self.nand.program(ppn, oob=lpns)
        page_size = self._page_size
        self._ops.append(new_tuple(FlashOp,
                                   (_PROGRAM, ppn, reason, page_size)))
        obs = self.obs
        if obs.enabled:  # _emit's event, built here as on host reads
            tally = TALLIES[obs.__class__]
            if tally is not None:
                tally(obs, "flash_op", 1, page_size)
            else:
                obs.emit(FlashOpIssued("program", ppn, reason._value_,
                                       page_size, self._active_policy))
        base = ppn * spp
        # Mapping-eviction events come back merged and are applied only
        # once every sector of the page is mapped and its old copy
        # invalidated: applying them mid-page programs meta pages, whose
        # allocation can trigger foreground GC while a later slot's old
        # copy is still marked valid — GC would then migrate that
        # superseded copy with a *newer* program sequence than the live
        # data, and newest-wins recovery would resurrect stale sectors.
        olds, events = self.mapping.update_page(lpns, base)
        p2l = self._p2l_view
        block_valid = self._block_valid_view
        sectors_per_block = self._sectors_per_block
        # One bump for the page: nothing below reads this block's count,
        # and a repeated LPN's later slot takes the earlier slot's copy
        # back out of it.
        block_valid[ppn // self._ppb] += len(lpns)
        for psa, (lpn, old) in enumerate(zip(lpns, olds), base):
            p2l[psa] = lpn
            if old != UNMAPPED and old != psa and p2l[old] == lpn:
                p2l[old] = P2L_NONE
                block_valid[old // sectors_per_block] -= 1
        if self._has_pslc:
            self.pslc.discard(lpns)
        if events is not None:
            self._apply_mapping_events(events)
        if self.rain.on_data_page(ppn):
            self._program_parity_page()

    def _program_parity_page(self) -> None:
        if not self._in_gc:
            self._ensure_free_space()
        ppn = self._allocate_programmable_page("host")
        self.nand.program(ppn)
        self.rain.note_parity(ppn)
        # Parity is never valid: it is overhead that GC erases freely.
        self._emit(new_tuple(FlashOp, (_PROGRAM, ppn, OpReason.PARITY,
                                       self._page_size)))

    def _program_meta_page(self, tp_id: int, reason: OpReason = OpReason.META) -> None:
        if not self._in_gc:
            self._ensure_free_space()
        ppn = self._allocate_programmable_page("meta")
        code = _tp_to_p2l(tp_id)
        self.nand.program(ppn, oob=(code,))
        self._emit(new_tuple(FlashOp, (_PROGRAM, ppn, reason,
                                       self._page_size)))
        old = self.mapping.stored_ppn(tp_id)
        if old >= 0:
            self._invalidate_meta_page(old)
        slot0 = ppn * self._spp
        self._p2l_view[slot0] = code
        self._block_valid_view[ppn // self._ppb] += 1
        self.mapping.note_flushed(tp_id, ppn)
        if self.rain.on_data_page(ppn):
            self._program_parity_page()

    def _allocate_programmable_page(self, stream: str) -> int:
        """Allocate a page, handling injected program failures by
        retiring the bad block and allocating elsewhere."""
        ppb = self._ppb
        while True:
            ppn = self.allocator.allocate_page(stream)
            if not self.injector.program_fails(ppn):
                if ppn % ppb == 0:
                    self.block_birth[ppn // ppb] = self._op_seq
                return ppn
            self._retire_block(ppn // ppb)

    def _retire_block(self, block: int) -> None:
        """Program failure: salvage valid data, then retire the block
        (which closes it if it is open)."""
        self.stats.blocks_retired += 1
        self.allocator.retire_block(block)
        migrated_before = self.stats.gc_migrated_sectors
        was_in_gc = self._in_gc
        self._in_gc = True
        try:
            self._migrate_block_contents(block, reason=OpReason.GC)
        finally:
            self._in_gc = was_in_gc
        if self.obs.enabled:
            self.obs.emit(BlockRetired(
                block=block, cause="program_fail",
                migrated_sectors=(self.stats.gc_migrated_sectors
                                  - migrated_before),
            ))
        self._check_degradation("program_fail")

    # ------------------------------------------------------------------
    # Graceful degradation
    # ------------------------------------------------------------------

    def spare_blocks(self) -> int:
        """The config's spare pool at birth less the retired (grown
        bad) blocks: the pool grown bad blocks consume."""
        return (self.config.spare_blocks_at_birth
                - len(self.allocator.retired_blocks))

    def _check_degradation(self, cause: str) -> None:
        """Enter terminal read-only mode when retirement has eaten the
        spare pool below the configured floor."""
        if self.degraded_read_only or not self.config.spare_blocks_min:
            return
        spares = self.spare_blocks()
        if spares < self.config.spare_blocks_min:
            self.degraded_read_only = True
            if self.obs.enabled:
                self.obs.emit(DegradedModeChanged(
                    mode="read_only", reason=cause, spare_blocks=spares,
                ))

    def _check_writable(self) -> None:
        if self.degraded_read_only:
            raise ReadOnlyError(
                f"device is read-only: spare pool fell below "
                f"{self.config.spare_blocks_min} blocks "
                f"({self.stats.blocks_retired} blocks retired)"
            )

    # ------------------------------------------------------------------
    # pSLC
    # ------------------------------------------------------------------

    def _stage_batch_in_pslc(self, lpns: list[int]) -> None:
        """Stage one page of host sectors in the buffer (which has
        space).  A buffer this fills is drained by the caller,
        :meth:`_commit_batch`."""
        ppn = self.pslc.stage_page(lpns)
        self.stats.pslc_staged_sectors += len(lpns)
        # Host data: counts as a host page even in the buffer.
        self.nand.program(ppn, oob=lpns)
        self._emit(new_tuple(FlashOp, (_PROGRAM, ppn, _HOST, self._page_size)))

    def _drain_pslc_block(self) -> bool:
        block = self.pslc.pick_drain_block()
        if block is None:
            return False
        self.stats.pslc_drains += 1
        victims = self.pslc.evict_block(block)
        spp, page_size = self._spp, self._page_size
        # Read the source pages once each.
        for ppn in sorted({psa // spp for _, psa in victims}):
            self._emit(new_tuple(FlashOp, (_READ, ppn, _PSLC, page_size)))
        lpns = [lpn for lpn, _ in victims]
        for start in range(0, len(lpns), spp):
            self._program_data_page(lpns[start : start + spp], stream="host",
                                    reason=_PSLC)
        self.nand.erase(block)
        self._emit(new_tuple(FlashOp, (_ERASE, block, _PSLC, 0)))
        return True

    # ------------------------------------------------------------------
    # Idle maintenance (§2.1's "unpredictable background operations")
    # ------------------------------------------------------------------

    def idle_maintenance(self, max_blocks: int = 8) -> list[FlashOp]:
        """Background work the FTL performs when the host goes quiet:
        idle GC beyond the foreground watermark, static wear leveling,
        and retention refresh.  Returns the flash ops incurred.

        Wear leveling and refresh get a guaranteed slice of the budget:
        under sustained churn, idle GC alone would otherwise starve the
        lifetime mechanisms forever.
        """
        self._ops = []
        wear_share = 1 if (self.leveler is not None
                           and self.leveler.should_level()) else 0
        refresh_share = 1 if self.config.refresh_after_ops else 0
        budget = max(0, max_blocks - wear_share - refresh_share)
        budget -= self._idle_gc(budget)
        if self.leveler is not None and (wear_share or budget > 0):
            budget += wear_share
            budget -= self._wear_level(max(budget, wear_share))
        if self.config.refresh_after_ops and (refresh_share or budget > 0):
            self._refresh_old_blocks(max(budget + refresh_share, refresh_share))
        return self._ops

    def _idle_gc(self, budget: int) -> int:
        target = self.config.gc_high_water_blocks + IDLE_GC_EXTRA_BLOCKS
        done = 0
        for plane in range(self.geometry.planes_total):
            while (done < budget
                   and self.allocator.free_blocks_in_plane(plane) < target):
                victim = self.selector.select_victim(
                    plane, exclude=self._gc_in_flight
                )
                if (victim is None or self._block_valid_view[victim]
                        >= self._sectors_per_block):
                    break
                self._collect_block(victim, trigger="idle")
                self.stats.idle_gc_blocks += 1
                done += 1
        return done

    def _wear_level(self, budget: int) -> int:
        done = 0
        while done < budget and self.leveler.should_level():
            victim = self.leveler.pick_victim()
            if victim is None:
                break
            self._reclaim_block(victim, OpReason.WEAR, self.leveler.policy)
            self.stats.wear_migrations += 1
            done += 1
        return done

    def _refresh_old_blocks(self, budget: int) -> int:
        """Rewrite blocks whose data has aged past the refresh deadline
        (flash correct-and-refresh)."""
        horizon = self._op_seq - self.config.refresh_after_ops
        birth = self.block_birth.item
        valid = self._block_valid_view
        sealed = self.allocator.sealed_blocks
        # Sealed blocks in ascending block order, then a stable sort by
        # birth: oldest first, ties by block index.
        stale = [block for plane in range(self.geometry.planes_total)
                 for block in sorted(sealed(plane))
                 if 0 <= birth(block) <= horizon and valid[block] > 0]
        stale.sort(key=birth)
        done = 0
        for block in stale[:budget]:
            self._reclaim_block(block, OpReason.REFRESH, "")
            self.stats.refreshed_blocks += 1
            done += 1
        return done

    def _reclaim_block(self, block: int, reason: OpReason,
                       policy: str) -> bool:
        """Migrate *block*'s live data out under *reason* and erase the
        block — GC, wear levelling and refresh all reclaim a block this
        way; *policy* labels the traffic's ``FlashOpIssued`` events.  An
        injected erase failure retires the block instead (a grown bad
        block, ``BlockRetired(cause="erase_fail")``).  Returns whether
        the block was erased and released."""
        migrated_before = self.stats.gc_migrated_sectors
        self._gc_in_flight.add(block)
        self._in_gc = True
        self._active_policy = policy
        try:
            self._migrate_block_contents(block, reason)
            if self.injector.erase_fails(block):
                self.stats.blocks_retired += 1
                self.allocator.retire_block(block)
                if self.obs.enabled:
                    self.obs.emit(BlockRetired(
                        block=block, cause="erase_fail",
                        migrated_sectors=(self.stats.gc_migrated_sectors
                                          - migrated_before),
                    ))
                self._check_degradation("erase_fail")
                return False
            self.nand.erase(block)
            self._emit(new_tuple(FlashOp, (_ERASE, block, reason, 0)))
            self.allocator.release_block(block)
            return True
        finally:
            self._gc_in_flight.discard(block)
            self._in_gc = False
            self._active_policy = ""

    # ------------------------------------------------------------------
    # Garbage collection
    # ------------------------------------------------------------------

    def _ensure_free_space(self) -> None:
        """Foreground GC on every plane at or below the low watermark.

        Not for callers running inside GC (``_in_gc``): migration draws
        on the watermark reserve instead of triggering GC recursively,
        so the parity and meta page programs skip the call then (host
        data pages are never programmed inside GC)."""
        if not self.allocator.planes_at_watermark:
            # No plane is at or below the low watermark, so the scan
            # below would visit every plane and do nothing.
            return
        low = self.config.gc_low_water_blocks
        high = self.config.gc_high_water_blocks
        for plane in range(self.geometry.planes_total):
            guard = self.geometry.blocks_per_plane
            while self.allocator.free_blocks_in_plane(plane) <= low and guard:
                victim = self.selector.select_victim(plane, exclude=self._gc_in_flight)
                if victim is None:
                    break
                self._collect_block(victim)
                guard -= 1
                if self.allocator.free_blocks_in_plane(plane) >= high:
                    break

    def _collect_block(self, victim: int, trigger: str = "foreground") -> None:
        self.stats.gc_invocations += 1
        policy = self.selector.policy
        if self.obs.enabled:
            self.obs.emit(GcStarted(victim=victim,
                                    valid_sectors=self._block_valid_view[victim],
                                    trigger=trigger, policy=policy))
        migrated_before = self.stats.gc_migrated_sectors
        ops_before = len(self._ops)
        erased = False
        try:
            erased = self._reclaim_block(victim, OpReason.GC, policy)
        finally:
            if self.obs.enabled:
                self.obs.emit(GcFinished(
                    victim=victim,
                    migrated_sectors=(self.stats.gc_migrated_sectors
                                      - migrated_before),
                    flash_ops=len(self._ops) - ops_before,
                    erased=erased,
                ))

    def _migrate_block_contents(self, block: int, reason: OpReason) -> None:
        """Move every valid sector / metadata page out of *block*."""
        spp = self._spp
        first_psa = block * self._sectors_per_block
        last_psa = first_psa + self._sectors_per_block
        # nonzero() walks ascending, so live_lpns/live_tps keep psa
        # order; clearing the whole window only rewrites P2L_NONE over
        # already-invalid slots.
        window = self.p2l[first_psa:last_psa]
        live = np.nonzero(window != P2L_NONE)[0]
        codes = window[live]
        live_tps = [_p2l_to_tp(c)
                    for c in codes[codes <= META_P2L_BASE].tolist()]
        live_lpns = codes[codes >= 0]
        pages_sorted = np.unique((live + first_psa) // spp).tolist()
        window[:] = P2L_NONE
        self._block_valid_view[block] = 0
        page_size = self._page_size
        obs = self.obs
        emit, tally = self._op_sinks(obs)
        for ppn in pages_sorted:
            emit(new_tuple(FlashOp, (_READ, ppn, reason, page_size)))
        if tally is not None and pages_sorted:
            tally(obs, "flash_op", len(pages_sorted),
                  len(pages_sorted) * page_size)
        self.stats.gc_migrated_sectors += len(live_lpns)
        self._migrate_sectors(live_lpns, reason)
        for tp_id in live_tps:
            self._program_meta_page(tp_id, reason=reason)

    def _migrate_sectors(self, lpns, reason: OpReason) -> None:
        """Program the sectors *lpns* (read out of their old copies by
        the caller) to fresh ``gc``-stream pages, ``spp`` to a page in
        order, and remap them without metadata cost.

        One loop takes every destination page through allocate →
        program-fail check (retiring the block on failure) →
        ``block_birth`` stamp → program → op.  The map, ``p2l`` and
        ``block_valid`` state of the pages programmed so far is committed by :meth:`_commit_migrated` before a
        retirement or a RAIN parity program — both can migrate a block,
        which reads that state, and the failing block may hold this
        run's earlier pages — and once on the way out, an
        :class:`OutOfSpace` included.  Callers run inside GC
        (``_in_gc``), so the pass never checks free space."""
        lpns = np.asarray(lpns, dtype=np.int64)
        page_lpns = lpns.tolist()
        spp, ppb = self._spp, self._ppb
        # Looked up per call: perfbench shadows the first three on the
        # instances.
        allocate_page = self.allocator.allocate_page
        program_fails = self.injector.program_fails
        program = self.nand.program
        on_data_page = self.rain.on_data_page
        obs = self.obs
        emit, tally = self._op_sinks(obs)
        routed, route = self._routed, self._route
        block_birth = self.block_birth
        page_size = self._page_size
        commit = self._commit_migrated
        ppns: list[int] = []  # destination pages programmed, in order
        committed = 0  # how many of them are committed
        try:
            for start in range(0, len(page_lpns), spp):
                page = page_lpns[start : start + spp]
                stream = route("gc", page) if routed else "gc"
                ppn = allocate_page(stream)
                while program_fails(ppn):
                    committed = commit(lpns, ppns, committed)
                    self._retire_block(ppn // ppb)
                    ppn = allocate_page(stream)
                if ppn % ppb == 0:
                    block_birth[ppn // ppb] = self._op_seq
                program(ppn, oob=page)
                emit(new_tuple(FlashOp, (_PROGRAM, ppn, reason, page_size)))
                ppns.append(ppn)
                if on_data_page(ppn):
                    committed = commit(lpns, ppns, committed)
                    self._program_parity_page()
        finally:
            if tally is not None and ppns:
                tally(obs, "flash_op", len(ppns), len(ppns) * page_size)
            commit(lpns, ppns, committed)

    def _commit_migrated(self, lpns: np.ndarray, ppns: list[int],
                         first: int) -> int:
        """Commit the migrated pages ``ppns[first:]`` — ``spp`` sectors
        each of the run *lpns*, the run's last page possibly short — and
        return ``len(ppns)``, the count now committed.

        Maps the sectors, stamps the reverse map, counts them into their
        blocks and clears their owned old copies, in array operations,
        with the effect of committing one sector at a time in order.  The
        ownership rule of :meth:`_invalidate_old_copy` runs as one mask
        after every new slot is stamped: an old copy is invalidated when
        it is mapped, is not the slot itself and still belongs to the
        LPN.  Stamping first is what a repeated LPN needs:
        :meth:`MappingTable.silent_update_run` gives its later slot the
        earlier slot as the old copy, which must belong to the LPN by
        then."""
        last = len(ppns)
        if first == last:
            return last
        spp = self._spp
        lpns = lpns[first * spp : last * spp]
        psas = (np.array(ppns[first:], dtype=np.int64)[:, None] * spp
                + self._page_slots).reshape(-1)[:len(lpns)]
        olds = self.mapping.silent_update_run(lpns, psas)
        p2l = self.p2l
        p2l[psas] = lpns
        block_valid = self._block_valid_view
        ppb = self._ppb
        left = len(lpns)
        for ppn in ppns[first:]:
            block_valid[ppn // ppb] += min(left, spp)
            left -= spp
        moved = (olds != UNMAPPED) & (olds != psas)
        candidates = olds[moved]
        owned = candidates[p2l[candidates] == lpns[moved]]
        if len(owned):
            p2l[owned] = P2L_NONE
            sectors_per_block = self._sectors_per_block
            for psa in owned.tolist():
                block_valid[psa // sectors_per_block] -= 1
        if self._has_pslc:
            self.pslc.discard(lpns.tolist())
        return last

    # ------------------------------------------------------------------
    # Shared bookkeeping
    # ------------------------------------------------------------------

    def _apply_mapping_events(self, events: MappingEvents) -> None:
        if events.load_tp_ppns:
            # A chunk load: one META read per stored translation page.
            # A chunk's shared load record (the only loading events
            # with tuple fields) has its reads built once and reused
            # until the mapping table replaces the record; fresh events
            # (a load that flushed, or merged update events) build theirs.
            loaded = events.loaded_chunks
            entry = self._meta_reads.get(loaded[0])
            if entry is not None and entry[0] is events:
                reads = entry[1]
            else:
                page_size = self._page_size
                reads = tuple([new_tuple(FlashOp, (_READ, ppn, _META, page_size))
                               for ppn in events.load_tp_ppns])
                if loaded.__class__ is tuple:
                    self._meta_reads[loaded[0]] = events, reads
            self._ops.extend(reads)
            obs = self.obs
            if obs.enabled and reads:
                tally = TALLIES[obs.__class__]
                if tally is not None:
                    # Every META read moves one whole page.
                    tally(obs, "flash_op", len(reads),
                          len(reads) * self._page_size)
                else:
                    emit, policy = obs.emit, self._active_policy
                    for op in reads:
                        emit(FlashOpIssued("read", op[1], "meta", op[3],
                                           policy))
        for tp_id in events.flush_tps:
            self._program_meta_page(tp_id)

    def _invalidate_old_copy(self, lpn: int, old: int, new_psa: int) -> None:
        """Invalidate *lpn*'s superseded copy at *old* — but only if the
        reverse map confirms that sector still belongs to *lpn*.

        The ownership check matters because a mapping entry can be
        transiently stale within one host call: GC triggered mid-batch
        (by a metadata flush) may relocate or reclaim sectors between
        the moment a batch was formed and the moment its slots update
        the map.  Invalidating only owned sectors makes those windows
        self-healing instead of corrupting unrelated data.
        """
        if old == UNMAPPED or old == new_psa:
            return
        if self._p2l_view[old] != lpn:
            return  # the sector has since been reclaimed or re-owned
        self._invalidate_psa(old)

    def _invalidate_psa(self, psa: int) -> None:
        """Invalidate the valid sector *psa* (callers have checked that
        its p2l entry is the owner they expect)."""
        self._p2l_view[psa] = P2L_NONE
        self._block_valid_view[psa // self._sectors_per_block] -= 1

    def _invalidate_meta_page(self, ppn: int) -> None:
        slot0 = ppn * self.geometry.sectors_per_page
        if self._p2l_view[slot0] <= META_P2L_BASE:
            self._invalidate_psa(slot0)

    def _op_sinks(self, obs: TraceSink):
        """``(emit, tally)`` for a loop of page ops under the sink *obs*:
        with no sink, ``emit`` appends to ``_ops``; with a recording sink
        it is :meth:`_emit`; with an aggregating one it appends, and the
        loop tallies its ops in one call at the end (``tally`` is None
        otherwise)."""
        if obs.enabled:
            tally = TALLIES[obs.__class__]
            if tally is None:
                return self._emit, None
            return self._ops.append, tally
        return self._ops.append, None

    def _emit(self, op: FlashOp) -> None:
        self._ops.append(op)
        obs = self.obs
        if obs.enabled:
            tally = TALLIES[obs.__class__]
            if tally is not None:
                tally(obs, "flash_op", 1, op[3])
                return
            kind, target, reason, nbytes = op
            # ``_value_`` is the plain attribute behind ``Enum.value``.
            # The property is a Python-level descriptor call per access,
            # and a ``{member: str}`` dict is no cheaper: ``Enum.__hash__``
            # is Python-level too.
            obs.emit(FlashOpIssued(kind._value_, target, reason._value_,
                                   nbytes, self._active_policy))

    def _check_range(self, lpn: int, nsectors: int) -> None:
        if nsectors < 1:
            raise ValueError("nsectors must be >= 1")
        if lpn < 0 or lpn + nsectors > self.num_lpns:
            raise ValueError(
                f"sector range [{lpn}, {lpn + nsectors}) outside logical "
                f"capacity {self.num_lpns}"
            )

    # ------------------------------------------------------------------
    # Integrity checks (used heavily by tests)
    # ------------------------------------------------------------------

    def check_invariants(self) -> None:
        """Assert the cross-structure invariants that define FTL sanity."""
        spp = self.geometry.sectors_per_page
        # 1. Every mapped LPN points at a valid physical sector that maps back.
        mapped = np.nonzero(self.mapping.l2p != UNMAPPED)[0]
        for lpn in mapped[: 10000]:
            psa = int(self.mapping.l2p[lpn])
            assert int(self.p2l[psa]) == lpn, (
                f"p2l mismatch: lpn {lpn} -> psa {psa} -> {int(self.p2l[psa])}"
            )
        # 2. Block valid counters count the valid (non-P2L_NONE) sectors.
        valid = self.p2l != P2L_NONE
        per_block = valid.reshape(
            self.geometry.total_blocks, self.geometry.pages_per_block * spp
        ).sum(axis=1)
        assert np.array_equal(per_block, self.block_valid), "block_valid drift"
        # 3. Valid sectors only exist on programmed pages.
        valid_psas = np.nonzero(valid)[0]
        pages = np.unique(valid_psas // spp)
        assert np.all(self.nand.page_state[pages] == 1), "valid sector on free page"
