"""The controller's RAM write cache.

One of the three design knobs the paper varies in its Fig 3 experiment is
"write cache designation (data or mapping metadata)": the same RAM can
buffer host *data* (absorbing overwrites and packing sectors into full
flash pages before programming) or be given to the mapping layer
(holding more dirty translation pages, reducing metadata writes).

:class:`WriteCache` implements the data designation.  The mapping
designation is wired in the FTL: the RAM budget is added to the mapping
table's dirty-TP allowance and the data path runs through a minimal,
one-page staging buffer (sectors are still packed into whole pages, but
nothing is absorbed).
"""

from __future__ import annotations

from collections import OrderedDict

from repro.obs.events import CacheAdmit, CacheFlush
from repro.obs.sinks import NULL_SINK, TraceSink
from repro.ssd.policy.base import CacheEvictionPolicy
from repro.ssd.policy.cache import cache_eviction_policies


class WriteCache:
    """Cache of pending host sector writes with a pluggable eviction order.

    ``insert`` returns ``True`` on a *write hit* — the sector was already
    pending, so the new version replaces it and no flash write is owed for
    the older one (write absorption).  When occupancy exceeds the
    capacity, the FTL asks for flush batches until it fits again.  The
    eviction policy (default ``lru``) decides which pending sectors each
    flush batch drains and whether a hit refreshes recency.
    """

    def __init__(
        self,
        capacity_sectors: int,
        eviction: str | CacheEvictionPolicy = "lru",
    ) -> None:
        if capacity_sectors < 1:
            raise ValueError("capacity_sectors must be >= 1")
        if isinstance(eviction, str):
            eviction = cache_eviction_policies.resolve(eviction)()
        self.eviction = eviction.name
        self._on_hit = eviction.on_hit  # bound once: no per-op dispatch
        self._take = eviction.take
        self.capacity = capacity_sectors
        #: the pending LPNs in the eviction policy's order.  Only the
        #: cache and its policy mutate it; the FTL's write path reads its
        #: length to decide when to flush.
        self.pending: OrderedDict[int, None] = OrderedDict()
        self.obs: TraceSink = NULL_SINK
        self.hits = 0
        self.insertions = 0

    def __len__(self) -> int:
        return len(self.pending)

    def __contains__(self, lpn: int) -> bool:
        return lpn in self.pending

    def insert(self, lpn: int) -> bool:
        """Buffer one sector write; returns True if it absorbed an older
        pending write to the same LPN."""
        self.insertions += 1
        if lpn in self.pending:
            self._on_hit(lpn, self.pending)
            self.hits += 1
            if self.obs.enabled:
                self.obs.emit(CacheAdmit(lpn, True))
            return True
        self.pending[lpn] = None
        if self.obs.enabled:
            self.obs.emit(CacheAdmit(lpn, False))
        return False

    def insert_run(self, lpn: int, stop: int) -> tuple[int, int]:
        """:meth:`insert` sectors ``lpn, lpn + 1, ...`` up to ``stop - 1``,
        returning right after the first one that leaves the cache over
        capacity (so the caller flushes exactly where a per-sector
        ``insert`` loop checking ``len(cache) > capacity`` would).
        Returns ``(next_lpn, hits)``: the first sector not yet inserted
        and how many of the inserted ones were write hits."""
        pending = self.pending
        # Free slots left; only a miss takes one.
        room = self.capacity - len(pending)
        obs = self.obs
        first = lpn
        hits = 0
        while lpn < stop:
            if lpn in pending:
                self._on_hit(lpn, pending)
                hits += 1
                if obs.enabled:
                    obs.emit(CacheAdmit(lpn, True))
            else:
                pending[lpn] = None
                room -= 1
                if obs.enabled:
                    obs.emit(CacheAdmit(lpn, False))
            lpn += 1
            if room < 0:
                break
        self.insertions += lpn - first
        self.hits += hits
        return lpn, hits

    def take_flush_batch(self, max_sectors: int) -> list[int]:
        """Remove up to *max_sectors* pending sectors, the next ones in
        the eviction policy's order (one policy call for the batch).

        The batch is returned sorted by LPN: the FTL packs one batch into
        one flash page, and real caches coalesce neighbouring sectors so
        that sequential streams produce sequentially-packed pages.
        """
        if max_sectors < 1:
            raise ValueError("max_sectors must be >= 1")
        pending = self.pending
        n = min(max_sectors, len(pending))
        if not n:
            return []
        batch = self._take(pending, n)
        batch.sort()
        if self.obs.enabled:
            self.obs.emit(CacheFlush(sectors=n, pending=len(pending)))
        return batch

    def drop(self, lpn: int) -> bool:
        """Remove a pending sector without writing it (TRIM path)."""
        if lpn in self.pending:
            del self.pending[lpn]
            return True
        return False

    @property
    def hit_rate(self) -> float:
        if not self.insertions:
            return 0.0
        return self.hits / self.insertions
