"""Helpers shared across test modules."""


class ListSink:
    """Keeps every event, in emission order."""

    enabled = True

    def __init__(self) -> None:
        self.events = []

    def emit(self, event) -> None:
        self.events.append(event)

    def close(self) -> None:
        pass


def record_requests(device) -> list:
    """Every request a :class:`~repro.ssd.timed.TimedSSD` completes from
    now on, in completion order.

    The device keeps no request history of its own; this shadows the
    instance's ``submit`` / ``flush`` / ``shutdown`` and appends what each
    returns.  The engine binds ``device.submit`` per run and ``shutdown``
    calls ``self.flush``, so every submission path is seen, a shutdown
    after its flush."""
    requests = []

    def recording(method):
        def call(*args, **kwargs):
            request = method(*args, **kwargs)
            requests.append(request)
            return request
        return call

    for name in ("submit", "flush", "shutdown"):
        setattr(device, name, recording(getattr(device, name)))
    return requests


def record_ops(device) -> list:
    """The flash ops each host command of *device* incurs from now on:
    one list per command, in command order.

    Host commands return the completed request, not the ops; this
    shadows the instance's FTL entry points (``write``/``read``/
    ``trim``/``flush``/``checkpoint``/``idle_maintenance``) and the
    device's host commands, and groups every op list the FTL returns
    during one outermost command into that command's list — a
    ``shutdown`` is its flush's ops then its checkpoint's."""
    commands = []
    depth = 0

    def command(method):
        def call(*args, **kwargs):
            nonlocal depth
            if not depth:
                commands.append([])
            depth += 1
            try:
                return method(*args, **kwargs)
            finally:
                depth -= 1
        return call

    def ftl_call(method):
        def call(*args, **kwargs):
            ops = method(*args, **kwargs)
            commands[-1].extend(ops)
            return ops
        return call

    for name in ("submit", "write_sectors", "read_sectors", "trim_sectors",
                 "flush", "shutdown", "idle"):
        setattr(device, name, command(getattr(device, name)))
    ftl = device.ftl
    for name in ("write", "read", "trim", "flush", "checkpoint",
                 "idle_maintenance"):
        setattr(ftl, name, ftl_call(getattr(ftl, name)))
    return commands


def run_round_robin(device, jobs) -> dict:
    """Reference counter-mode loop: one request per source per round,
    in source order, until every source runs dry; then one flush.

    The workload engine's scheduler replaced this loop; at zero latency
    a closed-loop, iodepth-1 run must interleave exactly like it.
    Returns ``{name: (requests, sectors)}``."""
    from repro.workloads.source import as_source

    sources = [as_source(job) for job in jobs]
    counts = {source.name: [0, 0] for source in sources}
    active = sources
    while active:
        still = []
        for source in active:
            request = source.next_request()
            if request is None:
                continue
            kind, lba, sectors = request
            if kind == "write":
                device.write_sectors(lba, sectors)
            elif kind == "read":
                device.read_sectors(lba, sectors)
            elif kind == "trim":
                device.trim_sectors(lba, sectors)
            else:
                device.flush()
            counts[source.name][0] += 1
            counts[source.name][1] += sectors
            still.append(source)
        active = still
    device.flush()
    return {name: tuple(count) for name, count in counts.items()}


def scan_candidates(selector, plane: int, exclude=()) -> list[int]:
    """Full plane scan for GC candidates: the ground truth that
    ``VictimSelector.candidates`` (served from the allocator's
    incremental sealed-block index) is validated against."""
    geometry = selector.geometry
    start = plane * geometry.blocks_per_plane
    end = start + geometry.blocks_per_plane
    active = selector.allocator.active_blocks()
    retired = selector.allocator.retired_blocks
    excluded = set(exclude) | set(selector.allocator.excluded_blocks)
    result = []
    for block in range(start, end):
        if block in active or block in retired or block in excluded:
            continue
        if selector.nand.block_write_ptr[block] < geometry.pages_per_block:
            continue  # not fully written: still has free pages
        result.append(block)
    return result


def oob_stamp(nand):
    """Each page's logical stamp: slot 0 of its OOB record when that
    holds an LPN, else ``NO_LPN`` (free, parity, padding and metadata
    pages)."""
    import numpy as np

    from repro.flash.nand import NO_LPN

    has_lpn = (nand.page_oob_len > 0) & (nand.page_oob[:, 0] >= 0)
    return np.where(has_lpn, nand.page_oob[:, 0], NO_LPN)


def migrate_per_page(ftl, lpns, reason) -> None:
    """Reference for ``Ftl._migrate_sectors``: the per-page silent
    migration loop it replaced, as GC ran it (``_in_gc`` set, so no
    free-space check).

    Each page of ``spp`` sectors is allocated (a program failure retires
    the block right there), programmed, mapped one sector at a time with
    ``silent_update``, stamped, cleared of its owned old copies and of
    superseded pSLC copies, and counted towards RAIN — all before the
    next page is allocated.  Install it with
    ``ftl._migrate_sectors = functools.partial(migrate_per_page, ftl)``
    so nested migrations (a retirement's) take it too."""
    from repro.ssd.ops import FlashOp, OpKind

    spp, ppb = ftl._spp, ftl._ppb
    lpns = [int(lpn) for lpn in lpns]
    for start in range(0, len(lpns), spp):
        page = lpns[start : start + spp]
        stream = ftl._route("gc", page) if ftl._routed else "gc"
        ppn = ftl._allocate_programmable_page(stream)
        ftl.nand.program(ppn, oob=page)
        ftl._emit(FlashOp(OpKind.PROGRAM, ppn, reason, ftl._page_size))
        base = ppn * spp
        olds = [ftl.mapping.silent_update(lpn, psa)
                for psa, lpn in enumerate(page, base)]
        for psa, lpn in enumerate(page, base):
            ftl.p2l[psa] = lpn
        ftl.block_valid[ppn // ppb] += len(page)
        for psa, (lpn, old) in enumerate(zip(page, olds), base):
            ftl._invalidate_old_copy(lpn, old, psa)
        if ftl.pslc.enabled:
            for psa, lpn in enumerate(page, base):
                pslc_psa = ftl.pslc.lookup(lpn)
                if pslc_psa is not None and pslc_psa != psa:
                    ftl.pslc.invalidate(lpn)
        if ftl.rain.on_data_page(ppn):
            ftl._program_parity_page()


def program_page_per_sector(ftl, lpns, stream, reason) -> None:
    """Reference for ``Ftl._program_data_page``: a host (or pSLC drain)
    data page committed one call per sector.

    The page is allocated (after the free-space check) and programmed;
    then each sector in slot order is mapped with :func:`update_general`
    (the map's general body, with no lane),
    stamped into ``p2l``/``block_valid`` and has its old
    copy cleared by ``Ftl._invalidate_old_copy``.  Superseded pSLC copies
    go next, then the sectors' merged mapping events, then the RAIN
    count.  Install it with
    ``ftl._program_data_page = functools.partial(program_page_per_sector, ftl)``
    so every flush path (cache, bypass staging, pSLC drain) takes it."""
    from repro.ssd.mapping import MappingEvents
    from repro.ssd.ops import FlashOp, OpKind

    spp, ppb = ftl._spp, ftl._ppb
    if ftl.allocator.planes_at_watermark:
        ftl._ensure_free_space()
    if ftl._routed:
        stream = ftl._route(stream, lpns)
    ppn = ftl._allocate_programmable_page(stream)
    lpns = lpns[:spp]
    ftl.nand.program(ppn, oob=lpns)
    ftl._emit(FlashOp(OpKind.PROGRAM, ppn, reason, ftl._page_size))
    events = MappingEvents()
    for psa, lpn in enumerate(lpns, ppn * spp):
        old, sector_events = update_general(ftl.mapping, lpn, psa)
        events.merge(sector_events)
        ftl.p2l[psa] = lpn
        ftl.block_valid[ppn // ppb] += 1
        ftl._invalidate_old_copy(lpn, old, psa)
    if ftl.pslc.enabled:
        for psa, lpn in enumerate(lpns, ppn * spp):
            pslc_psa = ftl.pslc.lookup(lpn)
            if pslc_psa is not None and pslc_psa != psa:
                ftl.pslc.invalidate(lpn)
    ftl._apply_mapping_events(events)
    if ftl.rain.on_data_page(ppn):
        ftl._program_parity_page()


class PslcBufferPerSector:
    """Reference for ``repro.ssd.slc.PslcBuffer``'s write and drain
    bookkeeping: the per-sector form the buffer had before it used slot
    arithmetic.

    ``stage_page`` allocates round-robin after a ``has_space`` scan and
    maps each slot in turn; ``evict_block`` tests every index entry with
    a ``_block_of_psa`` call, in index order; ``has_space`` is a
    generator over the cursors."""

    def __init__(self, geometry, block_indices) -> None:
        self.geometry = geometry
        self.blocks = list(block_indices)
        self._cursor = {b: 0 for b in self.blocks}
        self._rr = 0
        self.index = {}

    def used_fraction(self) -> float:
        if not self.blocks:
            return 0.0
        used = sum(self._cursor.values())
        return used / (len(self.blocks) * self.geometry.pages_per_block)

    def has_space(self) -> bool:
        g = self.geometry
        return any(c < g.pages_per_block for c in self._cursor.values())

    def stage_page(self, lpns):
        g = self.geometry
        if not lpns or len(lpns) > g.sectors_per_page:
            raise ValueError(f"stage_page takes 1..{g.sectors_per_page} sectors")
        if not self.has_space():
            raise RuntimeError("pSLC buffer full; drain before staging")
        ppn = None
        for _ in range(len(self.blocks)):
            block = self.blocks[self._rr % len(self.blocks)]
            self._rr += 1
            cursor = self._cursor[block]
            if cursor < g.pages_per_block:
                self._cursor[block] = cursor + 1
                ppn = block * g.pages_per_block + cursor
                break
        for slot, lpn in enumerate(lpns):
            self.index[lpn] = ppn * g.sectors_per_page + slot
        return ppn

    def invalidate(self, lpn: int) -> bool:
        return self.index.pop(lpn, None) is not None

    def _block_of_psa(self, psa: int) -> int:
        g = self.geometry
        return psa // (g.sectors_per_page * g.pages_per_block)

    def evict_block(self, block_index: int):
        victims = [(lpn, psa) for lpn, psa in self.index.items()
                   if self._block_of_psa(psa) == block_index]
        for lpn, _ in victims:
            del self.index[lpn]
        self._cursor[block_index] = 0
        return victims


def _residency_general(table, lpn, events):
    """The chunk residency that :func:`lookup_general` and
    :func:`update_general` write out: on a chunked map, *lpn*'s chunk
    becomes the most recently used if resident; otherwise the least
    recently used chunks are evicted down to the budget (their dirty
    TPs flushed, in TP order) and the chunk is loaded, one read per TP
    with a stored copy, found by a loop over ``tp_stored_ppn``.  The
    work goes into *events*."""
    if not table.chunk_lpns:
        return
    tps_per_chunk = table.chunk_lpns // table.tp_lpns

    def tps_of(chunk):
        first = chunk * tps_per_chunk
        return range(first, min(first + tps_per_chunk, table.num_tps))

    chunk = lpn // table.chunk_lpns
    resident, dirty = table._resident, table._dirty
    if chunk in resident:
        resident.move_to_end(chunk)
        return
    while len(resident) >= table.resident_chunks:
        evicted, _ = resident.popitem(last=False)
        for tp_id in tps_of(evicted):
            if tp_id in dirty:
                del dirty[tp_id]
                events.flush_tps.append(tp_id)
                table.stats.tp_flushes += 1
                table.stats.eviction_flushes += 1
    resident[chunk] = None
    table.stats.chunk_loads += 1
    events.loaded_chunks.append(chunk)
    events.load_tp_ppns.extend(int(table.tp_stored_ppn[tp_id])
                               for tp_id in tps_of(chunk)
                               if table.tp_stored_ppn[tp_id] >= 0)


def lookup_general(table, lpn):
    """Reference for ``MappingTable.lookup``: a general body that writes
    chunk residency out itself instead of calling the table's residency
    routine.

    Range check, count, then — on a chunked map, for every lookup, hit
    or miss — the chunk's residency (:func:`_residency_general`).
    Returns ``(psa, events)`` with fresh events every time."""
    from repro.ssd.mapping import MappingEvents

    table._check_lpn(lpn)
    table.stats.lookups += 1
    events = MappingEvents()
    _residency_general(table, lpn, events)
    return int(table.l2p[lpn]), events


def update_general(table, lpn, psa):
    """Reference for ``MappingTable.update`` (``trim``, with *psa*
    ``UNMAPPED``; ``update_page``, one call per sector): the general
    body with no already-dirty-TP lane and the chunk residency written
    out (:func:`_residency_general`), so a chunk load's reads come from
    a loop over ``tp_stored_ppn`` rather than the table's load record.

    Range check, count, residency, the map entry, the TP's dirty
    tracking, then the checkpoint when one is due.  Returns
    ``(old_psa, events)`` with fresh events every time."""
    from repro.ssd.mapping import MappingEvents

    table._check_lpn(lpn)
    table.stats.updates += 1
    events = MappingEvents()
    _residency_general(table, lpn, events)
    old = int(table.l2p[lpn])
    table.l2p[lpn] = psa
    events.merge(table._mark_dirty(lpn // table.tp_lpns))
    table._since_sync += 1
    if table._since_sync >= table.sync_interval:
        events.merge(table.checkpoint())
    return old, events


def compress_per_centroid(means, weights, compression):
    """Reference for ``repro.fleet.sketch._compress``: the scalar merge
    pass it replaced, one ``k1`` scale call per input centroid.

    Sorts by ``(mean, weight)``, then greedily folds neighbors while the
    running centroid spans at most one unit of the ``k1`` scale.  The
    batched pass must return the same bytes for every input."""
    import math

    import numpy as np

    def _k1(q: float, norm: float) -> float:
        return norm * math.asin(max(-1.0, min(1.0, 2.0 * q - 1.0)))

    order = np.lexsort((weights, means))
    means = means[order]
    weights = weights[order]
    total = float(weights.sum())
    norm = compression / (2.0 * math.pi)
    out_m = np.empty(means.size, dtype=np.float64)
    out_w = np.empty(means.size, dtype=np.float64)
    n_out = 0
    cur_m = float(means[0])
    cur_w = float(weights[0])
    before = 0.0  # total weight already emitted
    k_left = _k1(0.0, norm)
    for i in range(1, means.size):
        m = float(means[i])
        w = float(weights[i])
        if _k1((before + cur_w + w) / total, norm) - k_left <= 1.0:
            cur_w += w
            cur_m += (m - cur_m) * (w / cur_w)
        else:
            out_m[n_out] = cur_m
            out_w[n_out] = cur_w
            n_out += 1
            before += cur_w
            k_left = _k1(before / total, norm)
            cur_m, cur_w = m, w
    out_m[n_out] = cur_m
    out_w[n_out] = cur_w
    n_out += 1
    return out_m[:n_out].copy(), out_w[:n_out].copy()
