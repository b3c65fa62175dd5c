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
        ftl.nand.program(ppn, lpn=page[0], oob=page)
        ftl._emit(FlashOp(OpKind.PROGRAM, ppn, reason, ftl._page_size))
        base = ppn * spp
        olds = [ftl.mapping.silent_update(lpn, psa)
                for psa, lpn in enumerate(page, base)]
        for psa, lpn in enumerate(page, base):
            ftl.p2l[psa] = lpn
            ftl.sector_valid[psa] = True
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
    then each sector in slot order is mapped with ``MappingTable.update``,
    stamped into ``p2l``/``sector_valid``/``block_valid`` and has its old
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
    ftl.nand.program(ppn, lpn=lpns[0], oob=lpns)
    ftl._emit(FlashOp(OpKind.PROGRAM, ppn, reason, ftl._page_size))
    events = MappingEvents()
    for psa, lpn in enumerate(lpns, ppn * spp):
        old, sector_events = ftl.mapping.update(lpn, psa)
        events.merge(sector_events)
        ftl.p2l[psa] = lpn
        ftl.sector_valid[psa] = True
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
