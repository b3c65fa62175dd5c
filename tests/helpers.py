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
