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
