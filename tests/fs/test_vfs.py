"""Free-space map and extents."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fs.vfs import Extent, FreeSpaceMap, FsError


class TestFreeSpaceMap:
    def test_initial_state(self):
        space = FreeSpaceMap(100, 1000)
        assert space.free_sectors == 1000
        assert space.used_sectors == 0
        assert space.utilization() == 0.0
        assert space.fragmentation() == 0.0

    def test_allocate_contiguous(self):
        space = FreeSpaceMap(0, 100)
        extents = space.allocate(30)
        assert extents == [Extent(0, 30)]
        assert space.free_sectors == 70

    def test_allocate_splits_across_holes(self):
        space = FreeSpaceMap(0, 100)
        a = space.allocate(30)
        b = space.allocate(30)
        space.release(a)  # hole at [0, 30)
        extents = space.allocate(50)
        assert len(extents) == 2
        assert sum(e.length for e in extents) == 50

    def test_no_space(self):
        space = FreeSpaceMap(0, 10)
        with pytest.raises(FsError):
            space.allocate(11)
        with pytest.raises(ValueError):
            space.allocate(0)

    def test_release_coalesces(self):
        space = FreeSpaceMap(0, 100)
        a = space.allocate(30)
        b = space.allocate(30)
        space.release(a)
        space.release(b)
        assert space.free_extent_count() == 1
        assert space.free_sectors == 100

    def test_double_free_detected(self):
        space = FreeSpaceMap(0, 100)
        a = space.allocate(30)
        space.release(a)
        with pytest.raises(FsError):
            space.release(a)

    def test_fragmentation_metric(self):
        space = FreeSpaceMap(0, 100)
        chunks = [space.allocate(10) for _ in range(10)]
        for i in (0, 2, 4, 6):
            space.release(chunks[i])
        assert space.fragmentation() > 0
        assert space.free_extent_count() == 4


@settings(max_examples=30)
@given(st.lists(st.tuples(st.booleans(), st.integers(1, 40)), max_size=60))
def test_space_conservation_property(ops):
    """Allocated + free always equals the map size; extents never overlap."""
    space = FreeSpaceMap(0, 500)
    held = []
    for do_alloc, size in ops:
        if do_alloc:
            try:
                held.append(space.allocate(size))
            except FsError:
                pass
        elif held:
            space.release(held.pop())
    allocated = sum(e.length for extents in held for e in extents)
    assert allocated + space.free_sectors == 500
    covered = set()
    for extents in held:
        for extent in extents:
            span = set(range(extent.start, extent.end))
            assert not span & covered
            covered |= span
