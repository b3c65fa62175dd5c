"""Write cache: absorption, flush batching, draining."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ssd.cache import WriteCache
from repro.ssd.policy import EVICTION
from tests.helpers import ListSink


class TestInsert:
    def test_miss_then_hit(self):
        cache = WriteCache(8)
        assert not cache.insert(5)
        assert cache.insert(5)
        assert len(cache) == 1

    def test_contains(self):
        cache = WriteCache(8)
        cache.insert(3)
        assert 3 in cache
        assert 4 not in cache

    def test_needs_flush_above_capacity(self):
        # The cache takes the sector that overfills it; the FTL then
        # flushes while len(cache) > capacity.
        cache = WriteCache(2)
        cache.insert(0)
        cache.insert(1)
        assert len(cache) == cache.capacity
        cache.insert(2)
        assert len(cache) > cache.capacity

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            WriteCache(0)

    def test_hit_rate(self):
        # The hit rate is the share of inserts that report a hit (the
        # FTL tallies them as FtlStats.cache_absorbed).
        cache = WriteCache(8)
        hits = [cache.insert(1), cache.insert(1), cache.insert(2),
                cache.insert(1)]
        assert sum(hits) / len(hits) == 0.5


class TestFlushBatches:
    def test_batch_is_oldest_first(self):
        cache = WriteCache(8)
        for lpn in (9, 3, 7):
            cache.insert(lpn)
        batch = cache.take_flush_batch(2)
        assert sorted(batch) == batch
        assert set(batch) == {9, 3}  # the two oldest

    def test_batch_sorted_by_lpn(self):
        cache = WriteCache(8)
        for lpn in (9, 3, 7, 1):
            cache.insert(lpn)
        assert cache.take_flush_batch(4) == [1, 3, 7, 9]

    def test_rewrite_refreshes_age(self):
        cache = WriteCache(8)
        cache.insert(1)
        cache.insert(2)
        cache.insert(1)  # refresh: 2 becomes oldest
        assert cache.take_flush_batch(1) == [2]

    def test_batch_size_validation(self):
        with pytest.raises(ValueError):
            WriteCache(4).take_flush_batch(0)

    def test_drop_removes_pending(self):
        cache = WriteCache(8)
        cache.insert(1)
        assert cache.drop(1)
        assert not cache.drop(1)
        assert len(cache) == 0

    def test_batches_drain_the_cache(self):
        cache = WriteCache(8)
        for lpn in range(5):
            cache.insert(lpn)
        batches = [cache.take_flush_batch(2) for _ in range(4)]
        assert batches == [[0, 1], [2, 3], [4], []]
        assert len(cache) == 0


@settings(max_examples=30)
@given(st.lists(st.integers(0, 50), max_size=200))
def test_every_write_flushed_or_absorbed_property(lpns):
    """Sectors leave the cache exactly once per distinct pending LPN."""
    cache = WriteCache(4)
    flushed = []
    absorbed = 0
    for lpn in lpns:
        if cache.insert(lpn):
            absorbed += 1
        while len(cache) > cache.capacity:
            flushed.extend(cache.take_flush_batch(2))
    while len(cache):
        flushed.extend(cache.take_flush_batch(2))
    assert len(flushed) + absorbed == len(lpns)
    # Flushed multiset can repeat LPNs (re-inserted after flush) but the
    # total count is conserved, and nothing pending remains.
    assert len(cache) == 0


def _insert_run_by_hand(cache, lpn, stop):
    """The loop insert_run stands for: insert() until over capacity."""
    hits = 0
    while lpn < stop:
        hits += cache.insert(lpn)
        lpn += 1
        if len(cache) > cache.capacity:
            break
    return lpn, hits


@settings(max_examples=60, deadline=None)
@given(runs=st.lists(st.tuples(st.integers(0, 40), st.integers(1, 9)),
                     max_size=60),
       capacity=st.integers(1, 12),
       eviction=st.sampled_from(["lru", "fifo"]),
       with_sink=st.booleans())
def test_insert_run_equals_an_insert_loop_property(runs, capacity, eviction,
                                                   with_sink):
    caches = [WriteCache(capacity, eviction=EVICTION[eviction])
              for _ in range(2)]
    sinks = [ListSink(), ListSink()]
    if with_sink:
        for cache, sink in zip(caches, sinks):
            cache.obs = sink
    by_run, by_hand = caches
    for start, length in runs:
        lpn, stop = start, start + length
        while lpn < stop:
            got = by_run.insert_run(lpn, stop)
            assert got == _insert_run_by_hand(by_hand, lpn, stop)
            lpn = got[0]
            assert len(by_run) == len(by_hand)
            while len(by_run) > by_run.capacity:
                assert (by_run.take_flush_batch(4)
                        == by_hand.take_flush_batch(4))
        assert list(by_run.pending) == list(by_hand.pending)
    assert sinks[0].events == sinks[1].events
    assert bool(sinks[0].events) == (with_sink and bool(runs))


def test_insert_run_stops_at_the_sector_that_overfills():
    cache = WriteCache(4)
    assert cache.insert_run(10, 13) == (13, 0)      # fits: whole run
    assert cache.insert_run(12, 20) == (15, 1)      # 12 hits; 14 overfills
    assert len(cache) > cache.capacity
    assert cache.take_flush_batch(2) == [10, 11]
    assert cache.insert_run(15, 15) == (15, 0)      # empty run
