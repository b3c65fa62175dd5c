"""Mapping table: TP dirty tracking, checkpoints, chunk demand loading."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ssd.mapping import (
    EMPTY_EVENTS,
    UNMAPPED,
    MappingEvents,
    MappingTable,
)
from tests.helpers import lookup_general, update_general


def make(num_lpns=1024, tp_lpns=64, dirty=4, sync=10_000, chunk=0, resident=2):
    return MappingTable(
        num_lpns=num_lpns,
        tp_lpns=tp_lpns,
        dirty_tp_limit=dirty,
        sync_interval=sync,
        chunk_lpns=chunk,
        resident_chunks=resident,
    )


class TestBasics:
    def test_initially_unmapped(self):
        table = make()
        psa, events = table.lookup(0)
        assert psa == UNMAPPED
        assert events.empty

    def test_update_then_lookup(self):
        table = make()
        old, _ = table.update(5, 100)
        assert old == UNMAPPED
        psa, _ = table.lookup(5)
        assert psa == 100

    def test_update_returns_old(self):
        table = make()
        table.update(5, 100)
        old, _ = table.update(5, 200)
        assert old == 100

    def test_trim_unmaps(self):
        table = make()
        table.update(5, 100)
        old, _ = table.trim(5)
        assert old == 100
        assert table.lookup(5)[0] == UNMAPPED

    def test_out_of_range(self):
        table = make(num_lpns=10)
        with pytest.raises(IndexError):
            table.lookup(10)
        with pytest.raises(IndexError):
            table.update(-1, 0)

    def test_mapped_count(self):
        table = make()
        table.update(0, 1)
        table.update(1, 2)
        table.update(0, 3)
        assert table.mapped_count() == 2

    def test_silent_update_no_dirty(self):
        table = make()
        table.silent_update(5, 100)
        assert table.dirty_tp_count == 0
        assert table.lookup(5)[0] == 100


class TestDirtyTracking:
    def test_updates_dirty_their_tp(self):
        table = make(tp_lpns=64)
        table.update(0, 1)
        assert table.is_dirty(0)
        table.update(64, 2)
        assert table.is_dirty(1)
        assert table.dirty_tp_count == 2

    def test_rewrite_same_tp_no_new_dirty(self):
        table = make()
        table.update(0, 1)
        table.update(1, 2)
        assert table.dirty_tp_count == 1

    def test_eviction_at_limit(self):
        table = make(tp_lpns=64, dirty=2)
        e1 = table.update(0, 1)[1]
        e2 = table.update(64, 2)[1]
        assert not e1.flush_tps and not e2.flush_tps
        e3 = table.update(128, 3)[1]
        assert e3.flush_tps == [0]  # LRU dirty TP flushed
        assert table.stats.eviction_flushes == 1

    def test_lru_refresh_on_redirty(self):
        table = make(tp_lpns=64, dirty=2)
        table.update(0, 1)     # TP0
        table.update(64, 2)    # TP1
        table.update(1, 3)     # TP0 again -> TP1 is now LRU
        events = table.update(128, 4)[1]
        assert events.flush_tps == [1]

    def test_checkpoint_flushes_all_dirty(self):
        table = make(tp_lpns=64, dirty=8)
        table.update(0, 1)
        table.update(64, 2)
        events = table.checkpoint()
        assert sorted(events.flush_tps) == [0, 1]
        assert table.dirty_tp_count == 0
        assert table.stats.checkpoint_flushes == 2

    def test_sync_interval_triggers_checkpoint(self):
        table = make(tp_lpns=64, dirty=8, sync=3)
        table.update(0, 1)
        table.update(1, 2)
        events = table.update(2, 3)[1]
        assert events.flush_tps == [0]
        assert table.dirty_tp_count == 0

    def test_note_flushed_records_location(self):
        table = make()
        table.update(0, 1)
        table.note_flushed(0, 777)
        assert table.tp_stored_ppn[0] == 777


class TestChunkResidency:
    def test_chunk_requires_tp_multiple(self):
        with pytest.raises(ValueError):
            make(chunk=100, tp_lpns=64)

    @pytest.mark.parametrize("knob, value", [
        ("resident", 0), ("resident", -3), ("dirty", 0)])
    def test_rejects_empty_budgets(self, knob, value):
        with pytest.raises(ValueError, match="must be >= 1"):
            make(chunk=256, **{knob: value})

    def test_first_access_loads_chunk(self):
        table = make(num_lpns=1024, tp_lpns=64, chunk=256)
        _, events = table.lookup(0)
        assert events.loaded_chunks == (0,)
        assert table.stats.chunk_loads == 1

    def test_resident_chunk_not_reloaded(self):
        table = make(chunk=256)
        table.lookup(0)
        _, events = table.lookup(10)
        assert not events.loaded_chunks

    def test_lru_chunk_evicted(self):
        table = make(num_lpns=1024, tp_lpns=64, chunk=256, resident=2)
        table.lookup(0)    # chunk 0
        table.lookup(256)  # chunk 1
        table.lookup(512)  # chunk 2 -> chunk 0 evicted
        assert 0 not in table.resident_chunk_ids()
        _, events = table.lookup(0)  # reload
        assert events.loaded_chunks == (0,)

    def test_eviction_flushes_chunk_dirty_tps(self):
        table = make(num_lpns=1024, tp_lpns=64, chunk=256, resident=2, dirty=64)
        table.update(0, 1)      # dirties TP0 in chunk 0
        table.lookup(256)       # chunk 1 resident
        _, events = table.lookup(512)  # evicts chunk 0
        assert 0 in events.flush_tps

    def test_chunk_load_reads_stored_tps(self):
        table = make(num_lpns=1024, tp_lpns=64, chunk=256, resident=2)
        table.update(0, 1)
        table.note_flushed(0, 555)
        table.lookup(256)
        table.lookup(512)  # evict chunk 0
        _, events = table.lookup(0)
        assert 555 in events.load_tp_ppns

    def test_unstored_tps_cost_no_reads(self):
        table = make(num_lpns=1024, tp_lpns=64, chunk=256, resident=1)
        _, events = table.lookup(0)
        assert events.load_tp_ppns == ()

    def test_num_chunks(self):
        table = make(num_lpns=1000, tp_lpns=50, chunk=250)
        assert table.num_chunks == 4

    def test_shared_empty_events_are_immutable(self):
        # Every resident-chunk lookup returns the one shared instance:
        # a caller that merged into it or appended to it would leak TP
        # ids into every later lookup, so both must raise.
        table = make(chunk=256)
        table.lookup(0)  # loads chunk 0
        _, events = table.lookup(10)
        assert events is EMPTY_EVENTS
        with pytest.raises(AttributeError):
            events.merge(MappingEvents(flush_tps=[3]))
        with pytest.raises(AttributeError):
            events.flush_tps.append(3)
        with pytest.raises(AttributeError):
            events.load_tp_ppns.append(3)
        assert EMPTY_EVENTS.empty
        assert table.lookup(20)[1].empty

    def test_reload_returns_the_shared_load_record(self):
        # A load that flushes nothing returns the chunk's one load
        # record (tuple fields, immutable like EMPTY_EVENTS), again at
        # every reload until one of its TPs is stored anew.
        table = make(num_lpns=1024, tp_lpns=64, chunk=256, resident=1)
        table.note_flushed(1, 555)
        _, record = table.lookup(0)
        assert record.load_tp_ppns == (555,)
        table.lookup(256)  # evicts chunk 0
        assert table.lookup(0)[1] is record
        with pytest.raises(AttributeError):
            record.merge(MappingEvents(flush_tps=[3]))
        table.lookup(256)
        table.note_flushed(2, 556)  # chunk 0's TP moved: a new record
        _, reloaded = table.lookup(0)
        assert reloaded is not record
        assert reloaded.load_tp_ppns == (555, 556)
        assert record.load_tp_ppns == (555,)


@settings(max_examples=25)
@given(st.lists(st.tuples(st.integers(0, 1023), st.integers(0, 10_000)), max_size=200))
def test_lookup_matches_last_update_property(updates):
    table = make(num_lpns=1024, tp_lpns=64, dirty=3, sync=37)
    expected = {}
    for lpn, psa in updates:
        table.update(lpn, psa)
        expected[lpn] = psa
    for lpn, psa in expected.items():
        assert table.lookup(lpn)[0] == psa


@settings(max_examples=25)
@given(st.lists(st.integers(0, 1023), min_size=1, max_size=300))
def test_dirty_never_exceeds_limit_property(lpns):
    table = make(num_lpns=1024, tp_lpns=32, dirty=4, sync=10_000)
    for i, lpn in enumerate(lpns):
        table.update(lpn, i)
        assert table.dirty_tp_count <= 4


# ----------------------------------------------------------------------
# A silent run against the per-sector calls it stands for
# ----------------------------------------------------------------------

_runs = st.lists(
    # the table below holds LPNs 0..191: both ends overshoot
    st.lists(st.integers(-2, 194), min_size=1, max_size=8),
    min_size=1, max_size=40)


@settings(max_examples=100, deadline=None)
@given(runs=_runs)
def test_silent_update_run_equals_per_sector_calls_property(runs):
    # Repeated LPNs and out-of-range ones included; the host page path's
    # per-sector reference is tests.ssd.test_ftl's page-commit property.
    run_table, looped = (make(num_lpns=192, tp_lpns=16) for _ in range(2))
    first_psa = 0
    for lpns in runs:
        outcomes = []
        for table in (run_table, looped):
            try:
                if table is run_table:
                    outcome = table.silent_update_run(
                        np.array(lpns, dtype=np.int64),
                        np.arange(first_psa, first_psa + len(lpns))).tolist()
                else:
                    outcome = [table.silent_update(lpn, psa)
                               for psa, lpn in enumerate(lpns, first_psa)]
            except IndexError as exc:
                # Sectors ahead of the bad LPN are applied, the rest not
                # — on both sides, as the map comparison below shows.
                outcome = str(exc)
            outcomes.append(outcome)
        assert outcomes[0] == outcomes[1]
        assert run_table.l2p.tolist() == looped.l2p.tolist()
        first_psa += 8


# ----------------------------------------------------------------------
# lookup and update (their lanes and load records) against the general bodies
# ----------------------------------------------------------------------

def _residency_state(table):
    return (table.l2p.tolist(), list(table._dirty), table._since_sync,
            table.stats, table.resident_chunk_ids(),
            table.tp_stored_ppn.tolist())


_lpn = st.integers(-2, 194)  # the tables below hold LPNs 0..191
_table_ops = st.lists(st.one_of(
    st.tuples(st.just("lookup"), _lpn),
    st.tuples(st.just("lookup"), _lpn),  # twice: lookups dominate
    st.tuples(st.just("update"), _lpn, st.integers(0, 5_000)),
    st.tuples(st.just("trim"), _lpn),
    st.tuples(st.just("checkpoint")),
    st.tuples(st.just("note_flushed"), st.integers(0, 11),
              st.integers(0, 5_000)),
), max_size=80)


@settings(max_examples=150, deadline=None)
@given(ops=_table_ops, chunked=st.booleans(), resident=st.integers(1, 4),
       dirty=st.integers(1, 4), sync=st.sampled_from([3, 7, 10_000]))
def test_lookup_matches_general_body_property(ops, chunked, resident, dirty,
                                              sync):
    tables = [make(num_lpns=192, tp_lpns=16, dirty=dirty, sync=sync,
                   chunk=32 if chunked else 0, resident=resident)
              for _ in range(2)]
    fast, reference = tables
    for op in ops:
        outcomes = []
        for table in tables:
            name, *args = op
            try:
                if name == "lookup":
                    psa, events = (table.lookup(*args) if table is fast
                                   else lookup_general(table, *args))
                elif name in ("update", "trim") and table is reference:
                    psa, events = update_general(
                        table, *(args if name == "update"
                                 else (*args, UNMAPPED)))
                elif name == "checkpoint":
                    psa, events = None, table.checkpoint()
                elif name == "note_flushed":
                    psa, events = table.note_flushed(*args), None
                else:
                    psa, events = getattr(table, name)(*args)
            except IndexError as exc:
                outcomes.append(str(exc))
                continue
            if (table is fast and name == "lookup" and events.loaded_chunks
                    and not events.flush_tps):
                # A load that flushed nothing returns the chunk's shared
                # load record: it must refuse a merge or an append.
                with pytest.raises(AttributeError):
                    events.merge(MappingEvents(flush_tps=[3]))
                with pytest.raises(AttributeError):
                    events.load_tp_ppns.append(3)
            outcomes.append((psa, None if events is None else (
                list(events.flush_tps), list(events.load_tp_ppns),
                list(events.loaded_chunks))))
        assert outcomes[0] == outcomes[1], op
        assert _residency_state(fast) == _residency_state(reference)


def test_silent_update_run_applies_nothing_after_an_out_of_range_lpn():
    table = make(num_lpns=64, tp_lpns=16)
    with pytest.raises(IndexError, match="lpn -1 out of range"):
        table.silent_update_run(np.array([4, -1, 6]), np.arange(200, 203))
    assert table.lookup(4)[0] == 200
    assert table.lookup(6)[0] == UNMAPPED
