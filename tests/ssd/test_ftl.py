"""FTL behaviour: write/read/trim paths, GC, RAIN, pSLC, failures."""

import sys
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.flash.errors import FailureInjector
from repro.flash.geometry import Geometry
from repro.ssd.allocation import OutOfSpace
from repro.ssd.config import SsdConfig
from repro.ssd.ftl import Ftl, ReadOnlyError
from repro.ssd.ops import OpKind, OpReason
from repro.ssd.presets import evo840_like, mx500_like, tiny
from tests.helpers import program_page_per_sector


def small_config(**overrides):
    base = tiny()
    return base.with_changes(**overrides) if overrides else base


def fill_randomly(ftl, writes, seed=0):
    rng = np.random.default_rng(seed)
    for _ in range(writes):
        ftl.write(int(rng.integers(ftl.num_lpns)))
    ftl.flush()


class TestWritePath:
    def test_cached_write_emits_no_ops(self):
        ftl = Ftl(small_config())
        ops = ftl.write(0)
        assert ops == []  # absorbed by the cache

    def test_flush_programs_data(self):
        ftl = Ftl(small_config())
        ftl.write(0)
        ops = ftl.flush()
        programs = [op for op in ops if op.kind is OpKind.PROGRAM]
        assert len(programs) >= 1
        assert programs[0].reason is OpReason.HOST

    def test_write_beyond_capacity_rejected(self):
        ftl = Ftl(small_config())
        with pytest.raises(ValueError):
            ftl.write(ftl.num_lpns)
        with pytest.raises(ValueError):
            ftl.write(ftl.num_lpns - 1, 2)
        with pytest.raises(ValueError):
            ftl.write(0, 0)

    def test_overwrite_invalidates_old_copy(self):
        ftl = Ftl(small_config())
        ftl.write(5)
        ftl.flush()
        psa1 = int(ftl.mapping.l2p[5])
        ftl.write(5)
        ftl.flush()
        psa2 = int(ftl.mapping.l2p[5])
        assert psa1 != psa2
        assert not ftl.sector_valid[psa1]
        assert ftl.sector_valid[psa2]

    def test_sectors_packed_into_pages(self):
        config = small_config()
        ftl = Ftl(config)
        spp = config.geometry.sectors_per_page
        ftl.write(0, spp * 4)
        ops = ftl.flush()
        host_programs = [
            op for op in ops
            if op.kind is OpKind.PROGRAM and op.reason is OpReason.HOST
        ]
        # Perfect packing: one program per sectors_per_page sectors
        # (metadata programs are counted separately).
        assert len(host_programs) == 4

    def test_invariants_after_churn(self):
        ftl = Ftl(small_config())
        fill_randomly(ftl, 4000)
        ftl.check_invariants()

    def test_gc_triggered_under_pressure(self):
        ftl = Ftl(small_config())
        fill_randomly(ftl, 4000)
        assert ftl.stats.gc_invocations > 0
        assert ftl.stats.gc_migrated_sectors > 0

    def test_data_readable_after_gc(self):
        ftl = Ftl(small_config())
        fill_randomly(ftl, 4000)
        # Every mapped LPN resolves to a valid sector that maps back.
        mapped = np.nonzero(ftl.mapping.l2p != -1)[0]
        assert len(mapped) > 0
        for lpn in mapped:
            psa = int(ftl.mapping.l2p[lpn])
            assert int(ftl.p2l[psa]) == lpn


class TestReadPath:
    def test_unwritten_read_no_flash_op(self):
        ftl = Ftl(small_config())
        assert ftl.read(0) == []

    def test_cache_hit_read_no_flash_op(self):
        ftl = Ftl(small_config())
        ftl.write(0)
        assert ftl.read(0) == []

    def test_flash_read_after_flush(self):
        ftl = Ftl(small_config())
        ftl.write(0)
        ftl.flush()
        ops = ftl.read(0)
        assert len(ops) == 1
        assert ops[0].kind is OpKind.READ
        spp = ftl.geometry.sectors_per_page
        assert ops[0].target == int(ftl.mapping.l2p[0]) // spp

    def test_read_range_validation(self):
        ftl = Ftl(small_config())
        with pytest.raises(ValueError):
            ftl.read(-1)


class TestTrim:
    def test_trim_unmaps_and_invalidates(self):
        ftl = Ftl(small_config())
        ftl.write(3)
        ftl.flush()
        psa = int(ftl.mapping.l2p[3])
        ftl.trim(3)
        assert int(ftl.mapping.l2p[3]) == -1
        assert not ftl.sector_valid[psa]
        assert ftl.read(3) == []

    def test_trim_pending_cache_write(self):
        ftl = Ftl(small_config())
        ftl.write(3)
        ftl.trim(3)
        ops = ftl.flush()
        host_programs = [
            op for op in ops
            if op.kind is OpKind.PROGRAM and op.reason is OpReason.HOST
        ]
        assert host_programs == []

    def test_trim_reduces_gc_work(self):
        config = small_config()
        with_trim = Ftl(config)
        without_trim = Ftl(config)
        rng = np.random.default_rng(1)
        lbas = [int(rng.integers(config.logical_sectors)) for _ in range(3000)]
        for i, lba in enumerate(lbas):
            with_trim.write(lba)
            without_trim.write(lba)
            if i % 4 == 3:
                with_trim.trim(lbas[i - 1])
        with_trim.flush()
        without_trim.flush()
        assert (
            with_trim.stats.gc_migrated_sectors
            <= without_trim.stats.gc_migrated_sectors
        )


class TestMetadataPath:
    def test_meta_programs_emitted(self):
        config = small_config(mapping_sync_interval=64)
        ftl = Ftl(config)
        metas = 0
        for lpn in range(200):
            for op in ftl.write(lpn % ftl.num_lpns):
                if op.reason is OpReason.META:
                    metas += 1
        assert metas > 0

    def test_checkpoint_persists_dirty_tps(self):
        ftl = Ftl(small_config())
        ftl.write(0)
        ftl.flush()
        assert ftl.mapping.dirty_tp_count > 0
        ops = ftl.checkpoint()
        assert any(op.reason is OpReason.META for op in ops)
        assert ftl.mapping.dirty_tp_count == 0

    def test_tp_reflush_invalidates_old_meta_page(self):
        ftl = Ftl(small_config())
        ftl.write(0)
        ftl.flush()
        ftl.checkpoint()
        ppn1 = int(ftl.mapping.tp_stored_ppn[0])
        ftl.write(1)
        ftl.flush()
        ftl.checkpoint()
        ppn2 = int(ftl.mapping.tp_stored_ppn[0])
        assert ppn1 != ppn2
        slot0 = ppn1 * ftl.geometry.sectors_per_page
        assert not ftl.sector_valid[slot0]


class TestRainIntegration:
    def test_parity_pages_written(self):
        config = small_config(rain_stripe=4)
        ftl = Ftl(config)
        parity = 0
        for lpn in range(100):
            ftl.write(lpn % ftl.num_lpns)
        for op in ftl.flush():
            if op.reason is OpReason.PARITY:
                parity += 1
        assert ftl.rain.parity_pages > 0

    def test_parity_never_valid(self):
        config = small_config(rain_stripe=2)
        ftl = Ftl(config)
        for lpn in range(min(200, ftl.num_lpns)):
            ftl.write(lpn)
        ftl.flush()
        ftl.check_invariants()
        # All valid sectors belong to host data or metadata, never parity:
        # parity pages carry no p2l entry, so validity implies p2l != -1.
        valid = np.nonzero(ftl.sector_valid)[0]
        assert np.all(ftl.p2l[valid] != -1)


class TestPslcIntegration:
    def test_writes_land_in_pslc_first(self):
        config = small_config(pslc_blocks=4)
        ftl = Ftl(config)
        ftl.write(0)
        ftl.flush()
        assert ftl.pslc.lookup(0) is not None
        assert ftl.stats.pslc_staged_sectors > 0

    def test_read_served_from_pslc(self):
        config = small_config(pslc_blocks=4)
        ftl = Ftl(config)
        ftl.write(0)
        ftl.flush()
        ops = ftl.read(0)
        assert len(ops) == 1
        spp = config.geometry.sectors_per_page
        pslc_psa = ftl.pslc.lookup(0)
        assert ops[0].target == pslc_psa // spp

    def test_drain_moves_data_to_main_area(self):
        config = small_config(pslc_blocks=2, pslc_drain_threshold=0.5)
        ftl = Ftl(config)
        for lpn in range(min(300, ftl.num_lpns)):
            ftl.write(lpn)
        ftl.flush()
        assert ftl.stats.pslc_drains > 0
        drained = [
            lpn for lpn in range(min(300, ftl.num_lpns))
            if ftl.pslc.lookup(lpn) is None and int(ftl.mapping.l2p[lpn]) != -1
        ]
        assert drained
        ftl.check_invariants()

    def test_invariants_with_pslc_churn(self):
        config = small_config(pslc_blocks=4)
        ftl = Ftl(config)
        fill_randomly(ftl, 3000, seed=3)
        ftl.check_invariants()


class TestFailureHandling:
    def test_program_failure_retires_block(self):
        injector = FailureInjector()
        ftl = Ftl(small_config(), injector=injector)
        ftl.write(0)
        # Force the next allocation's program to fail.
        injector.program_fail_prob = 1.0
        with pytest.raises(Exception):
            # With every program failing the FTL keeps retiring blocks
            # until it runs out -- ensure it fails loudly, not silently.
            for lpn in range(2000):
                ftl.write(lpn % ftl.num_lpns)
                ftl.flush()

    def test_single_program_failure_recovers(self):
        injector = FailureInjector()
        ftl = Ftl(small_config(), injector=injector)
        ftl.write(0)
        ops = ftl.flush()
        target = [op for op in ops if op.kind is OpKind.PROGRAM][0].target
        # Fail one specific upcoming program: pick the next page the host
        # stream will use.
        before_retired = ftl.stats.blocks_retired
        injector.program_fail_prob = 0.0
        # Write enough to allocate more pages, forcing one failure.
        next_ppn = None
        for candidate in range(ftl.geometry.total_pages):
            if ftl.nand.is_free(candidate):
                next_ppn = candidate
                break
        assert next_ppn is not None
        injector.forced_program_failures.update(
            range(ftl.geometry.total_pages)
        )
        injector.forced_program_failures = {  # fail exactly one block's page
            next_ppn
        }
        for lpn in range(50):
            ftl.write(lpn % ftl.num_lpns)
        ftl.flush()
        assert ftl.stats.blocks_retired >= before_retired
        ftl.check_invariants()

    def test_erase_failure_retires_block(self):
        injector = FailureInjector(erase_fail_prob=0.002, seed=5)
        ftl = Ftl(small_config(), injector=injector)
        fill_randomly(ftl, 2000, seed=5)
        assert injector.erase_failures > 0
        assert ftl.stats.blocks_retired >= injector.erase_failures
        assert len(ftl.allocator.retired_blocks) >= injector.erase_failures
        ftl.check_invariants()



class RecordingInjector(FailureInjector):
    """Records its host-progress and read-fault hook calls, in order."""

    def __init__(self) -> None:
        super().__init__()
        self.calls = []

    def tick(self, op_index: int, now_ns: int = -1) -> None:
        self.calls.append(("tick", op_index))

    def read_uncorrectable(self, ppn: int, lpn: int = -1) -> bool:
        self.calls.append(("read_uncorrectable", ppn, lpn))
        return False


def _hook_calls_due(ftl, name, lpn, n):
    """Run one host command; return the hook calls it owes the injector:
    one ``tick`` with the host-op count, then, for a read, one
    ``read_uncorrectable`` per sector served from flash."""
    due = []
    if name == "read":
        for sector in range(lpn, lpn + n):
            if sector in ftl.cache.pending or sector in ftl._staged:
                continue
            psa = ftl.pslc.lookup(sector)
            if psa is None:
                psa = int(ftl.mapping.l2p[sector])
            if psa != -1:
                due.append(("read_uncorrectable", psa // ftl._spp, sector))
    ops = getattr(ftl, name)(lpn, n)
    if name == "read":
        assert [op.target for op in ops] == [call[1] for call in due]
    return [("tick", ftl._host_ops)] + due


@pytest.mark.parametrize("installed", ["at_construction", "assigned_later"])
def test_injector_sees_every_hook_call(installed):
    """A subclassed injector sees one ``tick`` per host read, write and
    trim and one ``read_uncorrectable`` per flash-read sector, in order,
    however it was installed; the base class's no-op hooks are the only
    ones the FTL may skip."""
    recorder = RecordingInjector()
    if installed == "at_construction":
        ftl = Ftl(small_config(), injector=recorder)
    else:
        ftl = Ftl(small_config())
        ftl.write(100, 4)
        ftl.read(100, 1)
        ftl.injector = recorder
    due = []
    for command in [("write", 0, 24), ("read", 0, 8), ("write", 3, 1),
                    ("read", 2, 3), ("trim", 5, 2), ("read", 4, 4),
                    ("read", 600, 2), ("write", 40, 16), ("read", 38, 6)]:
        due += _hook_calls_due(ftl, *command)
    assert recorder.calls == due
    assert sum(call[0] == "tick" for call in due) == 9
    assert sum(call[0] == "read_uncorrectable" for call in due) >= 10


class TestCacheDesignation:
    def test_mapping_designation_boosts_dirty_budget(self):
        data = Ftl(small_config(cache_designation="data", cache_sectors=64))
        mapping = Ftl(small_config(cache_designation="mapping", cache_sectors=64))
        assert mapping.mapping.dirty_tp_limit > data.mapping.dirty_tp_limit
        assert mapping.cache.capacity < data.cache.capacity

    def test_data_designation_absorbs_hot_writes(self):
        ftl = Ftl(small_config(cache_designation="data", cache_sectors=64))
        for _ in range(100):
            ftl.write(0)
        assert ftl.stats.cache_absorbed > 90


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(0, 1000),
    writes=st.integers(100, 800),
)
def test_invariants_hold_under_random_workloads(seed, writes):
    ftl = Ftl(tiny())
    rng = np.random.default_rng(seed)
    for _ in range(writes):
        action = rng.random()
        lpn = int(rng.integers(ftl.num_lpns))
        if action < 0.75:
            ftl.write(lpn)
        elif action < 0.9:
            ftl.read(lpn)
        else:
            ftl.trim(lpn)
    ftl.flush()
    ftl.check_invariants()


def test_state_arrays_are_only_ever_edited_in_place():
    """ftl.py, mapping.py and nand.py read and write single entries of
    p2l, sector_valid, block_valid, l2p, tp_stored_ppn and the NandArray
    page/block arrays through memoryviews taken at construction (for a
    NAND clone, by ``clone``); rebinding one of the attributes to a new
    array anywhere else would leave its view on a dead buffer."""
    from types import SimpleNamespace

    from repro.fleet.shard import _audit_durability
    from repro.ssd.recovery import recover_ftl
    from repro.ssd.timed import TimedSSD

    def arrays_and_views(ftl):
        nand = ftl.nand
        return ((ftl.p2l, ftl._p2l_view),
                (ftl.sector_valid, ftl._sector_valid_view),
                (ftl.block_valid, ftl._block_valid_view),
                (ftl.mapping.l2p, ftl.mapping._l2p_view),
                (ftl.mapping.tp_stored_ppn, ftl.mapping._tp_stored_view),
                (nand.page_state, nand._page_state_view),
                (nand.page_lpn, nand._page_lpn_view),
                (nand.page_seq, nand._page_seq_view),
                (nand.block_write_ptr, nand._block_write_ptr_view),
                (nand.block_erase_count, nand._block_erase_count_view),
                (nand.page_oob_len, nand._page_oob_len_view),
                (nand.page_oob, nand._page_oob_view))

    def assert_views_alias(ftl, created=None):
        for index, (array, view) in enumerate(arrays_and_views(ftl)):
            # page_oob's view is over a flat reshape of the 2-D array.
            assert view.obj is array or view.obj.base is array
            assert view.tolist() == array.reshape(-1).tolist()
            if created is not None:
                assert array is created[index][0]

    device = TimedSSD(small_config())
    ftl = device.ftl
    created = arrays_and_views(ftl)
    rng = np.random.default_rng(4)
    for _ in range(3_000):
        device.write_sectors(int(rng.integers(ftl.num_lpns - 2)),
                             int(rng.integers(1, 3)))
    assert ftl.stats.gc_invocations > 100
    assert_views_alias(ftl, created)
    assert ftl.idle_maintenance(max_blocks=8)
    assert_views_alias(ftl, created)
    lost = _audit_durability(device, SimpleNamespace(degraded_kind=None),
                             SimpleNamespace(offline_dies=()))
    assert lost == 0
    assert_views_alias(ftl, created)
    recovered, _ = recover_ftl(device.config, ftl.nand.clone())
    assert_views_alias(recovered)
    assert recovered.mapping.mapped_count() > 0
    recovered.check_invariants()
    ftl.check_invariants()


# ----------------------------------------------------------------------
# The one-pass host page commit against the per-sector calls it stands for
# ----------------------------------------------------------------------

def _page_commit_state(ftl):
    mapping = ftl.mapping
    return (mapping.l2p.tolist(), list(mapping._dirty), mapping._since_sync,
            mapping.stats, mapping.resident_chunk_ids(),
            mapping.tp_stored_ppn.tolist(), ftl.stats, ftl.p2l.tolist(),
            ftl.sector_valid.tolist(), ftl.block_valid.tolist(),
            ftl.nand.page_lpn.tolist(), dict(ftl.pslc.index),
            ftl.rain.data_pages, ftl.rain.parity_pages)


_commands = st.lists(st.tuples(
    st.sampled_from(["write"] * 8 + ["trim", "flush"]),
    # a narrow window makes repeated LPNs in one staged page likely
    st.one_of(st.integers(0, 5), st.integers(0, 690)),
    st.integers(1, 4)), max_size=120)


@settings(max_examples=60, deadline=None)
@given(commands=_commands, chunked=st.booleans(), dirty=st.integers(1, 4),
       sync=st.sampled_from([3, 7, 10_000]), bypass=st.booleans(),
       pslc=st.booleans(), rain=st.booleans(), fill=st.booleans())
# Bypass staging packs sector 3 twice into one page: the later slot's old
# copy is the earlier slot, which must be stamped by then.
@example(commands=[("write", 3, 1), ("write", 3, 1), ("write", 4, 2)],
         chunked=False, dirty=1, sync=3, bypass=True, pslc=False, rain=True,
         fill=True)
def test_page_commit_equals_per_sector_commit_property(
        commands, chunked, dirty, sync, bypass, pslc, rain, fill):
    config = tiny().with_changes(
        mapping_tp_lpns=16, mapping_chunk_lpns=64 if chunked else 0,
        mapping_resident_chunks=2, mapping_dirty_tp_limit=dirty,
        mapping_sync_interval=sync,
        cache_admission="bypass" if bypass else "always",
        pslc_blocks=2 if pslc else 0, rain_stripe=3 if rain else 0)
    one_pass, reference = Ftl(config), Ftl(config)
    reference._program_data_page = partial(program_page_per_sector, reference)
    returned = []
    for ftl in (one_pass, reference):
        out = []
        try:
            if fill:  # full map: later writes supersede copies and run GC
                for lpn in range(0, ftl.num_lpns - 8, 8):
                    out.append(ftl.write(lpn, 8))
            for name, lpn, n in commands:
                lpn = min(lpn, ftl.num_lpns - n)
                out.append(ftl.flush() if name == "flush"
                           else getattr(ftl, name)(lpn, n))
            out.append(ftl.flush())
        except (OutOfSpace, ReadOnlyError) as exc:  # must match on both
            out.append(repr(exc))
        returned.append(out)
    assert returned[0] == returned[1]
    assert _page_commit_state(one_pass) == _page_commit_state(reference)
    if not isinstance(returned[0][-1], str):
        one_pass.check_invariants()


def test_one_page_flush_call_count():
    """Python-level calls made by one write that flushes exactly one full
    page into an open block, the page's translation page already dirty
    and no GC due: the host page program's call budget, counted with
    ``sys.setprofile`` and so independent of the machine."""
    ftl = Ftl(mx500_like(scale=2))
    spp, capacity = ftl._spp, ftl.cache.capacity
    allocator, mapping = ftl.allocator, ftl.mapping
    ftl.write(0, capacity)  # the cache full, nothing flushed yet
    lpn = capacity
    # One-page flushes of the oldest sectors until every plane has an
    # open host block.
    while allocator._stream_counters["host"] < ftl.geometry.planes_total:
        ftl.write(lpn, spp if lpn > capacity else 1)
        lpn += spp if lpn > capacity else 1
    oldest = lpn - len(ftl.cache)  # pending: [oldest, lpn), in order
    batch = range(oldest, oldest + spp)
    assert all(mapping.is_dirty(mapping.tp_of(sector)) for sector in batch)
    plane = allocator.plane_for_index(allocator._stream_counters["host"])
    assert allocator._active[plane, "host"].next_page > 0
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    sys.setprofile(count)
    try:
        ops = ftl.write(lpn, spp)
    finally:
        sys.setprofile(None)
    assert [(op.kind, op.reason) for op in ops] == [(OpKind.PROGRAM,
                                                     OpReason.HOST)]
    assert ftl.stats.gc_invocations == 0
    first_psa = ops[0].target * spp
    assert [mapping.lookup(sector)[0] for sector in batch] == list(
        range(first_psa, first_psa + spp))
    # One call each: write, insert_run, the batch take and its policy
    # call, _program_data_page, the watermark property, the
    # programmable-page allocation and allocate_page with its plane
    # lookup, program_fails, NandArray.program, MappingTable.update_page
    # and RAIN's count.  The base injector's no-op tick is skipped, and
    # the FlashOp is built without the NamedTuple's Python-level __new__.
    assert calls <= 13


def test_pslc_sequential_write_call_count():
    """Python-level calls per 8-sector sequential write on the 840 EVO
    model (pSLC buffer, chunked map), averaged over 4,000 writes after
    4,000 of warm-up: page staging, the buffer drains it triggers and
    the drained pages' map updates.  Counted with ``sys.setprofile``, so
    independent of the machine."""
    ftl = Ftl(evo840_like())
    lpn = 0
    for _ in range(4_000):
        ftl.write(lpn, 8)
        lpn += 8
    drains, updates = ftl.stats.pslc_drains, ftl.mapping.stats.updates
    loads = ftl.mapping.stats.chunk_loads
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    sys.setprofile(count)
    try:
        for _ in range(4_000):
            ftl.write(lpn, 8)
            lpn += 8
    finally:
        sys.setprofile(None)
    # The window drains the buffer, updates the map per drained sector
    # and loads a chunk, so each of those paths is in the count.
    assert ftl.stats.pslc_drains - drains > 100
    assert ftl.mapping.stats.updates - updates > 30_000
    assert ftl.mapping.stats.chunk_loads > loads
    # 46.8 here (246 before staging used slot arithmetic, draining a
    # PSA-range filter and a resident chunk's sectors the map's
    # already-dirty-TP lane).  Two staged pages per write cost about 22
    # calls; a drain, about every 29 writes, moves 64 pages through the
    # host page program.
    assert calls / 4_000 <= 50
