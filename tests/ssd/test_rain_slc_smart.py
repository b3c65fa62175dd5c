"""RAIN accounting, pSLC buffer, SMART counters."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.flash.geometry import Geometry
from repro.ssd.ops import FTL_REASONS, FlashOp, OpKind, OpReason
from repro.ssd.rain import RainAccountant
from repro.ssd.slc import PslcBuffer
from repro.ssd.smart import SmartCounters
from tests.helpers import PslcBufferPerSector


class TestRain:
    def test_disabled_never_due(self):
        rain = RainAccountant(0)
        assert not any(rain.on_data_page() for _ in range(100))
        assert rain.parity_pages == 0

    def test_parity_every_k_pages(self):
        rain = RainAccountant(4)
        due = [rain.on_data_page() for _ in range(12)]
        assert due == [False, False, False, True] * 3
        assert rain.parity_pages == 3

    def test_flush_closes_partial_stripe(self):
        rain = RainAccountant(4)
        rain.on_data_page()
        assert rain.flush()
        assert rain.parity_pages == 1
        assert not rain.flush()  # nothing pending

    def test_overhead_ratio(self):
        rain = RainAccountant(15)
        for _ in range(30):
            rain.on_data_page()
        assert rain.overhead_ratio() == pytest.approx(2 / 30)

    def test_invalid_stripe(self):
        with pytest.raises(ValueError):
            RainAccountant(1)

    def test_peers_are_the_rest_of_the_stripe_then_parity(self):
        rain = RainAccountant(3)
        for ppn in (10, 11):
            assert not rain.on_data_page(ppn)
        assert rain.on_data_page(12)
        rain.note_parity(40)
        assert rain.peers_of(10) == (11, 12, 40)
        assert rain.peers_of(11) == (10, 12, 40)
        assert rain.peers_of(12) == (10, 11, 40)
        assert rain.peers_of(40) == ()  # parity itself
        assert rain.peers_of(13) == ()  # never striped

    def test_peers_of_a_flush_closed_partial_stripe(self):
        rain = RainAccountant(4)
        rain.on_data_page(5)
        rain.on_data_page(6)
        assert rain.flush()
        rain.note_parity(9)
        assert rain.peers_of(5) == (6, 9)
        assert rain.peers_of(6) == (5, 9)

    def test_nested_parity_finalizes_the_inner_stripe_first(self):
        # Allocating the outer stripe's parity page can run GC, whose
        # migrations close (and finalize) a second stripe before the
        # outer parity is noted.
        rain = RainAccountant(2)
        rain.on_data_page(1)
        assert rain.on_data_page(2)       # outer stripe closed
        rain.on_data_page(3)
        assert rain.on_data_page(4)       # inner stripe closed
        rain.note_parity(50)              # inner parity lands first
        rain.note_parity(60)
        assert rain.peers_of(3) == (4, 50)
        assert rain.peers_of(4) == (3, 50)
        assert rain.peers_of(1) == (2, 60)
        assert rain.peers_of(2) == (1, 60)

    def test_a_stripe_is_stored_once(self):
        # One record per stripe, not one peer tuple per member (which
        # was k*k integers a stripe, kept for the life of the run).
        rain = RainAccountant(15)
        for ppn in range(15):
            rain.on_data_page(ppn)
        rain.note_parity(99)
        records = {id(rain._stripe_of[ppn]) for ppn in range(15)}
        assert len(records) == 1
        assert rain._stripe_of[0] == (list(range(15)), 99)


GEOM = Geometry(
    channels=1, chips_per_channel=1, dies_per_chip=1, planes_per_die=1,
    blocks_per_plane=8, pages_per_block=4, page_size=8192, sector_size=4096,
)


class TestPslc:
    def test_disabled_when_no_blocks(self):
        buf = PslcBuffer(GEOM, [])
        assert not buf.enabled
        assert buf.used_fraction() == 0.0

    def test_stage_page_assigns_slots(self):
        buf = PslcBuffer(GEOM, [0, 1])
        ppn, pairs = buf.stage_page([10, 11])
        assert [lpn for lpn, _ in pairs] == [10, 11]
        assert [psa for _, psa in pairs] == [ppn * 2, ppn * 2 + 1]

    def test_stage_page_size_validated(self):
        buf = PslcBuffer(GEOM, [0])
        with pytest.raises(ValueError):
            buf.stage_page([])
        with pytest.raises(ValueError):
            buf.stage_page([1, 2, 3])  # > sectors_per_page (2)

    def test_lookup_and_overwrite(self):
        buf = PslcBuffer(GEOM, [0, 1])
        _, pairs1 = buf.stage_page([42])
        assert buf.lookup(42) == pairs1[0][1]
        _, pairs2 = buf.stage_page([42])
        assert buf.lookup(42) == pairs2[0][1]
        assert pairs1[0][1] != pairs2[0][1]

    def test_invalidate(self):
        buf = PslcBuffer(GEOM, [0])
        buf.stage_page([7])
        assert buf.invalidate(7)
        assert buf.lookup(7) is None
        assert not buf.invalidate(7)

    def test_used_fraction_grows(self):
        buf = PslcBuffer(GEOM, [0, 1])
        assert buf.used_fraction() == 0.0
        buf.stage_page([0, 1])
        # Page-granular fill: 1 of (2 blocks x 4 pages) written.
        assert buf.used_fraction() == pytest.approx(1 / 8)
        buf.stage_page([2, 3])
        assert buf.used_fraction() == pytest.approx(2 / 8)

    def test_fills_then_rejects(self):
        buf = PslcBuffer(GEOM, [0])
        for page in range(GEOM.pages_per_block):
            buf.stage_page([2 * page, 2 * page + 1])
        assert not buf.has_space()
        with pytest.raises(RuntimeError):
            buf.stage_page([999])

    def test_evict_block_returns_valid_pairs(self):
        buf = PslcBuffer(GEOM, [0, 1])
        buf.stage_page([0, 1])
        buf.stage_page([2, 3])
        buf.invalidate(1)
        block = buf.pick_drain_block()
        assert block is not None
        victims = buf.evict_block(block)
        lpns = {lpn for lpn, _ in victims}
        assert 1 not in lpns
        assert lpns  # something was still valid
        for lpn in lpns:
            assert buf.lookup(lpn) is None

    def test_evicted_block_reusable(self):
        buf = PslcBuffer(GEOM, [0])
        for page in range(GEOM.pages_per_block):
            buf.stage_page([2 * page, 2 * page + 1])
        block = buf.pick_drain_block()
        buf.evict_block(block)
        assert buf.has_space()
        buf.stage_page([1000])


_BUFFER_BLOCKS = [0, 1, 5]  # adjacent blocks share a PSA range edge
_buffer_lpn = st.integers(0, 11)  # few LPNs: re-staging is common
_buffer_ops = st.lists(st.one_of(
    st.tuples(st.just("stage"), st.lists(_buffer_lpn, max_size=3)),
    st.tuples(st.just("stage"), st.lists(_buffer_lpn, min_size=1,
                                         max_size=2)),
    st.tuples(st.just("invalidate"), _buffer_lpn),
    st.tuples(st.just("evict"), st.sampled_from(_BUFFER_BLOCKS)),
), max_size=60)


@settings(max_examples=200, deadline=None)
@given(ops=_buffer_ops)
# LPN 1 is re-staged into the next block and keeps its first index
# position; draining block 0 then moves LPN 2 alone.
@example(ops=[("stage", [1, 2]), ("stage", [1]), ("evict", 0), ("evict", 1)])
def test_buffer_matches_per_sector_reference_property(ops):
    """Slot arithmetic, the PSA-range eviction filter and ``min()`` over
    the cursors against the per-sector buffer they replaced: the same
    results and raises, victims in the same order, and the same index
    (order included), cursors, round-robin position and fill level."""
    fast = PslcBuffer(GEOM, _BUFFER_BLOCKS)
    reference = PslcBufferPerSector(GEOM, _BUFFER_BLOCKS)
    for name, arg in ops:
        outcomes = []
        for buf in (fast, reference):
            method = {"stage": buf.stage_page, "invalidate": buf.invalidate,
                      "evict": buf.evict_block}[name]
            try:
                outcomes.append(method(arg))
            except (ValueError, RuntimeError) as exc:
                outcomes.append(repr(exc))
        assert outcomes[0] == outcomes[1], (name, arg)
        assert list(fast.index.items()) == list(reference.index.items())
        assert fast._cursor == reference._cursor
        assert fast._rr == reference._rr
        assert fast.has_space() == reference.has_space()
        assert fast.used_fraction() == reference.used_fraction()


class TestSmart:
    def test_host_vs_ftl_attribution(self):
        smart = SmartCounters()
        smart.record(FlashOp(OpKind.PROGRAM, 0, OpReason.HOST, 100))
        smart.record(FlashOp(OpKind.PROGRAM, 1, OpReason.GC, 100))
        smart.record(FlashOp(OpKind.PROGRAM, 2, OpReason.META, 100))
        smart.record(FlashOp(OpKind.PROGRAM, 3, OpReason.PARITY, 100))
        assert smart.host_program_pages == 1
        assert smart.ftl_program_pages == 3
        assert smart.gc_program_pages == 1
        assert smart.meta_program_pages == 1
        assert smart.parity_program_pages == 1

    def test_reads_and_erases(self):
        smart = SmartCounters()
        smart.record(FlashOp(OpKind.READ, 0, OpReason.HOST, 100))
        smart.record(FlashOp(OpKind.ERASE, 0, OpReason.GC))
        assert smart.read_pages == 1
        assert smart.erase_count == 1

    #: the counters one op of each (kind, reason) moves, written out:
    #: programs of host data are the host's, every other program is the
    #: FTL's plus its reason's detail; reads and erases ignore the reason.
    PROGRAM_COUNTERS = {
        OpReason.HOST: {"host_program_pages"},
        OpReason.GC: {"ftl_program_pages", "gc_program_pages"},
        OpReason.META: {"ftl_program_pages", "meta_program_pages"},
        OpReason.PARITY: {"ftl_program_pages", "parity_program_pages"},
        OpReason.PSLC: {"ftl_program_pages", "pslc_program_pages"},
        OpReason.WEAR: {"ftl_program_pages", "wear_program_pages"},
        OpReason.REFRESH: {"ftl_program_pages", "refresh_program_pages"},
    }

    @pytest.mark.parametrize("reason", list(OpReason))
    @pytest.mark.parametrize("kind", list(OpKind))
    def test_record_moves_exactly_the_named_counters(self, kind, reason):
        expected = {
            OpKind.PROGRAM: self.PROGRAM_COUNTERS[reason],
            OpKind.READ: {"read_pages"},
            OpKind.ERASE: {"erase_count"},
        }[kind]
        smart = SmartCounters()
        smart.record(FlashOp(kind, 3, reason, 100))
        moved = smart.delta(SmartCounters())
        for name in SmartCounters.__dataclass_fields__:
            assert getattr(moved, name) == (1 if name in expected else 0), name

    def test_ftl_reasons_are_everything_but_host(self):
        # record() tells host from FTL programs by ``reason is HOST``.
        assert FTL_REASONS == set(OpReason) - {OpReason.HOST}
        assert set(self.PROGRAM_COUNTERS) == set(OpReason)

    def test_ftl_pages_are_the_sum_of_the_per_reason_counters(self):
        smart = SmartCounters()
        kinds, reasons = list(OpKind), list(OpReason)
        for i in range(210):  # 3 and 7 are coprime: every pair, ten times
            smart.record(FlashOp(kinds[i % 3], i, reasons[i % 7], 100))
        assert smart.ftl_program_pages == (
            smart.gc_program_pages + smart.meta_program_pages
            + smart.parity_program_pages + smart.pslc_program_pages
            + smart.wear_program_pages + smart.refresh_program_pages) == 60
        assert smart.host_program_pages == 10
        assert smart.read_pages == smart.erase_count == 70

    def test_waf(self):
        smart = SmartCounters(host_program_pages=10, ftl_program_pages=9)
        assert smart.waf() == pytest.approx(0.9)
        assert SmartCounters().waf() == 0.0

    def test_host_bytes_per_nand_page(self):
        smart = SmartCounters(
            host_program_pages=10, ftl_program_pages=0, host_sectors_written=80
        )
        assert smart.host_bytes_per_nand_page(4096) == pytest.approx(32768.0)

    def test_snapshot_and_delta(self):
        smart = SmartCounters(host_program_pages=5)
        before = smart.snapshot()
        smart.host_program_pages += 3
        delta = smart.delta(before)
        assert delta.host_program_pages == 3
        before.host_program_pages = 99  # snapshot is independent
        assert smart.host_program_pages == 8

    def test_render_contains_counters(self):
        smart = SmartCounters(host_program_pages=7, ftl_program_pages=3)
        text = smart.render()
        assert "Host_Program_Page_Count" in text
        assert "FTL_Program_Page_Count" in text
        assert "247" in text and "248" in text
