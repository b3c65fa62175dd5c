"""Property test: the vectorized NAND array is observation-equivalent to
per-page semantics.

``NandArray`` keeps all flash state in flat numpy arrays and maintains its
wear statistics incrementally.  The reference model below stores one
Python record per page and recomputes every statistic from scratch — the
pre-refactor per-page semantics.  On random operation sequences both must
agree on everything observable: read/read_oob round-trips, violations,
block stats, wear summaries, counters, and clone independence.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.flash.geometry import Geometry
from repro.flash.nand import NO_LPN, FlashViolation, NandArray, PageState

GEOM = Geometry(
    channels=1,
    chips_per_channel=1,
    dies_per_chip=1,
    planes_per_die=2,
    blocks_per_plane=3,
    pages_per_block=4,
    page_size=8192,
    sector_size=4096,  # 2 sectors/page -> multi-slot OOB records
)
BLOCKS = GEOM.total_blocks
PAGES = GEOM.total_pages
OOB_SLOTS = GEOM.sectors_per_page


class RefNand:
    """Per-page reference: one dict entry per page, full-scan statistics."""

    def __init__(self) -> None:
        self.pages = {
            ppn: {"state": "free", "lpn": int(NO_LPN), "seq": -1, "oob": None}
            for ppn in range(PAGES)
        }
        self.erase_count = {block: 0 for block in range(BLOCKS)}
        self.write_ptr = {block: 0 for block in range(BLOCKS)}
        self.reads = self.programs = self.erases = 0
        self._seq = 0

    def program(self, ppn, lpn, oob):
        if not 0 <= ppn < PAGES:
            raise FlashViolation("out of range")
        page = self.pages[ppn]
        if page["state"] != "free":
            raise FlashViolation("already programmed")
        block, offset = divmod(ppn, GEOM.pages_per_block)
        if offset != self.write_ptr[block]:
            raise FlashViolation("sequential programming violated")
        if oob is not None and len(oob) > OOB_SLOTS:
            raise FlashViolation("OOB record too large")
        page.update(state="programmed", lpn=lpn, seq=self._seq,
                    oob=None if oob is None else tuple(oob))
        self._seq += 1
        self.write_ptr[block] = offset + 1
        self.programs += 1

    def erase(self, block):
        start = block * GEOM.pages_per_block
        for ppn in range(start, start + GEOM.pages_per_block):
            self.pages[ppn] = {"state": "free", "lpn": int(NO_LPN),
                               "seq": -1, "oob": None}
        self.erase_count[block] += 1
        self.write_ptr[block] = 0
        self.erases += 1

    def read(self, ppn):
        self.reads += 1
        page = self.pages[ppn]
        if page["state"] == "free":
            return int(NO_LPN), None
        return page["lpn"], None

    def read_oob(self, ppn):
        return self.pages[ppn]["oob"]

    def block_stats(self, block):
        start = block * GEOM.pages_per_block
        programmed = sum(
            1 for ppn in range(start, start + GEOM.pages_per_block)
            if self.pages[ppn]["state"] == "programmed"
        )
        return (self.erase_count[block], programmed, self.write_ptr[block])

    def lpns_in_block(self, block):
        start = block * GEOM.pages_per_block
        return [self.pages[ppn]["lpn"]
                for ppn in range(start, start + GEOM.pages_per_block)]

    def wear_summary(self):
        counts = np.array(list(self.erase_count.values()), dtype=np.float64)
        return {"min": float(counts.min()), "max": float(counts.max()),
                "mean": float(counts.mean()), "std": float(counts.std()),
                "total": float(counts.sum())}


def _ops_strategy():
    program = st.tuples(
        st.just("program"),
        st.integers(0, BLOCKS - 1),
        st.integers(0, 500),
        st.one_of(st.none(),
                  # One slot too many is in range: both sides must
                  # reject the record and store nothing.
                  st.lists(st.integers(0, 500), min_size=1,
                           max_size=OOB_SLOTS + 1)),
    )
    bad_program = st.tuples(st.just("bad_program"),
                            st.integers(0, PAGES - 1),
                            st.integers(0, 500))
    erase = st.tuples(st.just("erase"), st.integers(0, BLOCKS - 1))
    return st.lists(st.one_of(program, program, erase, bad_program),
                    min_size=1, max_size=60)


def _apply(op, nand: NandArray, ref: RefNand) -> None:
    if op[0] == "program":
        # Program the block's next sequential page (the legal case).
        _, block, lpn, oob = op
        ptr = int(nand.block_write_ptr[block])
        if ptr >= GEOM.pages_per_block:
            return
        ppn = block * GEOM.pages_per_block + ptr
        if oob is not None and len(oob) > OOB_SLOTS:
            for model in (nand, ref):
                with pytest.raises(FlashViolation):
                    model.program(ppn, lpn=lpn, oob=oob)
            return
        nand.program(ppn, lpn=lpn, oob=oob)
        ref.program(ppn, lpn, oob)
    elif op[0] == "bad_program":
        # An arbitrary target: both sides must agree on accept/reject.
        _, ppn, lpn = op
        outcomes = []
        for model in (nand, ref):
            try:
                if model is nand:
                    nand.program(ppn, lpn=lpn)
                else:
                    ref.program(ppn, lpn, None)
                outcomes.append("ok")
            except FlashViolation:
                outcomes.append("violation")
        assert outcomes[0] == outcomes[1]
    else:
        _, block = op
        nand.erase(block)
        ref.erase(block)


def _assert_equivalent(nand: NandArray, ref: RefNand) -> None:
    for ppn in range(PAGES):
        assert nand.is_free(ppn) == (ref.pages[ppn]["state"] == "free")
        assert nand.read(ppn) == ref.read(ppn)
        assert nand.read_oob(ppn) == ref.read_oob(ppn)
        assert int(nand.page_seq[ppn]) == ref.pages[ppn]["seq"]
    for block in range(BLOCKS):
        stats = nand.block_stats(block)
        assert (stats.erase_count, stats.programmed_pages,
                stats.write_pointer) == ref.block_stats(block)
        assert nand.lpns_in_block(block).tolist() == ref.lpns_in_block(block)
    fast = nand.wear_summary()
    slow = ref.wear_summary()
    for key in slow:
        assert abs(fast[key] - slow[key]) < 1e-9, (key, fast, slow)
    assert nand.counters.reads == ref.reads
    assert nand.counters.programs == ref.programs
    assert nand.counters.erases == ref.erases


@settings(max_examples=120, deadline=None)
@given(ops=_ops_strategy())
def test_vectorized_nand_matches_per_page_reference(ops):
    nand = NandArray(GEOM)
    ref = RefNand()
    for op in ops:
        _apply(op, nand, ref)
    _assert_equivalent(nand, ref)


def _replayed_reference(ops) -> RefNand:
    ref = RefNand()
    replay = NandArray(GEOM)
    for op in ops:
        _apply(op, replay, ref)
    return ref


@settings(max_examples=40, deadline=None)
@given(ops=_ops_strategy(), extra=_ops_strategy())
def test_clone_is_independent_and_equivalent(ops, extra):
    nand = NandArray(GEOM)
    ref = RefNand()
    for op in ops:
        _apply(op, nand, ref)
    mutated, frozen = nand.clone(), nand.clone()
    # A clone's own programs and erases land in the clone (its scalar
    # views must alias its copies, not the arrays __init__ made) and
    # leave the original where it was...
    ref_mutated = _replayed_reference(ops)
    for op in extra:
        _apply(op, mutated, ref_mutated)
    _assert_equivalent(mutated, ref_mutated)
    _assert_equivalent(nand, ref)
    # ...and mutating the original must not leak into a clone, which
    # still matches a reference built from the prefix.
    for op in extra:
        _apply(op, nand, ref)
    _assert_equivalent(frozen, _replayed_reference(ops))
    _assert_equivalent(nand, ref)


class TestIncrementalStatsRegression:
    """``block_stats``/``wear_summary`` used to rescan arrays per call;
    they are now served from incrementally-maintained aggregates.  Pin
    that the aggregates never drift from a from-scratch rebuild."""

    def test_wear_summary_matches_reindex_after_churn(self):
        nand = NandArray(GEOM)
        rng = np.random.default_rng(17)
        for _ in range(300):
            nand.erase(int(rng.integers(BLOCKS)))
        incremental = nand.wear_summary()
        nand.reindex_wear()
        assert nand.wear_summary() == incremental

    def test_wear_summary_reads_no_per_block_array(self):
        """O(1) per call: the summary never rescans ``block_erase_count``."""
        nand = NandArray(GEOM)
        for block in (0, 1, 1, 3):
            nand.erase(block)
        expected = nand.wear_summary()
        nand.block_erase_count = None  # any rescan would raise here
        assert nand.wear_summary() == expected

    def test_staged_erase_counts_need_reindex(self):
        nand = NandArray(GEOM)
        nand.block_erase_count[:] = [5, 1, 9, 0, 3, 2][:BLOCKS]
        nand.reindex_wear()
        summary = nand.wear_summary()
        counts = nand.block_erase_count.astype(np.float64)
        assert summary["min"] == counts.min()
        assert summary["max"] == counts.max()
        assert summary["total"] == counts.sum()
        assert abs(summary["std"] - counts.std()) < 1e-9

    def test_block_stats_constant_time_invariant(self):
        nand = NandArray(GEOM)
        nand.program(0, lpn=1)
        nand.program(1, lpn=2)
        stats = nand.block_stats(0)
        # Sequential programming: programmed count == write pointer.
        assert stats.programmed_pages == stats.write_pointer == 2
        programmed = int(
            np.count_nonzero(nand.page_state[:GEOM.pages_per_block]
                             == PageState.PROGRAMMED))
        assert stats.programmed_pages == programmed
