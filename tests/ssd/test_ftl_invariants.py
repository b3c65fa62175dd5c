"""Property-based FTL invariants under randomized host sequences.

Seeded random write/trim/read workouts (no external property-testing
dependency) assert the structural invariants that define FTL sanity:

* mapping bijectivity — no two LPNs ever share a live physical sector,
  and every live data sector's reverse-map entry round-trips;
* read-after-write integrity — every written-and-flushed LPN is mapped
  to a programmed page and a host read reaches it;
* page accounting — valid + invalid + free pages add up to the
  geometry's total after every single GC cycle (checked from inside a
  trace sink hooked on ``gc_finished``).
"""

import tracemalloc

import numpy as np
import pytest

from repro.flash.nand import NO_LPN
from repro.obs.events import GcFinished
from repro.ssd.device import SimulatedSSD
from repro.ssd.ftl import META_P2L_BASE, P2L_NONE
from repro.ssd.mapping import UNMAPPED
from repro.ssd.presets import evo840_like, mqsim_baseline, tiny
from tests.helpers import record_ops

SEEDS = (1, 7, 23)


def assert_mapping_bijective(ftl) -> None:
    """l2p and p2l agree, and live data sectors are uniquely owned."""
    mapped = np.nonzero(ftl.mapping.l2p != UNMAPPED)[0]
    psas = ftl.mapping.l2p[mapped]
    # No two LPNs share a live physical sector.
    assert len(np.unique(psas)) == len(psas), "duplicate live PPN"
    # Forward map lands on valid sectors owned by the same LPN.
    assert np.array_equal(ftl.p2l[psas], mapped), "p2l does not round-trip"
    # Converse: every valid *data* sector is reachable from the map or
    # superseded by a pSLC-resident copy of the same LPN.
    valid_data = np.nonzero(ftl.p2l >= 0)[0]
    for psa in valid_data:
        lpn = int(ftl.p2l[psa])
        if int(ftl.mapping.l2p[lpn]) != psa:
            assert ftl.pslc.lookup(lpn) is not None, (
                f"orphaned valid sector {psa} (lpn {lpn})"
            )


def assert_page_accounting(ftl) -> None:
    """valid_pages + invalid_pages + free_pages == total_pages, each
    side computed from an independent structure."""
    geometry = ftl.geometry
    spp = geometry.sectors_per_page
    page_state = ftl.nand.page_state
    free_pages = int(np.count_nonzero(page_state == 0))
    programmed_pages = int(np.count_nonzero(page_state == 1))
    assert free_pages + programmed_pages == geometry.total_pages
    # Pages carrying at least one valid sector, from the reverse map.
    valid = ftl.p2l != P2L_NONE
    valid_pages = int(np.count_nonzero(valid.reshape(-1, spp).any(axis=1)))
    invalid_pages = programmed_pages - valid_pages
    assert invalid_pages >= 0, "valid sectors exceed programmed pages"
    assert valid_pages + invalid_pages + free_pages == geometry.total_pages
    # Valid sectors only ever sit on programmed pages.
    valid_psas = np.nonzero(valid)[0]
    assert np.all(page_state[valid_psas // spp] == 1)


class GcInvariantSink:
    """Checks page accounting after every completed GC cycle."""

    enabled = True

    def __init__(self, ftl) -> None:
        self.ftl = ftl
        self.gc_cycles = 0

    def emit(self, event) -> None:
        if isinstance(event, GcFinished):
            self.gc_cycles += 1
            assert_page_accounting(self.ftl)

    def close(self) -> None:
        pass


def workout(device, steps: int, seed: int, trim_fraction: float = 0.1):
    """Randomized write/trim/read sequence; returns the live shadow set."""
    rng = np.random.default_rng(seed)
    live: set[int] = set()
    n = device.num_sectors
    for _ in range(steps):
        roll = rng.random()
        lba = int(rng.integers(n))
        count = int(rng.integers(1, 5))
        count = min(count, n - lba)
        if roll < trim_fraction and live:
            device.trim_sectors(lba, count)
            live.difference_update(range(lba, lba + count))
        elif roll < 0.25:
            device.read_sectors(lba, count)
        else:
            device.write_sectors(lba, count)
            live.update(range(lba, lba + count))
    return live


class TestRandomizedInvariants:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_bijectivity_and_accounting_throughout(self, seed):
        device = SimulatedSSD(tiny())
        sink = GcInvariantSink(device.ftl)
        device.attach_sink(sink)
        rng = np.random.default_rng(seed + 1000)
        for phase in range(6):
            workout(device, 800, seed=seed * 100 + phase)
            if rng.random() < 0.5:
                device.flush()
            if rng.random() < 0.3:
                device.idle(max_blocks=4)
            device.ftl.check_invariants()
            assert_mapping_bijective(device.ftl)
            assert_page_accounting(device.ftl)
        # The workout must actually have exercised GC for the per-cycle
        # accounting assertions to mean anything.
        assert sink.gc_cycles > 0
        assert sink.gc_cycles == device.ftl.stats.gc_invocations

    @pytest.mark.parametrize("seed", SEEDS)
    def test_read_after_write_integrity(self, seed):
        device = SimulatedSSD(tiny())
        live = workout(device, 3000, seed=seed)
        device.flush()
        assert_mapping_bijective(device.ftl)
        ftl = device.ftl
        rng = np.random.default_rng(seed)
        sample = rng.choice(sorted(live), size=min(200, len(live)),
                            replace=False)
        commands = record_ops(device)
        for lpn in sample:
            lpn = int(lpn)
            psa = ftl.pslc.lookup(lpn)
            if psa is None:
                psa = int(ftl.mapping.l2p[lpn])
            assert psa != UNMAPPED, f"written lpn {lpn} unmapped after flush"
            assert ftl.p2l[psa] != P2L_NONE, (
                f"written lpn {lpn} on dead sector")
            ppn = psa // ftl.geometry.sectors_per_page
            assert ftl.nand.page_state[ppn] == 1, "mapped to unprogrammed page"
            # A host read must reach flash for this sector (no RAM copy
            # remains after the flush).
            device.read_sectors(lpn, 1)
            assert any(op.kind.value == "read" for op in commands[-1])

    @pytest.mark.parametrize("seed", SEEDS)
    def test_trimmed_sectors_are_unmapped(self, seed):
        device = SimulatedSSD(tiny())
        n = device.num_sectors
        device.write_sectors(0, n // 2)
        device.flush()
        rng = np.random.default_rng(seed)
        trimmed = set()
        for _ in range(50):
            lba = int(rng.integers(n // 2))
            count = min(int(rng.integers(1, 8)), n // 2 - lba)
            device.trim_sectors(lba, count)
            trimmed.update(range(lba, lba + count))
        for lpn in sorted(trimmed):
            assert int(device.ftl.mapping.l2p[lpn]) == UNMAPPED
            assert device.ftl.pslc.lookup(lpn) is None
        device.ftl.check_invariants()
        assert_page_accounting(device.ftl)


class TestPslcDeviceInvariants:
    """The same properties on a pSLC-buffered device (evo840 model),
    where writes may live in the buffer instead of the main map."""

    def test_invariants_with_pslc_buffer(self):
        device = SimulatedSSD(evo840_like(scale=4))
        sink = GcInvariantSink(device.ftl)
        device.attach_sink(sink)
        live = workout(device, 2500, seed=5)
        device.flush()
        ftl = device.ftl
        ftl.check_invariants()
        assert_mapping_bijective(ftl)
        assert_page_accounting(ftl)
        # The pSLC index itself is injective and buffer-resident.
        psas = list(ftl.pslc.index.values())
        assert len(set(psas)) == len(psas)
        buffer_blocks = set(ftl.pslc.blocks)
        spb = ftl.geometry.sectors_per_page * ftl.geometry.pages_per_block
        for psa in psas:
            assert psa // spb in buffer_blocks
        # Every live LPN is reachable somewhere.
        rng = np.random.default_rng(9)
        sample = rng.choice(sorted(live), size=min(150, len(live)),
                            replace=False)
        for lpn in sample:
            lpn = int(lpn)
            in_buffer = ftl.pslc.lookup(lpn) is not None
            mapped = int(ftl.mapping.l2p[lpn]) != UNMAPPED
            assert in_buffer or mapped


@pytest.fixture(scope="module")
def filled_ftl():
    """An ``mqsim_baseline`` FTL (1.5 MiB ``p2l``) nine tenths full,
    with overwrites leaving most blocks partly valid."""
    device = SimulatedSSD(mqsim_baseline())
    span = device.num_sectors * 9 // 10
    for lba in range(0, span - 64, 64):
        device.write_sectors(lba, 64)
    rng = np.random.default_rng(3)
    for lba in rng.integers(span, size=2000):
        device.write_sectors(int(lba), 8)
    device.flush()
    device.ftl.check_invariants()
    return device.ftl


class TestAuditCatchesFaults:
    """``check_invariants`` reads every mapped LPN, every block and
    every valid sector: each single corruption below must raise."""

    def test_l2p_p2l_mismatch_past_the_first_mapped_lpns(self, filled_ftl):
        ftl = filled_ftl
        l2p = ftl.mapping.l2p
        mapped = np.flatnonzero(l2p != UNMAPPED)
        assert mapped.size > 100_000
        lpn, other = int(mapped[-1]), int(mapped[-2])
        psa, other_psa = int(l2p[lpn]), int(l2p[other])
        l2p[lpn] = other_psa
        try:
            with pytest.raises(AssertionError, match=(
                    f"p2l mismatch: lpn {lpn} -> psa {other_psa} -> {other}$")):
                ftl.check_invariants()
        finally:
            l2p[lpn] = psa
        ftl.check_invariants()

    def test_block_valid_off_by_one(self, filled_ftl):
        ftl = filled_ftl
        block = int(np.flatnonzero(ftl.block_valid)[-1])
        ftl.block_valid[block] -= 1
        try:
            with pytest.raises(AssertionError,
                               match=f"block_valid drift: block {block} "):
                ftl.check_invariants()
        finally:
            ftl.block_valid[block] += 1
        ftl.check_invariants()

    def test_valid_sector_on_free_page(self, filled_ftl):
        ftl = filled_ftl
        spp = ftl.geometry.sectors_per_page
        page = int(np.flatnonzero(ftl.p2l != P2L_NONE)[-1]) // spp
        state = ftl.nand.page_state
        assert state[page] == 1
        state[page] = 0
        try:
            with pytest.raises(AssertionError,
                               match=f"valid sector on free page {page}$"):
                ftl.check_invariants()
        finally:
            state[page] = 1
        ftl.check_invariants()

    def test_audit_memory_does_not_grow_with_the_map(self, filled_ftl):
        ftl = filled_ftl
        assert ftl.p2l.nbytes >= 1 << 20
        tracemalloc.start()
        try:
            ftl.check_invariants()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= ftl.p2l.nbytes // 4, (
            f"audit peaked at {peak} B for a {ftl.p2l.nbytes} B p2l")
