"""The batched migration pass against the per-page loop it replaced.

Two FTLs are built alike and driven alike; one migrates through
``Ftl._migrate_sectors``, the other through
:func:`tests.helpers.migrate_per_page`, which commits every page before
allocating the next.  Program failures (a retirement mid-victim), RAIN
stripes closing mid-victim, pSLC-resident copies, GC / wear-levelling /
refresh victims, relocations and runs with repeated LPNs must leave both
in the same state, having returned the same ops and emitted the same
events."""

from functools import partial

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.flash.errors import FailureInjector
from repro.ssd.allocation import OutOfSpace
from repro.ssd.ftl import Ftl, ReadOnlyError
from repro.ssd.mapping import UNMAPPED
from repro.ssd.ops import OpReason
from repro.ssd.presets import tiny
from tests.helpers import ListSink, migrate_per_page


def _config(rain_stripe: int, pslc: bool):
    return tiny().with_changes(
        rain_stripe=rain_stripe, pslc_blocks=2 if pslc else 0,
        wear_leveling=True, wear_leveling_delta=2, refresh_after_ops=400)


def _state(ftl: Ftl) -> tuple:
    nand, allocator, rain, pslc = ftl.nand, ftl.allocator, ftl.rain, ftl.pslc
    arrays = (ftl.mapping.l2p, ftl.p2l, ftl.sector_valid, ftl.block_valid,
              ftl.block_birth, nand.page_state, nand.page_lpn, nand.page_seq,
              nand.block_erase_count, nand.block_write_ptr, nand.page_oob,
              nand.page_oob_len)
    return (
        [array.tobytes() for array in arrays],
        nand.counters, nand.wear_summary(),
        rain._stripe_of, rain._open_members, rain._pending, rain._fill,
        rain.parity_pages, rain.data_pages,
        allocator._free_blocks, allocator._stream_counters,
        {key: (a.block_index, a.next_page)
         for key, a in allocator._active.items()},
        allocator._retired, allocator._sealed, allocator.block_alloc_seq,
        allocator.planes_at_watermark,
        pslc.index, pslc._cursor,
        ftl.stats, ftl.mapping.stats, ftl.injector.program_failures,
    )


def _drive(ftl: Ftl, seed: int, steps: int, repeats: list) -> list:
    """Host writes, trims and reads with idle maintenance every 150
    steps; every 100 steps a relocation, and the runs in *repeats*
    migrated outright (LPNs taken modulo the mapped ones).  Returns
    what every call returned, an exception ending the drive."""
    rng = np.random.default_rng(seed)
    n = ftl.num_lpns
    out = []
    try:
        for step in range(steps):
            lpn = int(rng.integers(n - 2))
            roll = rng.random()
            if roll < 0.8:
                out.append(ftl.write(lpn, int(rng.integers(1, 3))))
            elif roll < 0.9:
                out.append(ftl.trim(lpn))
            else:
                out.append(ftl.read(lpn, 2))
            if step % 150 == 149:
                out.append(ftl.idle_maintenance(max_blocks=4))
            if step % 100 == 99:
                mapped = np.flatnonzero(ftl.mapping.l2p != UNMAPPED).tolist()
                if not mapped:
                    continue
                ftl._ops = []
                ftl._relocate_sector(mapped[step % len(mapped)])
                if repeats:
                    run = [mapped[i % len(mapped)] for i in repeats]
                    ftl._in_gc = True
                    try:
                        ftl._migrate_sectors(run, OpReason.GC)
                    finally:
                        ftl._in_gc = False
                out.append(ftl._ops)
        out.append(ftl.flush())
    except (OutOfSpace, ReadOnlyError) as exc:  # must match on both
        out.append(repr(exc))
    return out


def _twins(config, seed: int, fail_prob: float, traced: bool):
    twins = []
    for _ in range(2):
        ftl = Ftl(config, injector=FailureInjector(
            seed=seed, program_fail_prob=fail_prob))
        if traced:
            ftl.attach_sink(ListSink())
        twins.append(ftl)
    batched, reference = twins
    reference._migrate_sectors = partial(migrate_per_page, reference)
    return batched, reference


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**16),
       fail_prob=st.sampled_from([0.0, 0.004, 0.012]),
       rain_stripe=st.sampled_from([0, 2, 3, 5]),
       pslc=st.booleans(), traced=st.booleans(),
       repeats=st.lists(st.integers(0, 5), max_size=6))
@example(seed=7, fail_prob=0.012, rain_stripe=3, pslc=True, traced=True,
         repeats=[0, 1, 0, 1])
# Retires a block holding the run's earlier pages: fails if the pass
# commits after the retirement instead of before it.
@example(seed=0, fail_prob=0.004, rain_stripe=0, pslc=False, traced=False,
         repeats=[])
def test_batched_migration_matches_per_page_loop(seed, fail_prob, rain_stripe,
                                                 pslc, traced, repeats):
    batched, reference = _twins(_config(rain_stripe, pslc), seed, fail_prob,
                                traced)
    returned = [_drive(ftl, seed, 1_200, repeats)
                for ftl in (batched, reference)]
    assert returned[0] == returned[1]
    assert _state(batched) == _state(reference)
    if traced:
        assert batched.obs.events == reference.obs.events
    if not isinstance(returned[0][-1], str):
        batched.check_invariants()


def test_differential_drive_reaches_every_commit_point():
    # The drive the property test samples does reach what it is meant to:
    # program failures and parity programs inside a migration, every
    # maintenance reason, superseded pSLC copies.
    config = _config(rain_stripe=3, pslc=True)
    batched, reference = _twins(config, seed=7, fail_prob=0.012, traced=False)
    inside = {"failures": 0, "parities": 0, "pslc": 0}
    for ftl in (batched, reference):
        depth = 0
        migrate = ftl._migrate_sectors
        fails, parity = ftl.injector.program_fails, ftl._program_parity_page

        def migrating(*args, migrate=migrate, ftl=ftl):
            # Nothing stages into the pSLC buffer during a migration, so
            # an index that shrinks across one lost superseded copies.
            nonlocal depth
            depth += 1
            buffered = len(ftl.pslc.index)
            try:
                return migrate(*args)
            finally:
                depth -= 1
                if ftl is batched:
                    inside["pslc"] += buffered - len(ftl.pslc.index)

        def failing(ppn, fails=fails, ftl=ftl):
            failed = fails(ppn)
            if ftl is batched:
                inside["failures"] += bool(failed and depth)
            return failed

        def programming_parity(parity=parity, ftl=ftl):
            if ftl is batched:
                inside["parities"] += bool(depth)
            return parity()

        ftl._migrate_sectors = migrating
        ftl.injector.program_fails = failing
        ftl._program_parity_page = programming_parity
    returned = [_drive(ftl, 7, 1_200, [0, 1, 0, 1])
                for ftl in (batched, reference)]
    assert returned[0] == returned[1]
    assert _state(batched) == _state(reference)
    reasons = {op.reason for ops in returned[0] if not isinstance(ops, str)
               for op in ops}
    assert {OpReason.GC, OpReason.WEAR, OpReason.REFRESH,
            OpReason.PARITY, OpReason.PSLC} <= reasons
    assert inside["failures"] >= 3 and inside["parities"] >= 20
    assert inside["pslc"] > 0
    assert batched.stats.relocated_sectors > 0


def test_parity_failure_mid_run_sees_the_committed_pages():
    # Relocate a sector whose old copy sits in the host stream's open
    # block, with the relocated page closing a RAIN stripe and the parity
    # program failing in that very block: the retirement migrates the
    # block, and must find the old copy already superseded.
    returned, states = [], []
    for ftl in _twins(_config(rain_stripe=2, pslc=False), seed=0,
                      fail_prob=0.0, traced=False):
        allocator, rain, ppb, spp = ftl.allocator, ftl.rain, ftl._ppb, ftl._spp
        lpn, ops = 0, []
        while True:  # no flush(): it would close the stripe
            ops.append(ftl.write(lpn % (ftl.num_lpns - spp), spp))
            lpn += 2 * spp + 1
            plane = allocator.plane_for_index(allocator._stream_counters["host"])
            active = allocator._active.get((plane, "host"))
            if rain._fill != 1 or active is None or active.next_page >= ppb:
                continue
            block = active.block_index
            window = slice(block * ppb * spp, (block + 1) * ppb * spp)
            live = np.flatnonzero(ftl.sector_valid[window])
            if len(live):
                break
        victim = int(ftl.p2l[window][live[0]])
        ftl.injector.force_program_failure(block * ppb + active.next_page)
        ftl._ops = []
        ftl._relocate_sector(victim)
        ops.append(ftl._ops)
        assert ftl.stats.blocks_retired == 1
        assert block in allocator.retired_blocks
        ftl.check_invariants()
        returned.append(ops)
        states.append(_state(ftl))
    assert returned[0] == returned[1]
    assert states[0] == states[1]
