"""Fast path vs reference mode: byte-identical results.

``fast_path=False`` on :class:`TimedSSD` / :class:`Ftl` /
``MappingTable`` forces the pre-refactor-shaped general code paths
(per-op ONFI re-encoding, allocating mapping results, full plane scans,
per-slot bookkeeping).  The throughput bench uses it as its baseline;
these tests pin that the two modes are observationally identical — op
streams, timelines, statistics, and every state array."""

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from repro.flash.timing import profile
from repro.obs.events import ResourceBusy
from repro.ssd.device import SimulatedSSD
from repro.ssd.ftl import Ftl
from repro.ssd.ops import OpReason
from repro.ssd.presets import evo840_like, mqsim_baseline, mx500_like, tiny
from repro.ssd.timed import BackgroundPolicy, BusTap, TimedSSD
from repro.workloads.engine import run_timed
from repro.workloads.patterns import Region
from repro.workloads.spec import JobSpec
from tests.helpers import ListSink


def _assert_same_state(fast: Ftl, ref: Ftl) -> None:
    np.testing.assert_array_equal(fast.mapping.l2p, ref.mapping.l2p)
    np.testing.assert_array_equal(fast.p2l, ref.p2l)
    np.testing.assert_array_equal(fast.sector_valid, ref.sector_valid)
    np.testing.assert_array_equal(fast.block_valid, ref.block_valid)
    np.testing.assert_array_equal(fast.nand.page_state, ref.nand.page_state)
    np.testing.assert_array_equal(fast.nand.page_lpn, ref.nand.page_lpn)
    np.testing.assert_array_equal(fast.nand.page_seq, ref.nand.page_seq)
    np.testing.assert_array_equal(fast.nand.block_erase_count,
                                  ref.nand.block_erase_count)
    np.testing.assert_array_equal(fast.nand.block_write_ptr,
                                  ref.nand.block_write_ptr)
    assert fast.nand.wear_summary() == ref.nand.wear_summary()
    assert fast.stats == ref.stats
    assert fast.mapping.stats == ref.mapping.stats
    assert fast.cache.hits == ref.cache.hits


def test_ftl_op_streams_identical_under_gc_churn():
    config = tiny()
    fast = Ftl(config)
    ref = Ftl(config, fast_path=False)
    rng = np.random.default_rng(23)
    num = config.logical_sectors
    for i in range(4_000):
        lpn = int(rng.integers(num))
        choice = i % 7
        if choice < 5:
            assert fast.write(lpn) == ref.write(lpn)
        elif choice == 5:
            assert fast.read(lpn) == ref.read(lpn)
        else:
            assert fast.trim(lpn) == ref.trim(lpn)
    assert fast.flush() == ref.flush()
    _assert_same_state(fast, ref)


@pytest.mark.parametrize("submission,kwargs", [
    ("closed", {"iodepth": 1}),
    ("closed", {"iodepth": 8}),
    ("open", {"rate_iops": 40_000.0}),
])
def test_timed_runs_identical(submission, kwargs):
    results = {}
    for fast in (True, False):
        config = mqsim_baseline()
        device = TimedSSD(config, fast_path=fast)
        job = JobSpec(name="j", rw="randwrite",
                      region=Region(0, config.logical_sectors),
                      io_count=3_000, bs_sectors=2, seed=11,
                      submission=submission, **kwargs)
        run = run_timed(device, [job])
        results[fast] = (run, device)

    run_fast, dev_fast = results[True]
    run_ref, dev_ref = results[False]
    np.testing.assert_array_equal(run_fast.jobs["j"].latencies_us,
                                  run_ref.jobs["j"].latencies_us)
    assert run_fast.elapsed_ns == run_ref.elapsed_ns
    assert dev_fast.completed == dev_ref.completed
    assert dev_fast.smart == dev_ref.smart
    _assert_same_state(dev_fast.ftl, dev_ref.ftl)


def test_single_job_engine_loop_matches_general_scheduler():
    # The single-job bulk-stepping loop is gated on device.fast_path;
    # flipping the flag after construction keeps the FTL fast lanes but
    # routes the same job through the general multi-job scheduler (and
    # the encoded op path) — results must be identical either way.
    runs = {}
    for fast in (True, False):
        config = tiny()
        device = TimedSSD(config, fast_path=True)
        device.fast_path = fast
        job = JobSpec(name="j", rw="write", region=Region(0, 600),
                      io_count=2_000, bs_sectors=1, iodepth=4, seed=3)
        runs[fast] = run_timed(device, [job])
    np.testing.assert_array_equal(runs[True].jobs["j"].latencies_us,
                                  runs[False].jobs["j"].latencies_us)
    assert runs[True].elapsed_ns == runs[False].elapsed_ns
    assert runs[True].smart_delta == runs[False].smart_delta


# ----------------------------------------------------------------------
# The fused scheduling pass against the per-op encoded reference
# ----------------------------------------------------------------------

def _timeline(device: TimedSSD) -> dict[str, tuple[int, int, int]]:
    return {name: (r.free_at, r.busy_ns, r.holds)
            for name, r in device.kernel.resources.items()}


def _assert_same_device(fast: TimedSSD, ref: TimedSSD) -> None:
    assert fast.completed == ref.completed
    assert fast.smart == ref.smart
    assert _timeline(fast) == _timeline(ref)
    assert fast._cache_pool.occupied == ref._cache_pool.occupied
    assert fast._cache_pool.pending_releases == ref._cache_pool.pending_releases
    assert fast.now == ref.now
    _assert_same_state(fast.ftl, ref.ftl)


def _job(rw: str, config, io_count: int, **kwargs) -> JobSpec:
    return JobSpec(name=rw, rw=rw, region=Region(0, config.logical_sectors),
                   io_count=io_count, **kwargs)


def _chunked_reads(device: TimedSSD) -> None:
    # Random reads over a demand-loaded chunked map: every chunk miss is
    # a META read ahead of the data read.
    config = device.config
    run_timed(device, [_job("randwrite", config, 1_500, bs_sectors=8, seed=5)])
    device.flush()
    device.quiesce()
    loads = device.ftl.mapping.stats.chunk_loads
    run_timed(device, [_job("randread", config, 1_200, bs_sectors=1,
                            iodepth=4, seed=6)])
    assert device.ftl.mapping.stats.chunk_loads - loads > 100
    assert device.smart.read_pages > 1_000


def _pslc_writes(device: TimedSSD) -> None:
    # Writes land in the pSLC buffer (PSLC programs at pSLC speed); the
    # buffer fills and drains into the TLC array, erasing its blocks.
    run_timed(device, [_job("randwrite", device.config, 3_000, bs_sectors=2,
                            iodepth=2, seed=7)])
    assert device.smart.pslc_program_pages > 500
    assert device.smart.erase_count > 0


def _every_call_site(device: TimedSSD) -> None:
    # submit (write/read/trim under GC churn), flush, idle, shutdown.
    rng = np.random.default_rng(8)
    n = device.num_sectors
    for i in range(2_500):
        roll = rng.random()
        kind = "write" if roll < 0.6 else "read" if roll < 0.9 else "trim"
        device.submit(kind, int(rng.integers(n - 4)), int(rng.integers(1, 5)),
                      at_ns=device.now + int(rng.integers(50_000)))
        if i % 600 == 599:
            device.flush()
            device.now = device.idle(max_blocks=2)
    device.shutdown()
    assert device.smart.gc_program_pages > 0
    assert device.smart.meta_program_pages > 0


def _background_maintenance(device: TimedSSD) -> None:
    # Bursts separated by host-idle gaps the maintenance process fills.
    device.enable_background_maintenance(BackgroundPolicy(
        idle_threshold_ns=1_000_000, check_interval_ns=1_000_000,
        max_blocks=2))
    rng = np.random.default_rng(9)
    n = device.num_sectors
    for _ in range(6):
        for _ in range(300):
            device.submit("write", int(rng.integers(n)), 1, at_ns=device.now)
        invocations = device.ftl.stats.gc_invocations
        device.submit("read", int(rng.integers(n)), 1,
                      at_ns=device.kernel.horizon() + 40_000_000)
    assert device.ftl.stats.gc_invocations > invocations  # ran in the last gap
    device.quiesce()


@pytest.mark.parametrize("make_config,drive", [
    (evo840_like, _chunked_reads),
    (evo840_like, _pslc_writes),
    (tiny, _every_call_site),
    (tiny, _background_maintenance),
], ids=lambda arg: arg.__name__.lstrip("_"))
def test_fused_scheduling_matches_encoded_reference(make_config, drive):
    devices, sinks = [], []
    for fast in (True, False):
        device = TimedSSD(make_config(), fast_path=fast)
        sink = ListSink()
        device.attach_sink(sink)
        drive(device)
        devices.append(device)
        sinks.append(sink)
    _assert_same_device(*devices)
    assert sinks[0].events == sinks[1].events
    assert any(isinstance(e, ResourceBusy) for e in sinks[0].events)


def test_fused_scheduling_matches_reference_without_a_sink():
    devices = []
    for fast in (True, False):
        device = TimedSSD(tiny(), fast_path=fast)
        _every_call_site(device)
        devices.append(device)
    _assert_same_device(*devices)


def test_bus_tap_still_sees_every_cycle():
    # The tap needs the real ONFI cycle list, so it forces the encoded
    # path; the digest below was taken at the commit before the fused
    # pass existed.
    config = tiny()
    tapped = TimedSSD(config, bus_tap=BusTap(
        config.geometry, profile(config.timing_name), channel=1))
    plain = TimedSSD(config)
    for device in (tapped, plain):
        _every_call_site(device)
    _assert_same_device(plain, tapped)
    trace = tapped.bus_tap.trace
    assert (len(trace.segments), len(trace.busy)) == (32_612, 4_165)
    digest = hashlib.sha256(repr(
        ([(s.t0, s.t1, s.cle, s.ale, s.dq, s.strobes, s.reading)
          for s in trace.segments],
         [(b.t0, b.t1) for b in trace.busy], trace.t_end)).encode())
    assert digest.hexdigest() == (
        "3ddde0de63b7366ea6a84c21bfd14805f88dd2c160640fa30de1185799e4b106")


# ----------------------------------------------------------------------
# The page-granular write path against digests taken before it existed
# ----------------------------------------------------------------------

class _Recorder:
    """Hashes every op list a counter-mode device returns, in order."""

    def __init__(self, device: SimulatedSSD) -> None:
        self.device = device
        self.digest = hashlib.sha256()

    def __call__(self, ops) -> None:
        self.digest.update(repr(
            [(kind.value, target, reason.value, nbytes)
             for kind, target, reason, nbytes in ops]).encode())

    def write(self, lba: int, count: int = 1) -> None:
        self(self.device.write_sectors(lba, count))

    def hexdigest(self) -> str:
        ftl = self.device.ftl
        final = self.digest.copy()
        for array in (ftl.p2l, ftl.sector_valid, ftl.block_valid,
                      ftl.mapping.l2p):
            final.update(array.tobytes())
        final.update(repr(self.device.smart).encode())
        return final.hexdigest()


def _fig4b_mix_into_gc(rec: _Recorder) -> None:
    # perfbench's waf_mix_counter in small: three regions filled, aged,
    # then written concurrently with 1-, 2- and 8-sector requests.
    device = rec.device
    n = device.num_sectors
    regions = ((0, n // 3), (n // 3, n // 12), (n // 3 + n // 12, n // 48))
    for start, length in regions:
        for lba in range(start, start + length - 7, 8):
            rec.write(lba, 8)
    rng = np.random.default_rng(14)
    span = regions[-1][0] + regions[-1][1]
    for _ in range(12_000):
        rec.write(int(rng.integers(span - 8)), 8)
    for _ in range(2_000):
        for (start, length), bs in zip(regions, (1, 2, 8)):
            rec.write(start + int(rng.integers(length - bs + 1)), bs)
    stats = device.ftl.stats
    assert stats.gc_invocations > 50 and stats.cache_absorbed > 0
    assert device.ftl.mapping.stats.tp_flushes > 0
    assert device.ftl.rain.parity_pages > 0


def _pslc_fill_drain_overwrite(rec: _Recorder) -> None:
    # Fill through the pSLC buffer (it drains as it goes), then overwrite
    # at random: GC now migrates main-area sectors whose LPN also has a
    # pSLC-resident copy, which is when a page program reaches the
    # supersede check (a few hundred times here).
    device = rec.device
    span = device.num_sectors * 8 // 10
    for lba in range(0, span - 3, 4):
        rec.write(lba, 4)
    rng = np.random.default_rng(15)
    for _ in range(2_000):
        rec.write(int(rng.integers(span - 4)), int(rng.integers(1, 5)))
    rec(device.flush())
    stats = device.ftl.stats
    assert stats.pslc_staged_sectors > 10_000 and stats.pslc_drains > 200
    assert stats.gc_invocations > 1_000


def _meta_flush_gc_mid_page(rec: _Recorder) -> None:
    # Mapping-designated cache with two dirty-TP slots: most pages
    # evict a TP, and the meta program that follows runs foreground GC
    # (about 400 times here) — the reason a page's mapping events are
    # applied only after all its old copies are invalidated.
    device = rec.device
    span = device.num_sectors * 7 // 10
    for lba in range(0, span - 3, 4):
        rec.write(lba, 4)
    rng = np.random.default_rng(16)
    for _ in range(800):
        rec.write(int(rng.integers(span - 4)), int(rng.integers(1, 5)))
    rec(device.shutdown())
    assert device.ftl.mapping.stats.eviction_flushes > 1_000
    assert device.ftl.stats.gc_invocations > 10_000


def _bypass_admission(rec: _Recorder) -> None:
    device = rec.device
    rng = np.random.default_rng(17)
    n = device.num_sectors
    for _ in range(3_000):
        rec.write(int(rng.integers(n - 3)), int(rng.integers(1, 4)))
    rec(device.flush())
    assert device.ftl.cache.insertions == 0
    assert device.ftl.stats.gc_invocations > 0


def _duplicate_lpns_in_one_page(rec: _Recorder) -> None:
    device = rec.device
    ftl = device.ftl
    for lba in range(0, 64, 4):
        rec.write(lba, 4)
    rec(device.flush())
    ftl._ops = []
    ftl._program_data_page([7, 7, 9], stream="host", reason=OpReason.HOST)
    ftl._program_data_page([9, 3, 9, 3], stream="gc", reason=OpReason.GC,
                           silent_map=True)
    rec(ftl._ops)
    ftl.check_invariants()


def _stale_and_disowned_old_copies(rec: _Recorder) -> None:
    # The two states the ownership rule guards against, made by hand
    # (no host workload reaches them since mapping events are deferred):
    # a map entry whose sector now belongs to another LPN, and one whose
    # sector is already invalid but still carries the LPN.
    device = rec.device
    ftl = device.ftl
    for lba in range(0, 64, 4):
        rec.write(lba, 4)
    rec(device.flush())
    ftl.mapping.silent_update(5, int(ftl.mapping.l2p[20]))
    disowned = int(ftl.mapping.l2p[6])
    ftl.sector_valid[disowned] = False
    ftl.block_valid[disowned // (4 * ftl.geometry.pages_per_block)] -= 1
    ftl._ops = []
    ftl._program_data_page([5, 6], stream="host", reason=OpReason.HOST)
    ftl._program_data_page([5, 6], stream="gc", reason=OpReason.GC,
                           silent_map=True)
    rec(ftl._ops)
    assert ftl.sector_valid[ftl.mapping.l2p[20]]


def _trims_interleaved(rec: _Recorder) -> None:
    device = rec.device
    rng = np.random.default_rng(18)
    n = device.num_sectors
    for i in range(4_000):
        lba, count = int(rng.integers(n - 4)), int(rng.integers(1, 5))
        if i % 5 == 4:
            rec(device.trim_sectors(lba, count))
        else:
            rec.write(lba, count)
    rec(device.flush())
    assert device.ftl.stats.trimmed_sectors > 0
    assert device.ftl.stats.gc_invocations > 0


def _four_sector_pages(config, **changes):
    geometry = replace(config.geometry,
                       page_size=4 * config.geometry.sector_size)
    return config.with_changes(geometry=geometry, **changes)


_PAGE_PATH_PINS = [
    (lambda: mx500_like(scale=2), _fig4b_mix_into_gc,
     "4f282a2fc0039d258a594ee03979c299051c252dca6ee181a1048e9b8905e56c"),
    (lambda: evo840_like(scale=4), _pslc_fill_drain_overwrite,
     "b519574fbb9a3b631f9624f6871a4c3b25449de333476535a5375f3ddc235dfb"),
    (lambda: _four_sector_pages(tiny(), cache_designation="mapping",
                                cache_sectors=4, mapping_dirty_tp_limit=1,
                                mapping_tp_lpns=16),
     _meta_flush_gc_mid_page,
     "07eebf991b139d1f220faa913f59750df98529dc90665d988bcfbb0efef7d9cb"),
    (lambda: _four_sector_pages(tiny(), cache_admission="bypass"),
     _bypass_admission,
     "a3713280eabc8022a5b8351200df1e905ee66d148df8c53a49eced922ef91edc"),
    (lambda: _four_sector_pages(tiny()), _duplicate_lpns_in_one_page,
     "daee71fb57d81882a57916514f0ce9f19354c8d41916924d60c72e89f9139744"),
    (lambda: _four_sector_pages(tiny()), _stale_and_disowned_old_copies,
     "a2708428b302fa2d785f02928a456cc244d5521deaf912835a185df4e1670fc0"),
    (lambda: _four_sector_pages(tiny()), _trims_interleaved,
     "d2db2861b72207543cacf0b66d7a6eac68fa5e17302cb647772f13b163bd47c4"),
]


@pytest.mark.parametrize("make_config,drive,pin", _PAGE_PATH_PINS,
                         ids=[drive.__name__.lstrip("_")
                              for _, drive, _ in _PAGE_PATH_PINS])
def test_page_granular_write_path_matches_per_sector_pins(make_config, drive,
                                                          pin):
    # Each pin is the SHA-256 of (every op list returned, p2l,
    # sector_valid, block_valid, l2p, SMART) taken at the commit before
    # the write path committed, admitted and invalidated per page.
    rec = _Recorder(SimulatedSSD(make_config()))
    drive(rec)
    rec.device.ftl.check_invariants()
    assert rec.hexdigest() == pin
