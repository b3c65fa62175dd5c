"""The one op path, pinned against the reference it replaced.

Until the twin paths were collapsed, ``fast_path=False`` on
:class:`TimedSSD` / :class:`Ftl` / ``MappingTable`` selected a second,
general-shaped implementation of every hot path (per-op ONFI
re-encoding, allocating mapping results, full plane scans, per-slot GC
bookkeeping, the general engine scheduler), and these tests ran both
and compared them.  The reference is gone; each test still runs the
same driver and hashes exactly the quantities it used to compare — op
streams, timelines, statistics, every state array, every trace event —
against a SHA-256 **taken from the ``fast_path=False`` side at the last
commit that had one** (where it equalled the fast side)."""

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from repro.faults import FaultPlan, FaultSpec, PlannedFaultInjector
from repro.flash.errors import FailureInjector, ReliabilityModel
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
from tests.helpers import ListSink, record_ops, record_requests


def _digest(*parts) -> str:
    """SHA-256 over *parts*: bytes as they are, anything else by repr."""
    sha = hashlib.sha256()
    for part in parts:
        sha.update(part if isinstance(part, bytes) else repr(part).encode())
    return sha.hexdigest()


def _ops(op_lists) -> list:
    return [[(kind.value, int(target), reason.value, int(nbytes))
             for kind, target, reason, nbytes in ops] for ops in op_lists]


def _state(ftl: Ftl) -> list:
    """The nine arrays and four statistics that define an FTL's state."""
    nand = ftl.nand
    arrays = (ftl.mapping.l2p, ftl.p2l, ftl.sector_valid, ftl.block_valid,
              nand.page_state, nand.page_lpn, nand.page_seq,
              nand.block_erase_count, nand.block_write_ptr)
    return [array.tobytes() for array in arrays] + [
        nand.wear_summary(), ftl.stats, ftl.mapping.stats, ftl.cache.hits]


def test_ftl_op_streams_identical_under_gc_churn():
    config = tiny()
    ftl = Ftl(config)
    rng = np.random.default_rng(23)
    num = config.logical_sectors
    returned = []
    for i in range(4_000):
        lpn = int(rng.integers(num))
        choice = i % 7
        if choice < 5:
            returned.append(ftl.write(lpn))
        elif choice == 5:
            returned.append(ftl.read(lpn))
        else:
            returned.append(ftl.trim(lpn))
    returned.append(ftl.flush())
    assert ftl.stats.gc_invocations > 0
    assert _digest(_ops(returned), *_state(ftl)) == (
        "075f72e857a26e4fea33fd380765b694977c626c830e3ac59000897a9a9301c8")


@pytest.mark.parametrize("submission,kwargs,pin", [
    ("closed", {"iodepth": 1},
     "4fc026dd098b8e617f4f64fb8b525b97947ad1f206c4e5e7d4ac6004c7ab0a3d"),
    ("closed", {"iodepth": 8},
     "9eaa20c4a6e73ceedbe0ccacbda17acd6af62748b4ae86fd24af5cd4a2868f12"),
    ("open", {"rate_iops": 40_000.0},
     "567c8c144c36cc344a9fa7541c9ed399ea2e0d0790681b3213f50e6cceed1857"),
], ids=["closed-kwargs0", "closed-kwargs1", "open-kwargs2"])
def test_timed_runs_identical(submission, kwargs, pin):
    config = mqsim_baseline()
    device = TimedSSD(config)
    requests = record_requests(device)
    job = JobSpec(name="j", rw="randwrite",
                  region=Region(0, config.logical_sectors),
                  io_count=3_000, bs_sectors=2, seed=11,
                  submission=submission, **kwargs)
    run = run_timed(device, [job])
    assert _digest(run.jobs["j"].latencies_us.tobytes(), run.elapsed_ns,
                   requests, device.smart,
                   *_state(device.ftl)) == pin


def test_single_job_engine_loop_matches_general_scheduler():
    # Pinned from the general multi-job scheduler running this one job,
    # back when a single job on a fast-path device took its own loop.
    device = TimedSSD(tiny())
    job = JobSpec(name="j", rw="write", region=Region(0, 600),
                  io_count=2_000, bs_sectors=1, iodepth=4, seed=3)
    run = run_timed(device, [job])
    assert _digest(run.jobs["j"].latencies_us.tobytes(), run.elapsed_ns,
                   run.smart_delta) == (
        "c870746e439303cd918ef18faac4373cd610a5aad25368a978d02e63279bebb3")


# ----------------------------------------------------------------------
# The fused scheduling pass against the per-op encoded reference
# ----------------------------------------------------------------------

def _device(device: TimedSSD, requests: list) -> list:
    """Everything a timed device ends a drive with: the requests it
    completed (as :func:`record_requests` saw them), SMART, every
    resource timeline, the cache pool, the clock, the FTL."""
    timeline = {name: (r.free_at, r.busy_ns, r.holds)
                for name, r in device.kernel.resources.items()}
    return [requests, device.smart, timeline,
            device._cache_pool.occupied, device._cache_pool.pending_releases,
            device.now, *_state(device.ftl)]


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


@pytest.mark.parametrize("make_config,drive,pin", [
    (evo840_like, _chunked_reads,
     "ef7ba12a3738b665df76c6e56dedea6cb628d0a614ab4f51d665b8420558bfef"),
    (evo840_like, _pslc_writes,
     "58e1a8c57ffae7c6e293b37f379a442e130548312aed88f1b1bccf77233da039"),
    (tiny, _every_call_site,
     "139e89bc42a28e3058c9f155867606fd9d75b5d07eb794b79609082de7e6cb75"),
    (tiny, _background_maintenance,
     "8cafc55aa14d4060267b6ba64b3a0270d2efaff5b465e142be880cb19ef7b2f4"),
], ids=["evo840_like-chunked_reads", "evo840_like-pslc_writes",
        "tiny-every_call_site", "tiny-background_maintenance"])
def test_fused_scheduling_matches_encoded_reference(make_config, drive, pin):
    # The reference emitted its resource_busy events from Resource.hold;
    # the full event sequence is part of the pin.
    device = TimedSSD(make_config())
    requests = record_requests(device)
    sink = ListSink()
    device.attach_sink(sink)
    drive(device)
    assert any(isinstance(e, ResourceBusy) for e in sink.events)
    assert _digest(*_device(device, requests), sink.events) == pin


def test_fused_scheduling_matches_reference_without_a_sink():
    device = TimedSSD(tiny())
    requests = record_requests(device)
    _every_call_site(device)
    assert _digest(*_device(device, requests)) == (
        "8adea08bb4a55d7a9d49557307aabd3d45c2a78b25599bc946a9321133bd8f88")


def test_bus_tap_still_sees_every_cycle():
    # A tapped device takes the same scheduling pass as an untapped one
    # and ends in the same state; the digest below was taken at the
    # commit before the fused pass existed.
    config = tiny()
    tapped = TimedSSD(config, bus_tap=BusTap(
        config.geometry, profile(config.timing_name), channel=1))
    plain = TimedSSD(config)
    ends = []
    for device in (tapped, plain):
        requests = record_requests(device)
        _every_call_site(device)
        ends.append(_device(device, requests))
    assert ends[0] == ends[1]
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
    """Hashes the op list of every host command a counter-mode device
    runs (and every op list handed to it directly), in order."""

    def __init__(self, device: TimedSSD) -> None:
        self.device = device
        self.commands = record_ops(device)
        self.digest = hashlib.sha256()

    def __call__(self, ops) -> None:
        self.digest.update(repr(
            [(kind.value, target, reason.value, nbytes)
             for kind, target, reason, nbytes in ops]).encode())

    def command(self, name: str, *args) -> None:
        getattr(self.device, name)(*args)
        self(self.commands[-1])

    def write(self, lba: int, count: int = 1) -> None:
        self.command("write_sectors", lba, count)

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
    rec.command("flush")
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
    rec.command("shutdown")
    assert device.ftl.mapping.stats.eviction_flushes > 1_000
    assert device.ftl.stats.gc_invocations > 10_000


def _bypass_admission(rec: _Recorder) -> None:
    device = rec.device
    rng = np.random.default_rng(17)
    n = device.num_sectors
    for _ in range(3_000):
        rec.write(int(rng.integers(n - 3)), int(rng.integers(1, 4)))
    rec.command("flush")
    assert device.ftl.cache.insertions == 0
    assert device.ftl.stats.gc_invocations > 0


def _duplicate_lpns_in_one_page(rec: _Recorder) -> None:
    device = rec.device
    ftl = device.ftl
    for lba in range(0, 64, 4):
        rec.write(lba, 4)
    rec.command("flush")
    ftl._ops = []
    ftl._program_data_page([7, 7, 9], stream="host", reason=OpReason.HOST)
    ftl._migrate_sectors([9, 3, 9, 3], OpReason.GC)
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
    rec.command("flush")
    ftl.mapping.silent_update(5, int(ftl.mapping.l2p[20]))
    disowned = int(ftl.mapping.l2p[6])
    ftl.sector_valid[disowned] = False
    ftl.block_valid[disowned // (4 * ftl.geometry.pages_per_block)] -= 1
    ftl._ops = []
    ftl._program_data_page([5, 6], stream="host", reason=OpReason.HOST)
    ftl._migrate_sectors([5, 6], OpReason.GC)
    rec(ftl._ops)
    assert ftl.sector_valid[ftl.mapping.l2p[20]]


def _trims_interleaved(rec: _Recorder) -> None:
    device = rec.device
    rng = np.random.default_rng(18)
    n = device.num_sectors
    for i in range(4_000):
        lba, count = int(rng.integers(n - 4)), int(rng.integers(1, 5))
        if i % 5 == 4:
            rec.command("trim_sectors", lba, count)
        else:
            rec.write(lba, count)
    rec.command("flush")
    assert device.ftl.stats.trimmed_sectors > 0
    assert device.ftl.stats.gc_invocations > 0


def _program_fails_during_gc(rec: _Recorder) -> None:
    # A RAIN device whose programs fail at random: a failing page in the
    # middle of a victim retires its block (which may hold the victim's
    # earlier pages, so they migrate again), and 15+1 stripes close in
    # the middle of victims. Fill half the device, then overwrite it.
    device = rec.device
    ftl = device.ftl
    injector = ftl.injector = FailureInjector(seed=4, program_fail_prob=7e-4)
    depth = failures_in_migration = 0
    migrate, fails = ftl._migrate_block_contents, injector.program_fails

    def migrating(*args, **kwargs):
        nonlocal depth
        depth += 1
        try:
            return migrate(*args, **kwargs)
        finally:
            depth -= 1

    def counted(ppn):
        nonlocal failures_in_migration
        failed = fails(ppn)
        failures_in_migration += failed and depth > 0
        return failed

    ftl._migrate_block_contents = migrating
    injector.program_fails = counted
    span = device.num_sectors // 2 // 8 * 8
    for lba in range(0, span, 8):
        rec.write(lba, 8)
    rng = np.random.default_rng(21)
    for _ in range(20_000):
        rec.write(int(rng.integers(span // 8)) * 8, 8)
    rec.command("flush")
    assert failures_in_migration >= 5
    assert ftl.stats.blocks_retired == injector.program_failures > 20


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
    (lambda: mx500_like(scale=2), _program_fails_during_gc,
     "b6b57dc67c023b62c9dd01b578c857047748d80798fd68d95003e0210efe0c93"),
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


# ----------------------------------------------------------------------
# The host read path's integrity checks against a digest taken before
# reads ran on plain ints
# ----------------------------------------------------------------------

#: flash whose cold data rots out of the ECC budget in ~5 simulated days.
_FRAGILE = ReliabilityModel(base_rber=1e-7, rated_cycles=200,
                            retention_rber_per_day=1e-3, ecc_correctable=40)


def _integrity_reads(sink) -> tuple[TimedSSD, PlannedFaultInjector, list]:
    # A chunked map (two resident chunks), a pSLC buffer, the retention
    # model with a two-step retry ladder, RAIN, and two uncorrectable-read
    # fault sources. The probabilistic one draws a variate on every call
    # of the read hook, so the firing log pins how often reads call it.
    config = tiny().with_changes(
        mapping_chunk_lpns=128, mapping_resident_chunks=2, ops_per_day=100,
        read_retry_steps=2, rain_stripe=4, pslc_blocks=2)
    injector = PlannedFaultInjector(FaultPlan(seed=19, specs=(
        FaultSpec("uncorrectable_read", probability=0.02, count=0),
        FaultSpec("uncorrectable_read", lpns=(40, 80), count=6),
    )), config.geometry)
    device = SimulatedSSD(config, injector=injector)
    device.ftl.reliability = _FRAGILE
    if sink is not None:
        device.attach_sink(sink)
    rng = np.random.default_rng(20)
    n = device.num_sectors
    returned = record_ops(device)
    for lba in range(0, n - 3, 4):
        device.write_sectors(lba, 4)
    device.flush()
    for i in range(3_000):
        lba, count = int(rng.integers(n - 4)), int(rng.integers(1, 5))
        if i % 6 == 5:
            device.write_sectors(lba, count)
        else:
            device.read_sectors(lba, count)
    return device, injector, returned


def test_read_integrity_path_matches_pin():
    # Pinned at the commit before Ftl.read, the resident-chunk lookup and
    # the integrity-check gate were rewritten: every op list returned,
    # FtlStats, the injector's firing log, p2l / sector_valid / l2p and
    # SMART, untraced; then the same drive traced, with every event.
    plain, injector, returned = _integrity_reads(None)
    sink = ListSink()
    _, traced_injector, traced_returned = _integrity_reads(sink)
    assert _ops(traced_returned) == _ops(returned)
    assert traced_injector.log == injector.log
    ftl = plain.ftl
    stats = ftl.stats
    assert stats.read_retries > 0 and stats.rain_reconstructions > 0
    assert stats.uncorrectable_reads > 0
    assert ftl.mapping.stats.chunk_loads > 1_000
    assert _digest(_ops(returned), stats, injector.log, ftl.p2l.tobytes(),
                   ftl.sector_valid.tobytes(), ftl.mapping.l2p.tobytes(),
                   plain.smart, sink.events) == (
        "eb9455ff7860c11b58d82a48883ec065e74fa6a7c4f3b7baa615e9ca46ff51ce")
