"""The simulator's SHA-256 pins, checked against ``pins.json``.

Each test runs one fixed drive — FTL op streams under GC churn, timed
runs, the fused scheduling pass, the bus tap, the page-granular write
path, the host read path's integrity checks — and hashes exactly the
quantities that define its outcome: op streams, timelines, statistics,
every state array, every trace event.  :func:`check_pin` holds the
digest and a readable summary of the same run (program pages, erases,
WAF, requests, p50/p99, event counts) to the test's entry in
``pins.json``, keyed by the test's name without ``test_``.

A failure names what moved: the summary is compared first, so pytest's
dict diff lists each field that changed; a digest that moves while
every summary field holds says so.  Either way the message carries the
replacement entry, which a change that moves a value on purpose pastes
into ``pins.json`` and explains in CHANGES.md.
"""

import hashlib
import json
from collections import Counter
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.stats import summarize_latencies
from repro.faults import FaultPlan, FaultSpec, PlannedFaultInjector
from repro.flash.errors import FailureInjector, ReliabilityModel
from repro.flash.timing import profile
from repro.obs.events import ResourceBusy
from repro.ssd.device import SimulatedSSD
from repro.ssd.ftl import P2L_NONE, Ftl
from repro.ssd.ops import OpReason
from repro.ssd.presets import evo840_like, mqsim_baseline, mx500_like, tiny
from repro.ssd.timed import BackgroundPolicy, BusTap, TimedSSD
from repro.workloads.engine import run_timed
from repro.workloads.patterns import Region
from repro.workloads.spec import JobSpec
from tests.helpers import ListSink, oob_stamp, record_ops, record_requests

PINS = Path(__file__).with_name("pins.json")


def _digest(*parts) -> str:
    """SHA-256 over *parts*: bytes as they are, anything else by repr."""
    sha = hashlib.sha256()
    for part in parts:
        sha.update(part if isinstance(part, bytes) else repr(part).encode())
    return sha.hexdigest()


def check_pin(pin_id: str, digest: str, summary: dict) -> None:
    """Hold a run's *summary*, then its *digest*, to ``pins.json``."""
    entry = json.loads(PINS.read_text())[pin_id]
    replacement = json.dumps({pin_id: {"sha256": digest, "summary": summary}},
                             indent=2)
    assert summary == entry["summary"], (
        f"pin {pin_id} moved; replacement entry:\n{replacement}")
    assert digest == entry["sha256"], (
        f"pin {pin_id}: digest moved, no summary field did; "
        f"replacement entry:\n{replacement}")


def event_counts(names) -> dict:
    """``{"events.<NAME>": count}`` over an iterable of event names."""
    return {f"events.{name}": count
            for name, count in sorted(Counter(names).items())}


def _summary(smart, requests: int, latencies_us=None, events=None) -> dict:
    """What a device run reports: program pages, erases, WAF, request
    count, p50/p99 when it was timed, event counts when it was traced."""
    summary = {
        "host_program_pages": smart.host_program_pages,
        "ftl_program_pages": smart.ftl_program_pages,
        "gc_program_pages": smart.gc_program_pages,
        "meta_program_pages": smart.meta_program_pages,
        "erases": smart.erase_count,
        "waf": round(smart.waf(), 6),
        "requests": requests,
    }
    if latencies_us is not None:
        latency = summarize_latencies(latencies_us)
        summary["p50_us"] = round(latency.p50, 3)
        summary["p99_us"] = round(latency.p99, 3)
    if events is not None:
        summary.update(event_counts(e.NAME for e in events))
    return summary


def _requests_summary(device: TimedSSD, requests: list, events=None) -> dict:
    return _summary(device.smart, len(requests),
                    [r.latency_us for r in requests], events)


@pytest.fixture
def pin_id(request) -> str:
    """This test's key in ``pins.json``."""
    return request.node.name.removeprefix("test_")


def _ops(op_lists) -> list:
    return [[(kind.value, int(target), reason.value, int(nbytes))
             for kind, target, reason, nbytes in ops] for ops in op_lists]


def _state(ftl: Ftl) -> list:
    """The nine arrays and four statistics that define an FTL's state."""
    nand = ftl.nand
    arrays = (ftl.mapping.l2p, ftl.p2l, ftl.p2l != P2L_NONE,
              ftl.block_valid, nand.page_state, oob_stamp(nand),
              nand.page_seq, nand.block_erase_count, nand.block_write_ptr)
    return [array.tobytes() for array in arrays] + [
        nand.wear_summary(), ftl.stats, ftl.mapping.stats,
        ftl.stats.cache_absorbed]


def test_ftl_churn(pin_id):
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
    check_pin(pin_id, _digest(_ops(returned), *_state(ftl)), {
        **asdict(ftl.stats), "erases": int(ftl.nand.block_erase_count.sum())})


@pytest.mark.parametrize("submission,kwargs", [
    ("closed", {"iodepth": 1}),
    ("closed", {"iodepth": 8}),
    ("open", {"rate_iops": 40_000.0}),
])
def test_timed_run(submission, kwargs, pin_id):
    config = mqsim_baseline()
    device = TimedSSD(config)
    requests = record_requests(device)
    job = JobSpec(name="j", rw="randwrite",
                  region=Region(0, config.logical_sectors),
                  io_count=3_000, bs_sectors=2, seed=11,
                  submission=submission, **kwargs)
    run = run_timed(device, [job])
    result = run.jobs["j"]
    check_pin(pin_id, _digest(result.latencies_us.tobytes(), run.elapsed_ns,
                              requests, device.smart, *_state(device.ftl)),
              _summary(device.smart, result.requests, result.latencies_us))


def test_single_job_run(pin_id):
    device = TimedSSD(tiny())
    job = JobSpec(name="j", rw="write", region=Region(0, 600),
                  io_count=2_000, bs_sectors=1, iodepth=4, seed=3)
    run = run_timed(device, [job])
    result = run.jobs["j"]
    check_pin(pin_id, _digest(result.latencies_us.tobytes(), run.elapsed_ns,
                              run.smart_delta),
              _summary(device.smart, result.requests, result.latencies_us))


# ----------------------------------------------------------------------
# The fused scheduling pass
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


@pytest.mark.parametrize("make_config,drive", [
    (evo840_like, _chunked_reads),
    (evo840_like, _pslc_writes),
    (tiny, _every_call_site),
    (tiny, _background_maintenance),
], ids=["evo840_like-chunked_reads", "evo840_like-pslc_writes",
        "tiny-every_call_site", "tiny-background_maintenance"])
def test_fused_scheduling(make_config, drive, pin_id):
    # The full event sequence, resource_busy included, is part of the pin.
    device = TimedSSD(make_config())
    requests = record_requests(device)
    sink = ListSink()
    device.attach_sink(sink)
    drive(device)
    assert any(isinstance(e, ResourceBusy) for e in sink.events)
    check_pin(pin_id, _digest(*_device(device, requests), sink.events),
              _requests_summary(device, requests, sink.events))


def test_fused_scheduling_without_sink(pin_id):
    device = TimedSSD(tiny())
    requests = record_requests(device)
    _every_call_site(device)
    check_pin(pin_id, _digest(*_device(device, requests)),
              _requests_summary(device, requests))


def test_bus_tap(pin_id):
    # A tapped device takes the same scheduling pass as an untapped one
    # and ends in the same state; the pin holds every bus cycle.
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
    digest = _digest(
        ([(s.t0, s.t1, s.cle, s.ale, s.dq, s.strobes, s.reading)
          for s in trace.segments],
         [(b.t0, b.t1) for b in trace.busy], trace.t_end))
    check_pin(pin_id, digest, {
        **_requests_summary(tapped, ends[0][0]),
        "bus_segments": len(trace.segments), "bus_busy": len(trace.busy)})


# ----------------------------------------------------------------------
# The page-granular write path
# ----------------------------------------------------------------------

class _Recorder:
    """The op list of every host command a counter-mode device runs
    (and every op list handed to it directly), in order."""

    def __init__(self, device: SimulatedSSD) -> None:
        self.device = device
        self.commands = record_ops(device)
        self.op_lists = []

    def __call__(self, ops) -> None:
        self.op_lists.append([(kind.value, target, reason.value, nbytes)
                              for kind, target, reason, nbytes in ops])

    def command(self, name: str, *args) -> None:
        getattr(self.device, name)(*args)
        self(self.commands[-1])

    def write(self, lba: int, count: int = 1) -> None:
        self.command("write_sectors", lba, count)

    def digest(self) -> str:
        ftl = self.device.ftl
        return _digest(*self.op_lists, ftl.p2l.tobytes(),
                       (ftl.p2l != P2L_NONE).tobytes(),
                       ftl.block_valid.tobytes(),
                       ftl.mapping.l2p.tobytes(), self.device.smart)


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
        # An inserted sector stays pending until the cache overfills,
        # and a flush never empties it: nothing was ever admitted.
        assert not device.ftl.cache.pending
    rec.command("flush")
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
    # sector is already invalid.
    device = rec.device
    ftl = device.ftl
    for lba in range(0, 64, 4):
        rec.write(lba, 4)
    rec.command("flush")
    ftl.mapping.silent_update(5, int(ftl.mapping.l2p[20]))
    disowned = int(ftl.mapping.l2p[6])
    ftl.p2l[disowned] = P2L_NONE
    ftl.block_valid[disowned // (4 * ftl.geometry.pages_per_block)] -= 1
    ftl._ops = []
    ftl._program_data_page([5, 6], stream="host", reason=OpReason.HOST)
    ftl._migrate_sectors([5, 6], OpReason.GC)
    rec(ftl._ops)
    assert ftl.p2l[ftl.mapping.l2p[20]] != P2L_NONE


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


_PAGE_PATH_DRIVES = [
    (lambda: mx500_like(scale=2), _fig4b_mix_into_gc),
    (lambda: evo840_like(scale=4), _pslc_fill_drain_overwrite),
    (lambda: _four_sector_pages(tiny(), cache_designation="mapping",
                                cache_sectors=4, mapping_dirty_tp_limit=1,
                                mapping_tp_lpns=16),
     _meta_flush_gc_mid_page),
    (lambda: _four_sector_pages(tiny(), cache_admission="bypass"),
     _bypass_admission),
    (lambda: _four_sector_pages(tiny()), _duplicate_lpns_in_one_page),
    (lambda: _four_sector_pages(tiny()), _stale_and_disowned_old_copies),
    (lambda: _four_sector_pages(tiny()), _trims_interleaved),
    (lambda: mx500_like(scale=2), _program_fails_during_gc),
]


@pytest.mark.parametrize("make_config,drive", _PAGE_PATH_DRIVES,
                         ids=[drive.__name__.lstrip("_")
                              for _, drive in _PAGE_PATH_DRIVES])
def test_page_path(make_config, drive, pin_id):
    # Each digest covers every op list returned, p2l, the valid map
    # (p2l != P2L_NONE), block_valid, l2p and SMART.
    rec = _Recorder(SimulatedSSD(make_config()))
    drive(rec)
    rec.device.ftl.check_invariants()
    check_pin(pin_id, rec.digest(),
              _summary(rec.device.smart, len(rec.commands)))


# ----------------------------------------------------------------------
# The host read path's integrity checks
# ----------------------------------------------------------------------

#: flash whose cold data rots out of the ECC budget in ~5 simulated days.
_FRAGILE = ReliabilityModel(base_rber=1e-7, rated_cycles=200,
                            retention_rber_per_day=1e-3, ecc_correctable=40)


def _integrity_reads(sink) -> tuple[SimulatedSSD, PlannedFaultInjector, list]:
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


def test_read_integrity(pin_id):
    # Every op list returned, FtlStats, the injector's firing log,
    # p2l / the valid map / l2p and SMART, untraced; then the same drive
    # traced, with every event.
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
    digest = _digest(_ops(returned), stats, injector.log, ftl.p2l.tobytes(),
                     (ftl.p2l != P2L_NONE).tobytes(),
                     ftl.mapping.l2p.tobytes(),
                     plain.smart, sink.events)
    check_pin(pin_id, digest,
              _summary(plain.smart, len(returned), events=sink.events))
