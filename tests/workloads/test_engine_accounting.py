"""A run's result is what the device returned, request by request.

The engine keeps running totals instead of the completed requests;
each test records every :class:`~repro.ssd.timed.CompletedRequest` the
device hands back and recomputes each :class:`JobResult` field from
them, bit for bit.
"""

import numpy as np

from repro.faults import FaultPlan, FaultSpec, PlannedFaultInjector
from repro.obs import CounterSink
from repro.ssd.presets import tiny
from repro.ssd.timed import TimedSSD
from repro.workloads.engine import JobResult, run_counter, run_timed
from repro.workloads.patterns import Region
from repro.workloads.source import RequestSource, TraceSource
from repro.workloads.spec import JobSpec
from repro.workloads.trace import BlockTrace, TraceRecord
from tests.helpers import record_requests


def assert_accounts_for(job: JobResult, requests: list, t0: int,
                        offered: int) -> None:
    """*job* is *requests*, the ones the device completed of *offered*,
    in a run that started at *t0*."""
    assert job.requests == len(requests)
    assert job.sectors == sum(r.nsectors for r in requests)
    latencies = np.asarray(
        [(r.complete_ns - r.submit_ns) / 1_000 for r in requests],
        dtype=np.float64)
    assert job.latencies_us.dtype == np.float64
    assert job.latencies_us.tobytes() == latencies.tobytes()
    assert job.elapsed_ns == max(
        0, max((r.complete_ns for r in requests), default=0) - t0)
    assert job.failed_requests == offered - len(requests)


def run_recorded(device: TimedSSD, source, run=run_timed, **kwargs):
    """Run one *source* on *device*; its result, every request the
    device completed, and the run's start time."""
    t0 = device.now
    requests = record_requests(device)
    result = run(device, [source], **kwargs)
    return result.jobs[source.name], requests, t0


def test_closed_loop_at_iodepth_4():
    device = TimedSSD(tiny())
    # 2,500 requests span three of the source's 1,024-request blocks.
    job = JobSpec("c", "randrw", Region(0, device.num_sectors),
                  bs_sectors=4, io_count=2_500, iodepth=4, seed=7)
    outcome, requests, t0 = run_recorded(device, job)
    assert outcome.requests == 2_500
    assert_accounts_for(outcome, requests, t0, 2_500)


def test_open_loop_with_a_counter_sink():
    # The sink takes the engine's queue-depth path.
    device = TimedSSD(tiny())
    sink = CounterSink()
    job = JobSpec("o", "randrw", Region(0, device.num_sectors),
                  io_count=2_500, seed=8, submission="open",
                  rate_iops=40_000.0)
    outcome, requests, t0 = run_recorded(device, job, sink=sink)
    assert sink.count("queue_depth") == 2_500
    assert_accounts_for(outcome, requests, t0, 2_500)


def test_trace_with_flush_records():
    device = TimedSSD(tiny())
    kinds = ("write", "read", "write", "trim")
    records = []
    for i in range(1_200):
        kind = "flush" if i % 97 == 96 else kinds[i % len(kinds)]
        sectors = 0 if kind == "flush" else 1 + i % 8
        lba = 0 if kind == "flush" else (i * 37) % (device.num_sectors - 8)
        # Pairs of requests share an arrival time.
        records.append(TraceRecord(kind, lba, sectors, at_us=(i // 2) * 4.0))
    source = TraceSource(BlockTrace(records))
    outcome, requests, t0 = run_recorded(device, source)
    assert sum(r.kind == "flush" for r in requests) == 12
    assert_accounts_for(outcome, requests, t0, len(records))


class ClockMovingSource(RequestSource):
    """Single-sector writes, every fifth a flush that names 8 sectors;
    each draw first moves the device's clock 1 ms on, so the engine's
    submission time is behind it and the device clamps it."""

    name = "moving"
    iodepth = 1

    def __init__(self, device: TimedSSD, count: int) -> None:
        self.device = device
        self.left = count

    def next_request(self):
        if not self.left:
            return None
        self.left -= 1
        self.device.now = self.device.now + 1_000_000
        if self.left % 5 == 0:
            return "flush", 0, 8
        return "write", self.left, 1


def test_clamped_submissions_and_flush_sectors():
    device = TimedSSD(tiny())
    source = ClockMovingSource(device, 200)
    outcome, requests, t0 = run_recorded(device, source)
    # Latency runs from the clamped submit time, and a flush moves no
    # host sectors whatever its request names.
    assert all(r.complete_ns - r.submit_ns < 1_000_000 for r in requests)
    assert outcome.sectors == 160
    assert_accounts_for(outcome, requests, t0, 200)


def test_run_counter_at_zero_latency():
    device = TimedSSD(tiny(), zero_latency=True)
    job = JobSpec("z", "randwrite", Region(0, device.num_sectors),
                  bs_sectors=2, io_count=1_500, seed=9)
    outcome, requests, t0 = run_recorded(device, job, run=run_counter)
    # run_counter's closing flush is outside the run.
    assert requests.pop().kind == "flush"
    assert outcome.elapsed_ns == 0
    assert_accounts_for(outcome, requests, t0, 1_500)


def test_planned_power_cut():
    config = tiny()
    injector = PlannedFaultInjector(
        FaultPlan(seed=5, specs=(FaultSpec("power_cut", at_op=60),)),
        config.geometry)
    device = TimedSSD(config, injector=injector)
    half = device.num_sectors // 2
    jobs = [JobSpec("a", "randwrite", Region(0, half), io_count=300,
                    seed=1, submission="open", rate_iops=5_000.0),
            JobSpec("b", "randread", Region(half, half), io_count=300,
                    seed=2, submission="open", rate_iops=5_000.0)]
    t0 = device.now
    requests = record_requests(device)
    result = run_timed(device, jobs)
    assert result.degraded_kind == "power_cut"
    # Nothing completes after the cut.
    assert result.ops_before_degraded == len(requests)
    assert_accounts_for(result.jobs["a"],
                        [r for r in requests if r.lba < half], t0, 300)
    assert_accounts_for(result.jobs["b"],
                        [r for r in requests if r.lba >= half], t0, 300)
