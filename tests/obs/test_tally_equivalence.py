"""A ``CounterSink`` fed by tallies keeps what per-event delivery keeps.

Each setup runs the same requests twice: once with a ``CounterSink``
attached directly, so the hot sites hand it tallies, and once behind a
``TeeSink``, a recording sink, so the same ``CounterSink`` receives every
event through ``emit``.  Counts, metric sums, completed requests and
SMART counters must be equal.
"""

import numpy as np
import pytest

from repro.faults import FaultPlan, FaultSpec, PlannedFaultInjector
from repro.obs import (
    TALLIES,
    CounterSink,
    HistogramSink,
    JsonlSink,
    NullSink,
    TeeSink,
)
from repro.ssd.presets import evo840_like, mqsim_baseline, tiny
from repro.ssd.timed import BackgroundPolicy, TimedSSD
from repro.workloads.engine import run_counter, run_timed
from repro.workloads.patterns import Region
from repro.workloads.spec import JobSpec
from tests.helpers import ListSink

#: perfbench's ``mixed_open4`` tenants, sized down:
#: (name, rw, bs, arrival, rate IOPS, requests).
TENANTS = (
    ("oltp", "randrw", 2, "poisson", 1_600.0, 240),
    ("log", "write", 8, "fixed", 400.0, 60),
    ("scan", "randread", 1, "bursty", 1_600.0, 240),
    ("ingest", "randwrite", 1, "diurnal", 1_200.0, 180),
)


def _open_tenants(span: int) -> list[JobSpec]:
    quarter = span // 4
    return [
        JobSpec(name, rw, Region(k * quarter, quarter), bs_sectors=bs,
                io_count=count, read_fraction=0.7, seed=40 + k,
                submission="open", rate_iops=rate, arrival=arrival)
        for k, (name, rw, bs, arrival, rate, count) in enumerate(TENANTS)
    ]


def _requests(result) -> list:
    return [(name, job.requests, job.sectors, job.failed_requests,
             job.latencies_us.tolist())
            for name, job in sorted(result.jobs.items())]


def mqsim_open_loop(sink):
    device = TimedSSD(mqsim_baseline())
    span = 16_384
    run_timed(device, [JobSpec("fill", "write", Region(0, span),
                               bs_sectors=8, io_count=span // 8)])
    result = run_timed(device, _open_tenants(span), sink=sink)
    return device, _requests(result)


def evo840_chunked_pslc(sink):
    # Random writes through the pSLC buffer, then random reads over the
    # demand-loaded chunked map: every chunk miss is a META read.
    device = TimedSSD(evo840_like())
    device.attach_sink(sink)
    region = Region(0, device.num_sectors)
    done = [run_timed(device, [JobSpec("w", "randwrite", region,
                                       bs_sectors=8, io_count=600, seed=5)])]
    device.flush()
    loads = device.ftl.mapping.stats.chunk_loads
    done.append(run_timed(device, [JobSpec("r", "randread", region,
                                           io_count=500, iodepth=4,
                                           seed=6)]))
    assert device.ftl.mapping.stats.chunk_loads - loads > 50
    assert device.ftl.stats.pslc_drains > 0
    return device, [_requests(r) for r in done]


def zero_latency_trims_and_flushes(sink):
    device = TimedSSD(tiny(), zero_latency=True)
    n = device.num_sectors
    rng = np.random.default_rng(3)
    done = []
    for round_ in range(3):
        done.append(run_counter(device, [
            JobSpec("w", "randwrite", Region(0, n), bs_sectors=2,
                    io_count=800, seed=10 + round_),
            JobSpec("r", "randread", Region(0, n), io_count=200,
                    seed=20 + round_),
        ], sink=sink))
        for _ in range(50):
            device.trim_sectors(int(rng.integers(n - 4)), 4)
        device.idle(max_blocks=2)
    device.shutdown()
    return device, [_requests(r) for r in done]


def injected_faults(sink):
    config = tiny().with_changes(rain_stripe=4, read_retry_steps=2)
    plan = FaultPlan(seed=5, specs=(
        FaultSpec("uncorrectable_read", probability=0.02, count=0),
        FaultSpec("program_fail", probability=0.002, count=2),
    ))
    device = TimedSSD(config,
                      injector=PlannedFaultInjector(plan, config.geometry))
    device.attach_sink(sink)
    n = device.num_sectors
    done = [run_timed(device, [JobSpec("fill", "write", Region(0, n),
                                       bs_sectors=4, io_count=n // 4)])]
    device.flush()
    done.append(run_timed(device, [
        JobSpec("r", "randread", Region(0, n), io_count=1_500, seed=7),
        JobSpec("w", "randwrite", Region(0, n), io_count=500, seed=8),
    ]))
    stats = device.ftl.stats
    assert stats.read_retries > 0 and stats.rain_reconstructions > 0
    return device, [_requests(r) for r in done]


def background_maintenance(sink):
    device = TimedSSD(tiny())
    device.attach_sink(sink)
    device.enable_background_maintenance(BackgroundPolicy(
        idle_threshold_ns=1_000_000, check_interval_ns=1_000_000,
        max_blocks=2))
    rng = np.random.default_rng(9)
    n = device.num_sectors
    done = []
    for _ in range(5):
        for _ in range(300):
            done.append(device.submit("write", int(rng.integers(n)), 1,
                                      at_ns=device.now))
        done.append(device.submit("read", int(rng.integers(n)), 1,
                                  at_ns=device.kernel.horizon() + 40_000_000))
    device.quiesce()
    assert device.ftl.stats.idle_gc_blocks > 0
    return device, done


SETUPS = [mqsim_open_loop, evo840_chunked_pslc,
          zero_latency_trims_and_flushes, injected_faults,
          background_maintenance]


def test_only_the_counter_sink_aggregates():
    assert TALLIES[CounterSink] is CounterSink.tally
    for cls in (NullSink, HistogramSink, JsonlSink, TeeSink, ListSink):
        assert TALLIES[cls] is None, cls


@pytest.mark.parametrize("setup", SETUPS, ids=[s.__name__ for s in SETUPS])
def test_tallies_equal_per_event_delivery(setup):
    direct = CounterSink()
    device_a, done_a = setup(direct)
    behind_tee = CounterSink()
    device_b, done_b = setup(TeeSink(behind_tee))
    assert dict(direct.counts) == dict(behind_tee.counts)
    assert dict(direct.metric_totals) == dict(behind_tee.metric_totals)
    assert done_a == done_b
    assert device_a.smart_snapshot() == device_b.smart_snapshot()
    assert sum(direct.counts.values()) > 0
