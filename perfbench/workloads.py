"""The five frozen workloads.

Each workload is a fixed experiment template: a device, a
preconditioning recipe, and a generator of fixed-size **slices** of host
requests.  Everything random is derived from ``--seed``; the simulator
only ever sees the resulting requests.  The definitions are frozen so a
number recorded by one PR means the same thing in the next — change a
workload and every baseline has to be measured again.

A workload exposes what the harness (:mod:`perfbench.measure`) needs:

* ``setup(seed)`` builds and preconditions a fresh state;
* ``run_slice(state, seed, index, tracer)`` runs one slice (this call is
  what gets timed) and ``summarize`` digests its outcome afterwards;
* ``instrument(state, tracer)`` installs span wrappers on that state's
  own objects;
* ``counters(state)`` reads the simulator's exact cumulative counts;
* ``check(state, summaries)`` names anything wrong with the outputs.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import statistics
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.exp import Runner
from repro.fleet import (
    DeviceResult,
    FailedDevice,
    FleetSpec,
    TenantSlice,
    aggregate_fleet,
    default_tenants,
    run_fleet_devices,
    simulate_device,
)
from repro.fleet.sketch import QuantileSketch
from repro.obs.sinks import CounterSink
from repro.ssd.device import SimulatedSSD
from repro.ssd.presets import evo840_like, mqsim_baseline, mx500_like
from repro.ssd.timed import TimedSSD
from repro.workloads.engine import RunResult, run_counter, run_timed
from repro.workloads.patterns import Region
from repro.workloads.source import JobSource
from repro.workloads.spec import JobSpec

from perfbench import metrics as m
from perfbench.spans import Tracer


def job_seed(seed: int, index: int, stream: int) -> int:
    """RNG seed of request stream *stream* in slice *index*: distinct
    for every (seed, slice, stream), and nothing else goes in."""
    return (seed << 24) + ((index + 1) << 4) + stream


@dataclass
class SliceSummary:
    """What one slice did, digested outside the timed window."""

    ops: int
    failed: int
    #: SHA-256 over the slice's simulated outcome; equal fingerprints
    #: mean tracing (or a host-time-only change) altered nothing.
    fingerprint: str
    sim_elapsed_ns: int = 0
    latencies_us: np.ndarray | None = None
    problems: list[str] = field(default_factory=list)


def _digest(*parts: Any) -> str:
    return hashlib.sha256(repr(parts).encode()).hexdigest()


class Workload:
    """What the harness needs from a workload (see the module docstring)."""

    name = ""
    why = ""
    #: requests per slice (fixed: cut run length by slices, never this).
    slice_ops = 0
    #: slices the reference sandbox completes per second of timed work;
    #: turns ``--seconds`` into a fixed, repeatable amount of work.
    slices_per_second = 1.0
    #: slices replayed by the traced run.
    trace_slices = 10
    #: the traced run also replays with a CounterSink attached, to price
    #: enabled observability against the NullSink default.
    obs_probe = False

    def setup(self, seed: int, sink: bool = False):
        """A fresh, preconditioned state; *sink* forces a CounterSink
        onto a workload that normally runs without one."""
        raise NotImplementedError

    def run_slice(self, state, seed: int, index: int,
                  tracer: Tracer | None = None):
        raise NotImplementedError

    def summarize(self, state, outcome) -> SliceSummary:
        raise NotImplementedError

    def instrument(self, state, tracer: Tracer) -> None:
        raise NotImplementedError

    def counters(self, state) -> dict[str, int]:
        raise NotImplementedError

    def check(self, state, summaries: list[SliceSummary]) -> list[str]:
        raise NotImplementedError

    def extra_values(self, state, tracer: Tracer, bare, traced) -> dict[str, float]:
        """Per-layer metrics only this workload can compute, from the
        bare and traced passes (:class:`perfbench.measure.Pass`)."""
        return {}


# ----------------------------------------------------------------------
# Single-device workloads
# ----------------------------------------------------------------------


@dataclass
class DeviceState:
    device: Any
    num_sectors: int
    sink: CounterSink | None = None


class DeviceWorkload(Workload):
    """One simulated device, one engine call per slice."""

    timed = True
    #: attach a CounterSink for every slice (obs enabled).
    with_sink = False

    # -- the template's blanks -----------------------------------------

    def make_device(self):
        raise NotImplementedError

    def precondition(self, state: DeviceState, seed: int) -> None:
        raise NotImplementedError

    def slice_jobs(self, state: DeviceState, seed: int, index: int) -> list[JobSpec]:
        raise NotImplementedError

    # -- harness surface -----------------------------------------------

    def setup(self, seed: int, sink: bool = False) -> DeviceState:
        device = self.make_device()
        state = DeviceState(device, device.num_sectors)
        self.precondition(state, seed)
        if self.with_sink or sink:
            state.sink = CounterSink()
        return state

    def run_slice(self, state: DeviceState, seed: int, index: int,
                  tracer: Tracer | None = None) -> RunResult:
        specs = self.slice_jobs(state, seed, index)
        engine = run_timed if self.timed else run_counter
        if tracer is None:
            sources = [JobSource(spec) for spec in specs]
            return engine(state.device, sources, sink=state.sink)
        with tracer.span(m.SOURCE):
            sources = [JobSource(spec) for spec in specs]
            for source in sources:
                tracer.wrap(source, "next_request", m.SOURCE)
                if source.is_open_loop:
                    tracer.wrap(source, "arrival_times", m.SOURCE)
        with tracer.span(m.ENGINE):
            return engine(state.device, sources, sink=state.sink)

    def summarize(self, state: DeviceState, result: RunResult) -> SliceSummary:
        jobs = list(result.jobs.values())
        latencies = None
        latency_sum = 0.0
        if self.timed:
            latencies = np.concatenate([job.latencies_us for job in jobs])
            latency_sum = float(latencies.sum())
        delta = result.smart_delta
        smart = tuple(getattr(delta, name)
                      for name in delta.__dataclass_fields__)
        return SliceSummary(
            ops=sum(job.requests for job in jobs),
            failed=sum(job.failed_requests for job in jobs),
            fingerprint=_digest(result.elapsed_ns, latency_sum, smart,
                                [(j.name, j.requests, j.sectors) for j in jobs]),
            sim_elapsed_ns=result.elapsed_ns,
            latencies_us=latencies,
        )

    def instrument(self, state: DeviceState, tracer: Tracer) -> None:
        device = state.device
        wrap = tracer.wrap
        if self.timed:
            for attr in ("submit", "flush"):
                wrap(device, attr, m.TIMED)
            for attr in ("schedule", "schedule_batch"):
                wrap(device.kernel, attr, m.KERNEL)
            for resource in device.kernel.resources.values():
                wrap(resource, "hold", m.KERNEL)
        else:
            for attr in ("write_sectors", "read_sectors", "flush"):
                wrap(device, attr, m.DEVICE)
        ftl = device.ftl
        for attr in ("write", "read", "trim", "flush"):
            wrap(ftl, attr, m.FTL)
        for attr in ("lookup", "update", "trim", "checkpoint"):
            wrap(ftl.mapping, attr, m.MAPPING)
        for attr in ("allocate_page", "release_block"):
            wrap(ftl.allocator, attr, m.ALLOCATION)
        wrap(ftl.selector, "select_victim", m.GC)
        for attr in ("program", "read", "erase"):
            wrap(ftl.nand, attr, m.NAND)
        if state.sink is not None:
            wrap(state.sink, "emit", m.OBS)

    def counters(self, state: DeviceState) -> dict[str, int]:
        device = state.device
        ftl = device.ftl
        smart = device.smart
        return {
            "host_pages": smart.host_program_pages,
            "ftl_pages": smart.ftl_program_pages,
            "gc_pages": smart.gc_program_pages,
            "read_pages": smart.read_pages,
            "erases": smart.erase_count,
            "host_sector_writes": ftl.stats.host_sector_writes,
            "cache_absorbed": ftl.stats.cache_absorbed,
            "chunk_loads": ftl.mapping.stats.chunk_loads,
            "tp_flushes": ftl.mapping.stats.tp_flushes,
            "events": (sum(state.sink.counts.values())
                       if state.sink is not None else 0),
        }

    def check(self, state: DeviceState, summaries: list[SliceSummary]) -> list[str]:
        problems = []
        try:
            state.device.ftl.check_invariants()
        except AssertionError as exc:
            problems.append(f"FTL invariant broken after the run: {exc}")
        short = [i for i, s in enumerate(summaries)
                 if s.ops + s.failed != self.slice_ops]
        if short:
            problems.append(f"slices {short} did not attempt {self.slice_ops} "
                            f"requests")
        return problems

    # -- shared recipes ------------------------------------------------

    def _run(self, state: DeviceState, jobs: list[JobSpec]) -> None:
        engine = run_timed if self.timed else run_counter
        result = engine(state.device, jobs)
        refused = sum(job.failed_requests for job in result.jobs.values())
        if refused:
            raise RuntimeError(f"{self.name}: preconditioning had {refused} "
                               f"refused requests")

    def _settle(self, state: DeviceState) -> None:
        """Drain the write cache and let the flash go idle, so the first
        slice does not queue behind preconditioning."""
        state.device.flush()
        if self.timed:
            state.device.quiesce()

    def fill_and_age(self, state: DeviceState, seed: int, span: int) -> None:
        """``mqsim_baseline`` steady state: a sequential fill of the
        first *span* sectors, then enough single-sector random
        overwrites to use up the free blocks and start foreground GC."""
        region = Region(0, span)
        self._run(state, [JobSpec("fill", "write", region, bs_sectors=8,
                                  io_count=span // 8)])
        self._run(state, [JobSpec("age", "randwrite", region, bs_sectors=1,
                                  io_count=60_000,
                                  seed=job_seed(seed, -1, 0))])
        self._settle(state)


def _three_quarters(num_sectors: int) -> int:
    """The first 75% of the LBA space, rounded so it splits into four
    regions of whole 8-sector requests."""
    return int(num_sectors * 0.75) // 32 * 32


class RandWriteGc(DeviceWorkload):
    name = "randwrite_gc"
    why = ("the paper's Fig 3 stream in steady-state GC: single-source loop "
           "and single-sector fast lanes; ssd.gc, ssd.allocation and "
           "flash.nand do most of the work")
    slice_ops = 5_000
    slices_per_second = 7.0
    obs_probe = True

    def make_device(self):
        return TimedSSD(mqsim_baseline())

    def precondition(self, state, seed):
        self.fill_and_age(state, seed, _three_quarters(state.num_sectors))

    def slice_jobs(self, state, seed, index):
        region = Region(0, _three_quarters(state.num_sectors))
        return [JobSpec("randwrite", "randwrite", region, bs_sectors=1,
                        io_count=self.slice_ops, iodepth=1,
                        seed=job_seed(seed, index, 0))]


class RandReadChunked(DeviceWorkload):
    name = "randread_chunked"
    why = ("random reads over a demand-loaded chunked map: GC and allocator "
           "idle, ssd.mapping's general path dominates; the bypass workload "
           "for GC work and the target for mapping work")
    slice_ops = 4_000
    slices_per_second = 6.0

    def make_device(self):
        return TimedSSD(evo840_like())

    def _span(self, state):
        return state.num_sectors // 8 * 8

    def precondition(self, state, seed):
        span = self._span(state)
        self._run(state, [JobSpec("fill", "write", Region(0, span),
                                  bs_sectors=8, io_count=span // 8)])
        self._settle(state)

    def slice_jobs(self, state, seed, index):
        return [JobSpec("randread", "randread", Region(0, self._span(state)),
                        bs_sectors=1, io_count=self.slice_ops, iodepth=4,
                        seed=job_seed(seed, index, 0))]


class MixedOpen4(DeviceWorkload):
    name = "mixed_open4"
    why = ("four open-loop tenants with obs enabled: the general scheduler, "
           "the multi-sector FTL path, all four arrival generators; the path "
           "fleet tenants and stall attribution take")
    slice_ops = 4_500
    slices_per_second = 3.6
    with_sink = True
    #: (name, rw, bs, arrival, rate IOPS, budget share of 12).  Budget /
    #: rate is 0.9375 simulated seconds for every tenant, and the device
    #: keeps up at these rates — at 2.5x them p99 grows slice over slice.
    tenants = (
        ("oltp", "randrw", 2, "poisson", 1_600.0, 4),
        ("log", "write", 8, "fixed", 400.0, 1),
        ("scan", "randread", 1, "bursty", 1_600.0, 4),
        ("ingest", "randwrite", 1, "diurnal", 1_200.0, 3),
    )

    def make_device(self):
        return TimedSSD(mqsim_baseline())

    def precondition(self, state, seed):
        self.fill_and_age(state, seed, _three_quarters(state.num_sectors))

    def slice_jobs(self, state, seed, index):
        # Private quarters of the *filled* span: valid data stays at 75%
        # of the device, so the workload has a steady state.
        quarter = _three_quarters(state.num_sectors) // 4
        return [
            JobSpec(name, rw, Region(k * quarter, quarter), bs_sectors=bs,
                    io_count=self.slice_ops * share // 12, read_fraction=0.7,
                    seed=job_seed(seed, index, k), submission="open",
                    rate_iops=rate, arrival=arrival)
            for k, (name, rw, bs, arrival, rate, share)
            in enumerate(self.tenants)
        ]

    def check(self, state, summaries):
        problems = super().check(state, summaries)
        # An open loop the device cannot keep up with shows as slices
        # that take ever longer in simulated time.
        elapsed = [s.sim_elapsed_ns for s in summaries]
        third = max(1, len(elapsed) // 3)
        first = statistics.median(elapsed[:third])
        last = statistics.median(elapsed[-third:])
        if last > 1.5 * first:
            problems.append(
                f"simulated backlog grows: last slices take {last / 1e9:.3f} s "
                f"of simulated time, first ones {first / 1e9:.3f} s")
        return problems


class WafMixCounter(DeviceWorkload):
    name = "waf_mix_counter"
    why = ("Fig 4b's three concurrent write jobs on a counter-mode device: "
           "same FTL with no ssd.timed or sim.kernel; prices merging "
           "SimulatedSSD into a zero-latency TimedSSD")
    slice_ops = 6_000
    slices_per_second = 4.6
    timed = False
    block_sizes = (1, 2, 8)

    def make_device(self):
        # scale=2 (a quarter of the full preset): the full-size device
        # needs ~9 s of writes before GC starts, three times per run.
        return SimulatedSSD(mx500_like(scale=2))

    def _regions(self, state):
        n = state.num_sectors
        return (Region(0, n // 3), Region(n // 3, n // 12),
                Region(n // 3 + n // 12, n // 48))

    def precondition(self, state, seed):
        regions = self._regions(state)
        self._run(state, [
            JobSpec(f"fill{k}", "write", region, bs_sectors=8,
                    io_count=region.length // 8)
            for k, region in enumerate(regions)
        ])
        self._run(state, [JobSpec("age", "randwrite",
                                  Region(0, regions[-1].end), bs_sectors=8,
                                  io_count=20_000,
                                  seed=job_seed(seed, -1, 0))])
        self._settle(state)

    def slice_jobs(self, state, seed, index):
        return [
            JobSpec(f"bs{bs}", "randwrite", region, bs_sectors=bs,
                    io_count=self.slice_ops // 3,
                    seed=job_seed(seed, index, k))
            for k, (region, bs) in enumerate(zip(self._regions(state),
                                                 self.block_sizes))
        ]


# ----------------------------------------------------------------------
# Fleet workload
# ----------------------------------------------------------------------


def _device_identity(device) -> tuple:
    """A device result's content, free of object identity (re-pickling
    an unpickled result need not give the same bytes)."""
    if isinstance(device, FailedDevice):
        return ("failed", device.index, device.error)
    return (
        device.index, device.seed, device.elapsed_ns,
        device.host_program_pages, device.ftl_program_pages,
        device.erase_count, device.host_sectors_written,
        device.failed_requests, device.degraded_kind,
        tuple((t.tenant, t.requests, t.elapsed_ns, t.sketch.count,
               t.sketch.total, t.sketch.minimum, t.sketch.maximum,
               *(column.tobytes() for column in t.sketch.centroids))
              for t in device.tenants),
    )


@dataclass
class FleetState:
    jobs: int
    #: cumulative counts over the slices run so far.
    counts: dict[str, int] = field(default_factory=lambda: {
        "host_pages": 0, "ftl_pages": 0, "erases": 0, "devices": 0,
        "sketch_bytes": 0,
    })


@dataclass
class FleetOutcome:
    spec: FleetSpec
    devices: list
    report: Any


class FleetPool(Workload):
    name = "fleet_pool"
    why = ("64 set-up-dominated tiny devices per slice through a process "
           "pool spawned per Runner.run: spec lowering, sketching, pickling "
           "and pool cost — where a fleet device's milliseconds go")
    devices = 64
    io_count = 150
    slice_ops = devices * io_count * len(default_tenants())
    slices_per_second = 2.4
    trace_slices = 5

    def setup(self, seed: int, sink: bool = False) -> FleetState:
        return FleetState(jobs=min(2, os.cpu_count() or 1))

    def _spec(self, seed: int, index: int) -> FleetSpec:
        return FleetSpec(default_tenants(io_count=self.io_count),
                         devices=self.devices, preset="tiny",
                         seed=job_seed(seed, index, 0))

    def run_slice(self, state: FleetState, seed: int, index: int,
                  tracer: Tracer | None = None) -> FleetOutcome:
        spec = self._spec(seed, index)
        if tracer is None:
            devices = run_fleet_devices(
                spec, Runner(jobs=state.jobs, cache=None))
            return FleetOutcome(spec, devices, aggregate_fleet(spec, devices))
        devices = [self._traced_device(state, spec, i, tracer)
                   for i in range(spec.devices)]
        with tracer.span(m.FLEET_AGGREGATE):
            report = aggregate_fleet(spec, devices)
        return FleetOutcome(spec, devices, report)

    def _traced_device(self, state: FleetState, spec: FleetSpec, index: int,
                       tracer: Tracer) -> DeviceResult:
        """One device, serially and in-process: once through the real
        ``simulate_device`` and once step by step through the same
        public functions, so each step gets its own span."""
        with tracer.span(m.FLEET_SIMULATE):
            whole = simulate_device(spec, index)
        with tracer.span(m.FLEET_STEPWISE):
            with tracer.span(m.FLEET_LOWER):
                config = spec.device_config()
            with tracer.span(m.FLEET_CONSTRUCT):
                device = TimedSSD(config)
            with tracer.span(m.FLEET_LOWER):
                sources = spec.device_sources(index, device.num_sectors)
            for source in sources:
                tracer.wrap(source, "next_request", m.SOURCE)
                tracer.wrap(source, "arrival_times", m.SOURCE)
            with tracer.span(m.ENGINE):
                result = run_timed(device, sources)
            with tracer.span(m.FLEET_SKETCH):
                sketches = []
                for source in sources:
                    sketch = QuantileSketch(spec.compression)
                    sketch.extend(result.jobs[source.name].latencies_us)
                    sketches.append(sketch.compact())
            delta = result.smart_delta
            stepwise = DeviceResult(
                index=index,
                seed=spec.device_seed(index),
                tenants=tuple(
                    TenantSlice(tenant=source.name,
                                requests=result.jobs[source.name].requests,
                                sketch=sketch,
                                elapsed_ns=result.jobs[source.name].elapsed_ns)
                    for source, sketch in zip(sources, sketches)),
                elapsed_ns=result.elapsed_ns,
                host_program_pages=delta.host_program_pages,
                ftl_program_pages=delta.ftl_program_pages,
                erase_count=delta.erase_count,
                host_sectors_written=delta.host_sectors_written,
                degraded_kind=result.degraded_kind,
                degraded_at_ns=result.degraded_at_ns,
                ops_before_degraded=result.ops_before_degraded,
                failed_requests=sum(job.failed_requests
                                    for job in result.jobs.values()),
            )
        with tracer.span(m.RUNNER_PICKLE):
            payload = pickle.dumps(stepwise)
            shipped = pickle.loads(payload)
        if pickle.dumps(whole) != payload:
            raise RuntimeError(
                f"fleet device #{index}: the step-by-step replay disagrees "
                f"with simulate_device(); perfbench's copy of its steps is "
                f"out of date")
        state.counts["sketch_bytes"] += len(
            pickle.dumps([t.sketch for t in stepwise.tenants]))
        return shipped

    def summarize(self, state: FleetState, outcome: FleetOutcome) -> SliceSummary:
        ops = failed = 0
        problems = []
        for device in outcome.devices:
            if isinstance(device, FailedDevice):
                failed += self.io_count * len(outcome.spec.tenants)
                problems.append(f"device #{device.index} crashed: "
                                f"{device.error}")
                continue
            ops += sum(t.requests for t in device.tenants)
            failed += device.failed_requests
            state.counts["host_pages"] += device.host_program_pages
            state.counts["ftl_pages"] += device.ftl_program_pages
            state.counts["erases"] += device.erase_count
        state.counts["devices"] += len(outcome.devices)
        if not outcome.report.ok:
            problems.append(f"fleet SLO violated by "
                            f"{outcome.report.violations}")
        return SliceSummary(
            ops=ops, failed=failed,
            fingerprint=_digest([_device_identity(d)
                                 for d in outcome.devices]),
            # device-seconds: every device runs its own timeline.
            sim_elapsed_ns=sum(d.elapsed_ns for d in outcome.devices
                               if isinstance(d, DeviceResult)),
            problems=problems,
        )

    def instrument(self, state: FleetState, tracer: Tracer) -> None:
        """Nothing to wrap up front: fleet devices are born inside the
        slice, and :meth:`_traced_device` spans their steps."""

    def counters(self, state: FleetState) -> dict[str, int]:
        return dict(state.counts)

    def check(self, state: FleetState, summaries: list[SliceSummary]) -> list[str]:
        return [problem for s in summaries for problem in s.problems]

    def extra_values(self, state: FleetState, tracer: Tracer, bare, traced):
        devices = traced.counts["devices"]
        cu_ns = traced.cu * 1e9
        totals = tracer.totals()

        def cu_per_device(layer: str) -> float:
            return totals[layer].total_ns / cu_ns / devices

        device_cu = tracer.durations(m.FLEET_SIMULATE) / cu_ns
        # Serial and pool cost of the same devices, each in its own run's CU.
        serial = cu_per_device(m.FLEET_SIMULATE) + cu_per_device(m.FLEET_AGGREGATE)
        pool = sum(bare.walls) / bare.cu / devices
        return {
            "fleet.spec.lower_cu_per_device": cu_per_device(m.FLEET_LOWER),
            "fleet.shard.construct_cu_per_device":
                cu_per_device(m.FLEET_CONSTRUCT),
            "fleet.shard.simulate_cu_per_device":
                cu_per_device(m.FLEET_SIMULATE),
            "fleet.sketch.build_cu_per_device": cu_per_device(m.FLEET_SKETCH),
            "fleet.sketch.bytes_per_device":
                traced.counts["sketch_bytes"] / devices,
            "fleet.aggregate.cu_per_device": cu_per_device(m.FLEET_AGGREGATE),
            "exp.runner.pickle_cu_per_device": cu_per_device(m.RUNNER_PICKLE),
            "fleet.shard.device_cu_p50": float(np.percentile(device_cu, 50)),
            "fleet.shard.device_cu_p90": float(np.percentile(device_cu, 90)),
            "exp.runner.pool_speedup": serial / pool,
            "exp.runner.pool_overhead_share": 1.0 - serial / state.jobs / pool,
        }


WORKLOADS = {w.name: w for w in (RandWriteGc(), RandReadChunked(),
                                 MixedOpen4(), WafMixCounter(), FleetPool())}
