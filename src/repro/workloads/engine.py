"""The workload engine: runs request sources against simulated devices.

Every workload — fio-style :class:`~repro.workloads.spec.JobSpec`
synthetics, recorded block traces, file-system scenarios, storage
engines (:mod:`repro.engines`) — reaches a device through one
abstraction: the :class:`~repro.workloads.source.RequestSource`.  Both
run functions accept specs and sources interchangeably (specs wrap into
:class:`~repro.workloads.source.JobSource`, byte-identically to the
pre-refactor inline loops).

Two execution modes mirror the two device modes:

* :func:`run_counter` drives a :class:`~repro.ssd.device.SimulatedSSD`
  and reports per-job SMART-visible page counts — the mode for
  write-amplification studies (Fig 4).  Concurrency is modeled by
  interleaving requests from all sources round-robin, one request per
  source per round, which matches the paper's "ran all workloads
  concurrently" protocol when jobs are given equal request budgets.

* :func:`run_timed` drives a :class:`~repro.ssd.timed.TimedSSD` and
  reports latencies and IOPS — the mode for tail-latency studies
  (Fig 3).  Each source submits **closed-loop** at its iodepth (fio's
  default model) or **open-loop** at its arrival schedule (a JobSpec's
  rate process, or a trace's recorded timeline): arrivals are
  independent of completions, so a device that cannot keep up
  accumulates queue — latency grows without bound instead of
  throughput silently dropping.  Open-loop is the honest way to
  measure tails at a target load.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from repro.obs.events import QueueDepth
from repro.obs.sinks import TraceSink
from repro.sim.kernel import PowerLoss
from repro.ssd.allocation import OutOfSpace
from repro.ssd.device import SimulatedSSD
from repro.ssd.ftl import ReadOnlyError
from repro.ssd.smart import SmartCounters
from repro.ssd.timed import TimedSSD
from repro.workloads.source import RequestSource, as_source
from repro.workloads.spec import JobSpec

#: RNG stream constant for open-loop arrival gaps: a separate
#: ``default_rng([seed, _ARRIVAL_STREAM])`` stream so switching
#: submission modes never perturbs a job's address/kind sequence.
_ARRIVAL_STREAM = 0x0A221

#: Degradations a device can announce mid-run that the engine survives:
#: a read-only FTL and an exhausted spare pool fail the offending
#: request (reads and flushes still serve); a power loss kills the
#: device — every later request of every job fails.
_FAULT_EXCEPTIONS = (ReadOnlyError, OutOfSpace, PowerLoss)


class _Degradation:
    """First-failure bookkeeping shared by the timed run loops."""

    __slots__ = ("kind", "at_ns", "ops_before", "dead")

    def __init__(self) -> None:
        self.kind = ""
        self.at_ns = -1
        self.ops_before = -1
        self.dead = False

    def note(self, exc: BaseException, when: int, ok_requests: int) -> None:
        if not self.kind:
            if isinstance(exc, PowerLoss):
                self.kind = "power_cut"
            elif isinstance(exc, ReadOnlyError):
                self.kind = "read_only"
            else:
                self.kind = "out_of_space"
            self.at_ns = when
            self.ops_before = ok_requests
        if isinstance(exc, PowerLoss):
            self.dead = True


class _SourceState:
    """One source's progress through the general :func:`run_timed`
    scheduler."""

    __slots__ = ("source", "issued", "lat", "sectors", "done_at", "arrivals",
                 "inflight", "failed")

    def __init__(self, source: RequestSource) -> None:
        self.source = source
        self.issued = 0
        self.lat: list[float] = []
        self.sectors = 0
        self.done_at = 0
        self.arrivals: np.ndarray | None = None
        self.inflight: list[int] = []
        self.failed = 0


@dataclass
class JobResult:
    """Outcome of one job in one run."""

    name: str
    requests: int
    sectors: int
    #: request latencies in microseconds (timed mode only).
    latencies_us: np.ndarray | None = None
    #: wall-clock of the run in ns (timed mode only).
    elapsed_ns: int = 0
    #: requests the device refused (read-only / power-cut degradation);
    #: ``requests`` counts only the ones that completed.
    failed_requests: int = 0

    @property
    def iops(self) -> float:
        if not self.elapsed_ns:
            return 0.0
        return self.requests / (self.elapsed_ns / 1e9)

    def percentile_us(self, q: float) -> float:
        if self.latencies_us is None or len(self.latencies_us) == 0:
            return 0.0
        return float(np.percentile(self.latencies_us, q))


@dataclass
class RunResult:
    """Outcome of a whole run (one or many jobs)."""

    jobs: dict[str, JobResult]
    smart_delta: SmartCounters
    elapsed_ns: int = 0
    #: how the device degraded mid-run, if it did: "" (healthy),
    #: "read_only", "out_of_space", or "power_cut".
    degraded_kind: str = ""
    #: virtual time of the first refused request (-1 = never degraded).
    degraded_at_ns: int = -1
    #: requests completed across all jobs before the first refusal.
    ops_before_degraded: int = -1

    @property
    def degraded(self) -> bool:
        return bool(self.degraded_kind)

    @property
    def waf(self) -> float:
        return self.smart_delta.waf()


def _as_sources(jobs) -> list[RequestSource]:
    """Normalize the engine input list; duplicate names would silently
    merge result slots, so they are rejected."""
    if not jobs:
        raise ValueError("no jobs")
    sources = [as_source(job) for job in jobs]
    names = [s.name for s in sources]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate source names: {names}")
    return sources


def run_counter(
    device: SimulatedSSD,
    jobs: "list[JobSpec | RequestSource]",
    flush_at_end: bool = True,
    sink: TraceSink | None = None,
) -> RunResult:
    """Run sources on a counter-mode device, interleaved round-robin.

    Passing *sink* attaches it to the device for the run, so every host
    request, cache event, GC cycle, and flash op it causes is traced.
    """
    sources = _as_sources(jobs)
    if sink is not None:
        device.attach_sink(sink)
    before = device.smart_snapshot()
    results = {s.name: JobResult(s.name, 0, 0) for s in sources}
    active = sources
    while active:
        still: list[RequestSource] = []
        for source in active:
            request = source.next_request()
            if request is None:
                continue
            kind, lba, sectors = request
            if kind == "write":
                device.write_sectors(lba, sectors)
            elif kind == "read":
                device.read_sectors(lba, sectors)
            elif kind == "trim":
                device.trim_sectors(lba, sectors)
            else:
                device.flush()
            result = results[source.name]
            result.requests += 1
            result.sectors += sectors
            still.append(source)
        active = still
    if flush_at_end:
        device.flush()
    delta = device.smart.delta(before)
    return RunResult(jobs=results, smart_delta=delta)


def _arrival_times(job: JobSpec, t0: int) -> np.ndarray:
    """Precompute an open-loop job's arrival times (ns, int64).

    Gaps come from a dedicated RNG stream keyed on the job seed, so the
    address/kind stream is identical between submission modes — only
    *when* requests arrive differs.  Every gap is at least 1 ns, keeping
    arrivals strictly increasing per job.
    """
    rng = np.random.default_rng([job.seed, _ARRIVAL_STREAM])
    mean_gap_ns = 1e9 / job.rate_iops
    if job.arrival == "poisson":
        gaps = rng.exponential(mean_gap_ns, size=job.io_count)
    elif job.arrival == "diurnal":
        gaps = _diurnal_gaps(job, rng)
    elif job.arrival == "bursty":
        gaps = _bursty_gaps(job, rng)
    else:
        gaps = np.full(job.io_count, mean_gap_ns)
    gaps = np.maximum(gaps.astype(np.int64), 1)
    return t0 + np.cumsum(gaps)


def _diurnal_gaps(job: JobSpec, rng: np.random.Generator) -> np.ndarray:
    """Nonhomogeneous Poisson gaps following a sinusoidal load curve.

    Lewis-Shedler thinning: candidate arrivals are drawn at the peak
    rate ``rate_iops * (1 + amplitude)`` and accepted with probability
    ``rate(t) / rate_peak``, where ``t`` is job-relative time — so the
    accepted stream is exactly Poisson with the time-varying rate.
    Candidates are generated in chunks until ``io_count`` survive.
    """
    amplitude = job.diurnal_amplitude
    if amplitude == 0.0:
        return rng.exponential(1e9 / job.rate_iops, size=job.io_count)
    peak_gap_ns = 1e9 / (job.rate_iops * (1.0 + amplitude))
    omega = 2.0 * np.pi / (job.diurnal_period_s * 1e9)
    accepted: list[np.ndarray] = []
    kept = 0
    clock = 0.0
    while kept < job.io_count:
        chunk = max(256, 2 * (job.io_count - kept))
        candidates = clock + np.cumsum(
            rng.exponential(peak_gap_ns, size=chunk))
        clock = float(candidates[-1])
        thin = (1.0 + amplitude * np.sin(omega * candidates)) / (1.0 + amplitude)
        keep = candidates[rng.random(chunk) < thin]
        accepted.append(keep)
        kept += keep.size
    times = np.concatenate(accepted)[:job.io_count]
    return np.diff(times, prepend=0.0)


def _bursty_gaps(job: JobSpec, rng: np.random.Generator) -> np.ndarray:
    """Two-state modulated Poisson gaps (the noisy-neighbor shape).

    Alternating geometric runs: "normal" requests at the base rate and
    bursts of mean ``burst_len`` requests at ``burst_multiplier`` times
    the base rate, sized so bursts carry ``burst_fraction`` of requests
    in expectation.  Burst traffic rides *on top of* the base rate —
    ``rate_iops`` is the quiescent rate, so bursts genuinely overload.
    """
    mean_gap_ns = 1e9 / job.rate_iops
    burst_gap_ns = mean_gap_ns / job.burst_multiplier
    f = job.burst_fraction
    normal_len = max(job.burst_len * (1.0 - f) / f, 1.0)
    p_normal = min(1.0, 1.0 / normal_len)
    p_burst = min(1.0, 1.0 / job.burst_len)
    segments: list[np.ndarray] = []
    produced = 0
    in_burst = False  # every stream starts in the quiescent state
    while produced < job.io_count:
        if in_burst:
            length = int(rng.geometric(p_burst))
            segments.append(rng.exponential(burst_gap_ns, size=length))
        else:
            length = int(rng.geometric(p_normal))
            segments.append(rng.exponential(mean_gap_ns, size=length))
        produced += length
        in_burst = not in_burst
    return np.concatenate(segments)[:job.io_count]


def _run_timed_single(
    device: TimedSSD, source: RequestSource, t0: int
) -> tuple[list[float], int, int, int, _Degradation]:
    """Bulk-step one source against a fast-path timed device.

    Returns ``(latencies_us, sectors_done, done_at, failed,
    degradation)``.  Byte-identical to the general scheduler loop run
    with this single source: the per-request draws happen in the same
    order, submissions carry the same ``at_ns``, and queue-depth
    accounting (which only feeds trace events) runs exactly when a sink
    is attached.  A degraded device yields a clean partial result:
    refused requests are counted, the surviving ones keep their
    latencies.
    """
    next_request = source.next_request
    submit = device.submit
    lat: list[float] = []
    lat_append = lat.append
    done_at = 0
    failed = 0
    sectors_done = 0
    deg = _Degradation()

    if source.is_open_loop:
        arrivals = source.arrival_times(t0)
        obs = device.obs
        inflight: list[int] = []
        idx = 0
        while (request := next_request()) is not None:
            when = int(arrivals[idx])
            idx += 1
            kind, lba, nsectors = request
            if deg.dead:
                failed += 1
                continue
            try:
                if kind == "flush":
                    done = device.flush(at_ns=when)
                else:
                    done = submit(kind, lba, nsectors, at_ns=when)
            except _FAULT_EXCEPTIONS as exc:
                deg.note(exc, when, len(lat))
                failed += 1
                continue
            complete = done.complete_ns
            lat_append((complete - done.submit_ns) / 1_000)
            sectors_done += nsectors
            if complete > done_at:
                done_at = complete
            if obs.enabled:
                # The inflight heap only feeds QueueDepth events, so it
                # is maintained exactly when someone is listening.
                while inflight and inflight[0] <= when:
                    heapq.heappop(inflight)
                heapq.heappush(inflight, complete)
                obs.emit(QueueDepth(source.name, when, len(inflight)))
        return lat, sectors_done, done_at, failed, deg

    if source.iodepth == 1:
        # Strictly sequential: each request is submitted the instant the
        # previous one completes — no ready heap at all.  A refused
        # request takes no device time, so the next submits at the same
        # instant.
        when = t0
        issued = False
        while (request := next_request()) is not None:
            kind, lba, nsectors = request
            if deg.dead:
                failed += 1
                continue
            try:
                if kind == "flush":
                    done = device.flush(at_ns=when)
                else:
                    done = submit(kind, lba, nsectors, at_ns=when)
            except _FAULT_EXCEPTIONS as exc:
                deg.note(exc, when, len(lat))
                failed += 1
                continue
            complete = done.complete_ns
            lat_append((complete - done.submit_ns) / 1_000)
            sectors_done += nsectors
            when = complete
            issued = True
        if issued:
            done_at = when
        return lat, sectors_done, done_at, failed, deg

    # Closed loop, iodepth > 1: a slot heap of (ready time, tiebreak),
    # seeded and sequenced exactly like the general scheduler so the
    # submission order (and therefore every timeline) matches.
    ready: list[tuple[int, int]] = [(t0, d) for d in range(source.iodepth)]
    heapq.heapify(ready)
    seq = 64
    while ready:
        when, _ = heapq.heappop(ready)
        request = next_request()
        if request is None:
            break
        kind, lba, nsectors = request
        if deg.dead:
            failed += 1
            continue
        try:
            if kind == "flush":
                done = device.flush(at_ns=when)
            else:
                done = submit(kind, lba, nsectors, at_ns=when)
        except _FAULT_EXCEPTIONS as exc:
            deg.note(exc, when, len(lat))
            failed += 1
            if not deg.dead and source.remaining != 0:
                # The slot stays alive: re-arm at the same instant so
                # the remaining budget drains (the stream is finite).
                seq += 1
                heapq.heappush(ready, (when, seq))
            continue
        complete = done.complete_ns
        lat_append((complete - done.submit_ns) / 1_000)
        sectors_done += nsectors
        if complete > done_at:
            done_at = complete
        if source.remaining != 0:
            seq += 1
            heapq.heappush(ready, (complete, seq))
    if deg.dead:
        left = source.remaining
        if left:  # slots died with the device; budget never ran
            failed += left
    return lat, sectors_done, done_at, failed, deg


def run_timed(
    device: TimedSSD,
    jobs: "list[JobSpec | RequestSource]",
    start_ns: int | None = None,
    sink: TraceSink | None = None,
) -> RunResult:
    """Run sources on a timed device.

    Closed-loop sources keep ``iodepth`` requests outstanding: a new
    request is submitted the moment one of its slots completes.
    Open-loop sources (an open-submission ``JobSpec``, or a trace
    replaying its recorded timeline) submit at their arrival times
    whatever the device is doing; the per-source queue depth at each
    arrival is emitted as a :class:`~repro.obs.events.QueueDepth`
    event when a sink is attached.  Sources share the device, so their
    requests contend for channels and dies — the source of the mixed-run
    interference the paper measures.

    Passing *sink* attaches it to the device for the run (timed
    ``host_request`` events then carry latency and stall attribution).
    """
    sources = _as_sources(jobs)
    if sink is not None:
        device.attach_sink(sink)
    before = device.smart.snapshot()
    t0 = device.now if start_ns is None else max(start_ns, device.now)

    if len(sources) == 1 and getattr(device, "fast_path", False):
        # One source never contends with another for the ready heap, so
        # the scheduler degenerates to stepping the stream in bulk; the
        # specialized loops above produce the identical submission
        # sequence (same draw order, same arrival/completion times)
        # without one heap push-pop and dict lookup per request.
        source = sources[0]
        lat, sectors, done_at, failed, deg = _run_timed_single(
            device, source, t0)
        elapsed = max(0, done_at - t0)
        results = {source.name: JobResult(
            name=source.name,
            requests=len(lat),
            sectors=sectors,
            latencies_us=np.asarray(lat),
            elapsed_ns=elapsed,
            failed_requests=failed,
        )}
        delta = device.smart.delta(before)
        return RunResult(jobs=results, smart_delta=delta, elapsed_ns=elapsed,
                         degraded_kind=deg.kind, degraded_at_ns=deg.at_ns,
                         ops_before_degraded=deg.ops_before)

    states = {}
    ready: list[tuple[int, int, str]] = []  # (when, tiebreak, source name)
    for i, source in enumerate(sources):
        state = _SourceState(source)
        states[source.name] = state
        if source.is_open_loop:
            state.arrivals = source.arrival_times(t0)
            heapq.heappush(ready, (int(state.arrivals[0]), i * 64, source.name))
        else:
            for d in range(source.iodepth):
                heapq.heappush(ready, (t0, i * 64 + d, source.name))

    seq = len(sources) * 64
    deg = _Degradation()
    while ready:
        when, _, name = heapq.heappop(ready)
        state = states[name]
        source = state.source
        request = source.next_request()
        if request is None:
            continue
        state.issued += 1
        kind, lba, nsectors = request
        if deg.dead:
            state.failed += 1
            continue
        try:
            if kind == "flush":
                done = device.flush(at_ns=when)
            else:
                done = device.submit(kind, lba, nsectors, at_ns=when)
        except _FAULT_EXCEPTIONS as exc:
            deg.note(exc, when,
                     sum(len(s.lat) for s in states.values()))
            state.failed += 1
            if deg.dead:
                continue  # remaining pops drain as failures
            # The source keeps going: open-loop arrivals are immutable,
            # a closed-loop slot re-arms at the same instant (a refused
            # request takes no device time).
            if source.is_open_loop:
                if state.issued < len(state.arrivals):
                    seq += 1
                    next_at = int(state.arrivals[state.issued])
                    heapq.heappush(ready, (next_at, seq, name))
            elif source.remaining != 0:
                seq += 1
                heapq.heappush(ready, (when, seq, name))
            continue
        state.lat.append(done.latency_us)
        state.sectors += nsectors
        state.done_at = max(state.done_at, done.complete_ns)
        if source.is_open_loop:
            # Queue-depth accounting: completions due by this arrival
            # have drained; this request is now in flight.
            while state.inflight and state.inflight[0] <= when:
                heapq.heappop(state.inflight)
            heapq.heappush(state.inflight, done.complete_ns)
            if device.obs.enabled:
                device.obs.emit(QueueDepth(name, when, len(state.inflight)))
            if state.issued < len(state.arrivals):
                seq += 1
                next_at = int(state.arrivals[state.issued])
                heapq.heappush(ready, (next_at, seq, name))
        elif source.remaining != 0:
            seq += 1
            heapq.heappush(ready, (done.complete_ns, seq, name))

    results = {}
    elapsed_total = 0
    for name, state in states.items():
        elapsed = max(0, state.done_at - t0)
        elapsed_total = max(elapsed_total, elapsed)
        left = state.source.remaining
        results[name] = JobResult(
            name=name,
            requests=len(state.lat),
            sectors=state.sectors,
            latencies_us=np.asarray(state.lat),
            elapsed_ns=elapsed,
            # a dead device leaves budget in the heap; it all failed.
            failed_requests=state.failed + (left if left else 0),
        )
    delta = device.smart.delta(before)
    return RunResult(jobs=results, smart_delta=delta, elapsed_ns=elapsed_total,
                     degraded_kind=deg.kind, degraded_at_ns=deg.at_ns,
                     ops_before_degraded=deg.ops_before)
