"""The workload engine: runs request sources against simulated devices.

Every workload — fio-style :class:`~repro.workloads.spec.JobSpec`
synthetics, recorded block traces, file-system scenarios, storage
engines (:mod:`repro.engines`) — reaches a device through one
abstraction: the :class:`~repro.workloads.source.RequestSource`.  Both
run functions accept specs and sources interchangeably (specs wrap into
:class:`~repro.workloads.source.JobSource`).

One scheduler loop, :func:`run_timed`, serves every run, one source or
many: a heap of ``(when, tiebreak, source)`` entries, popped in time
order.  Each source submits **closed-loop** at its iodepth (fio's
default model) or **open-loop** at its arrival schedule (a JobSpec's
rate process, or a trace's recorded timeline): arrivals are independent
of completions, so a device that cannot keep up accumulates queue —
latency grows without bound instead of throughput silently dropping.
Open-loop is the honest way to measure tails at a target load (Fig 3).

:func:`run_counter` is the same loop on a zero-latency device (counter
mode), plus a final flush inside the SMART window — the mode for
write-amplification studies (Fig 4).  Every request completes at its
submit time there, so closed-loop, iodepth-1 sources interleave
round-robin, one request per source per round, which matches the
paper's "ran all workloads concurrently" protocol when jobs are given
equal request budgets.
"""

from __future__ import annotations

import heapq
from array import array
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from repro.obs.events import QueueDepth
from repro.obs.sinks import TALLIES, TraceSink
from repro.sim.kernel import PowerLoss
from repro.ssd.allocation import OutOfSpace
from repro.ssd.ftl import ReadOnlyError
from repro.ssd.smart import SmartCounters
from repro.ssd.timed import TimedSSD
from repro.workloads.source import _BLOCK_REQUESTS, RequestSource, as_source
from repro.workloads.spec import JobSpec

#: RNG stream constant for open-loop arrival gaps: a separate
#: ``default_rng([seed, _ARRIVAL_STREAM])`` stream so switching
#: submission modes never perturbs a job's address/kind sequence.
_ARRIVAL_STREAM = 0x0A221

#: diurnal candidates thinned per step (see ``_diurnal_gaps``).
_THINNING_STEP = 16384

#: Degradations a device can announce mid-run that the engine survives:
#: a read-only FTL and an exhausted spare pool fail the offending
#: request (reads and flushes still serve); a power loss kills the
#: device — every later request of every job fails.
_FAULT_EXCEPTIONS = (ReadOnlyError, OutOfSpace, PowerLoss)


class _Degradation:
    """First-failure bookkeeping of a timed run."""

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
    """One source's progress through :func:`run_timed`.

    What a run keeps of a request is 8 bytes: its latency in an int64
    buffer.  The sector total and the finish time are running values,
    and an open-loop source holds its arrival times as an int64 array,
    one block of them at a time as Python ints."""

    __slots__ = ("source", "next_request", "latencies_ns", "sectors",
                 "last_complete_ns", "arrivals", "block", "cursor",
                 "inflight", "failed")

    def __init__(self, source: RequestSource) -> None:
        self.source = source
        self.next_request = source.next_request
        #: latency (ns) of each request the device accepted.
        self.latencies_ns = array("q")
        self.sectors = 0
        self.last_complete_ns = 0
        #: open-loop arrival blocks (:func:`_arrival_blocks`); None for
        #: a closed-loop source.
        self.arrivals: Iterator[list[int]] | None = None
        #: the arrival block being served, and the index in it of the
        #: last arrival submitted.
        self.block: list[int] = []
        self.cursor = 0
        #: completion times of requests in flight, kept only while a
        #: sink listens (it feeds nothing but ``QueueDepth`` events).
        self.inflight: list[int] = []
        self.failed = 0


def _arrival_blocks(times: np.ndarray) -> Iterator[list[int]]:
    """*times* as Python ints, ``_BLOCK_REQUESTS`` at a time.  The array
    is freed once the last block has been served."""
    for start in range(0, len(times), _BLOCK_REQUESTS):
        yield times[start:start + _BLOCK_REQUESTS].tolist()


@dataclass
class JobResult:
    """Outcome of one job in one run."""

    name: str
    requests: int
    sectors: int
    #: request latencies in microseconds (all zero at zero latency).
    latencies_us: np.ndarray | None = None
    #: simulated duration of the job in ns (0 for a closed-loop job at
    #: zero latency).
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
    # In place: one int64 array beside the float gaps at the peak.
    arrivals = gaps.astype(np.int64)
    del gaps
    np.maximum(arrivals, 1, out=arrivals)
    np.cumsum(arrivals, out=arrivals)
    arrivals += t0
    return arrivals


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
    # Accepted times, turned into gaps in place at the end.
    times = np.empty(job.io_count)
    # The thinning ratio and the uniform draws of one step: a chunk's
    # candidates are tested a step at a time in these two buffers, which
    # draws the same uniforms, in the same order, as one call per chunk.
    ratio = np.empty(_THINNING_STEP)
    uniform = np.empty(_THINNING_STEP)
    kept = 0
    clock = 0.0
    while kept < job.io_count:
        chunk = max(256, 2 * (job.io_count - kept))
        candidates = rng.exponential(peak_gap_ns, size=chunk)
        np.cumsum(candidates, out=candidates)
        candidates += clock
        clock = float(candidates[-1])
        for lo in range(0, chunk, _THINNING_STEP):
            if kept >= job.io_count:
                break
            step = candidates[lo:lo + _THINNING_STEP]
            r, u = ratio[:step.size], uniform[:step.size]
            # (1 + amplitude * sin(omega * t)) / (1 + amplitude)
            np.multiply(step, omega, out=r)
            np.sin(r, out=r)
            r *= amplitude
            r += 1.0
            r /= 1.0 + amplitude
            rng.random(out=u)
            keep = step[u < r][:job.io_count - kept]
            times[kept:kept + keep.size] = keep
            kept += keep.size
        # Free the chunk before the next one, or the diff below, runs.
        del candidates, step
    # In place, as ``np.diff(times, prepend=0.0)``.
    np.subtract(times[1:], times[:-1], out=times[1:])
    return times


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


def run_timed(
    device: TimedSSD,
    jobs: "list[JobSpec | RequestSource]",
    start_ns: int | None = None,
    sink: TraceSink | None = None,
) -> RunResult:
    """Run sources on a device, timed or zero-latency.

    Closed-loop sources keep ``iodepth`` requests outstanding: a new
    request is submitted the moment one of its slots completes.
    Open-loop sources (an open-submission ``JobSpec``, or a trace
    replaying its recorded timeline) submit at their arrival times
    whatever the device is doing; the per-source queue depth at each
    arrival is emitted as a :class:`~repro.obs.events.QueueDepth`
    event when a sink is attached (tallied, if the sink aggregates).
    Sources share the device, so their requests contend for channels and
    dies — the source of the mixed-run interference the paper measures.

    Passing *sink* attaches it to the device for the run, so every host
    request, cache event, GC cycle, and flash op it causes is traced
    (on a timed device ``host_request`` events also carry latency and
    stall attribution).
    """
    sources = _as_sources(jobs)
    if sink is not None:
        device.attach_sink(sink)
    before = device.smart.snapshot()
    t0 = device.now if start_ns is None else max(start_ns, device.now)

    states = [_SourceState(source) for source in sources]
    # (when, tiebreak, state): a tiebreak is never reused, so entries
    # are totally ordered without ever comparing the states.
    ready: list[tuple[int, int, _SourceState]] = []
    for state in states:
        source = state.source
        if source.is_open_loop:
            state.arrivals = _arrival_blocks(source.arrival_times(t0))
            state.block = block = next(state.arrivals, [])
            if block:
                ready.append((block[0], len(ready), state))
        else:
            for _ in range(source.iodepth):
                ready.append((t0, len(ready), state))
    heapq.heapify(ready)

    seq = len(ready)
    deg = _Degradation()
    obs = device.obs
    tally = TALLIES[obs.__class__] if obs.enabled else None
    submit = device.submit
    heappop, heapreplace = heapq.heappop, heapq.heapreplace
    while ready:
        # The head stays in the heap while its request runs (the device
        # never touches the heap) and is re-armed with one heapreplace.
        when, _, state = ready[0]
        request = state.next_request()
        if request is None:
            heappop(ready)
            continue
        kind, lba, nsectors = request
        if deg.dead:
            state.failed += 1
            heappop(ready)
            continue
        arrivals = state.arrivals
        try:
            if kind == "flush":
                done = device.flush(at_ns=when)
            else:
                done = submit(kind, lba, nsectors, at_ns=when)
        except _FAULT_EXCEPTIONS as exc:
            deg.note(exc, when, sum(len(s.latencies_ns) for s in states))
            state.failed += 1
            if deg.dead:
                heappop(ready)  # remaining pops drain as failures
                continue
            # The source keeps going: open-loop arrivals are immutable,
            # a closed-loop slot re-arms at the same instant (a refused
            # request takes no device time).
            rearm_at = when
        else:
            rearm_at = done.complete_ns
            # A submission can be clamped to the device clock, so the
            # latency runs from the request's own submit time.
            state.latencies_ns.append(rearm_at - done.submit_ns)
            state.sectors += done.nsectors
            if rearm_at > state.last_complete_ns:
                state.last_complete_ns = rearm_at
            if arrivals is not None and obs.enabled:
                # Queue-depth accounting: completions due by this arrival
                # have drained; this request is now in flight.
                inflight = state.inflight
                while inflight and inflight[0] <= when:
                    heappop(inflight)
                heapq.heappush(inflight, rearm_at)
                if tally is not None:
                    tally(obs, "queue_depth", 1, len(inflight))
                else:
                    obs.emit(QueueDepth(state.source.name, when,
                                        len(inflight)))
        seq += 1
        if arrivals is None:
            # Closed loop: the slot is free again.  An exhausted source's
            # slots draw None on their next pop and leave the heap there.
            heapreplace(ready, (rearm_at, seq, state))
        else:
            block = state.block
            state.cursor = cursor = state.cursor + 1
            if cursor == len(block):
                # The next block; [] once every arrival was served.
                state.block = block = next(arrivals, [])
                state.cursor = cursor = 0
            if block:
                heapreplace(ready, (block[cursor], seq, state))
            else:
                heappop(ready)

    results = {}
    elapsed_total = 0
    for state in states:
        name = state.source.name
        elapsed = max(0, state.last_complete_ns - t0)
        elapsed_total = max(elapsed_total, elapsed)
        left = state.source.remaining
        results[name] = JobResult(
            name=name,
            requests=len(state.latencies_ns),
            sectors=state.sectors,
            # int64 ns below 2**53 convert exactly, so this rounds as
            # the per-request (complete - submit) / 1_000 does.
            latencies_us=np.frombuffer(state.latencies_ns,
                                       dtype=np.int64) / 1_000,
            elapsed_ns=elapsed,
            # a dead device leaves budget in the heap; it all failed.
            failed_requests=state.failed + (left if left else 0),
        )
    delta = device.smart.delta(before)
    return RunResult(jobs=results, smart_delta=delta, elapsed_ns=elapsed_total,
                     degraded_kind=deg.kind, degraded_at_ns=deg.at_ns,
                     ops_before_degraded=deg.ops_before)


def precondition(device: TimedSSD, fill: float = 0.0, overwrites: int = 0,
                 rng: np.random.Generator | None = None) -> None:
    """Put a study's drive in its starting state: write the first
    ``fill`` of its sectors in order, 8 per write, then *overwrites*
    one-sector writes at ``rng.integers(span)``, where ``span`` is the
    filled region (the whole device when nothing was filled).

    Every write is submitted at ``device.now``.  Nothing is flushed or
    quiesced: each study ends its preparation as its protocol says."""
    submit = device.submit
    filled = int(device.num_sectors * fill)
    for lba in range(0, filled, 8):
        submit("write", lba, min(8, filled - lba), at_ns=device.now)
    if not overwrites:
        return
    if rng is None:
        raise ValueError("precondition: overwrites need an rng")
    span = filled or device.num_sectors
    for _ in range(overwrites):
        submit("write", int(rng.integers(span)), 1, at_ns=device.now)


def run_counter(device: TimedSSD, jobs: "list[JobSpec | RequestSource]",
                sink: TraceSink | None = None) -> RunResult:
    """:func:`run_timed` on a zero-latency device, then one flush, both
    inside the SMART window (a device that lost power is not flushed)."""
    before = device.smart_snapshot()
    result = run_timed(device, jobs, sink=sink)
    if result.degraded_kind != "power_cut":
        device.flush()
    result.smart_delta = device.smart.delta(before)
    return result
