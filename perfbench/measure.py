"""The measuring harness: one workload, one mode, one process.

``--trace 0`` sets the workload up three times (reporting the median as
``setup_s``), then times a fixed number of slices with no
instrumentation and reports the end-to-end metrics.

``--trace 1`` replays the first few slices twice on freshly,
identically preconditioned states — once bare, once under span wrappers
— and reports the per-layer metrics, the tracing overhead, and whether
the simulated outcome of every slice was identical both times.

Before every slice (and after the last) a fixed calibration loop is
timed; see :mod:`perfbench.calibrate` for why.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from perfbench import RESULTS_DIR, calibrate, metrics as m
from perfbench.spans import LayerTotal, Tracer, measure_span_overhead
from perfbench.workloads import SliceSummary, Workload

#: fewest slices a run may be cut to (``--quick`` uses exactly this).
MIN_SLICES = 3

#: slices needed before a p90 over slices has ten samples beyond it.
P90_MIN_SLICES = 100


def slices_for(workload: Workload, seconds: float) -> int:
    """How many slices ``--seconds`` buys: a fixed amount of work, so
    two runs with the same arguments execute the same requests."""
    return max(MIN_SLICES, round(seconds * workload.slices_per_second))


def _cpu_seconds() -> float:
    """CPU time of this process (ns resolution) and of the children it
    has reaped (clock ticks)."""
    t = os.times()
    return time.process_time() + t.children_user + t.children_system


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is KiB on Linux


@dataclass
class Pass:
    """Timings and outcomes of one run over some slices."""

    walls: list[float] = field(default_factory=list)
    cpus: list[float] = field(default_factory=list)
    #: one more than slices: cals[i] and cals[i + 1] bracket slice i.
    cals: list[float] = field(default_factory=list)
    #: the same calibration passes on the process CPU clock.
    cpu_cals: list[float] = field(default_factory=list)
    summaries: list[SliceSummary] = field(default_factory=list)
    #: the simulator's exact counts over the pass (after - before).
    counts: dict[str, int] = field(default_factory=dict)

    @property
    def ops(self) -> list[int]:
        return [s.ops for s in self.summaries]

    def calibrate(self) -> None:
        wall, cpu = calibrate.calibration_pass()
        self.cals.append(wall)
        self.cpu_cals.append(cpu)

    @property
    def cu(self) -> float:
        return calibrate.cu_seconds(self.cals)

    @property
    def cu_per_op(self) -> float:
        return calibrate.cu_per_op(self.walls, self.cals, self.ops)

    @property
    def fingerprints(self) -> list[str]:
        return [s.fingerprint for s in self.summaries]


def run_pass(workload: Workload, state, seed: int, slices: int,
             tracer: Tracer | None = None) -> Pass:
    """Time *slices* slices on *state*, calibrating around each."""
    run = Pass()
    before = workload.counters(state)
    run.calibrate()
    for index in range(slices):
        if tracer is not None:
            tracer.slice_id = index
        cpu_before = _cpu_seconds()
        started = time.perf_counter()
        outcome = workload.run_slice(state, seed, index, tracer)
        run.walls.append(time.perf_counter() - started)
        run.cpus.append(_cpu_seconds() - cpu_before)
        run.summaries.append(workload.summarize(state, outcome))
        run.calibrate()
    after = workload.counters(state)
    run.counts = {key: after[key] - before.get(key, 0) for key in after}
    return run


@dataclass
class Result:
    """One benchmark run, in the shape the contract asks for."""

    correct: bool
    attempted: int
    failed: int
    metrics: dict
    #: everything else worth keeping: per-slice fingerprints, problems
    #: found, diagnostics.  Printed on its own line, never the last.
    detail: dict = field(default_factory=dict)

    def result_line(self) -> str:
        return json.dumps({"correct": self.correct,
                           "attempted": self.attempted,
                           "failed": self.failed,
                           "metrics": self.metrics})


def _verdict(workload: Workload, state, run: Pass) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) of a pass."""
    ops = sum(run.ops)
    refused = sum(s.failed for s in run.summaries)
    problems = workload.check(state, run.summaries)
    if refused:
        problems.append(f"{refused} requests refused by the device")
    return ops + refused, refused, problems


# ----------------------------------------------------------------------
# --trace 0: end-to-end
# ----------------------------------------------------------------------


def measure_end_to_end(workload: Workload, seed: int, slices: int,
                       import_s: float, setups: int = 3) -> Result:
    """Set up *setups* times, then time *slices* slices on the last
    state.

    ``setup_s`` is imports plus the median set-up, in **reference
    seconds**: measured seconds scaled by ``REFERENCE_CU_NS`` over the
    CU of this process, so that a machine running 30% slow this minute
    does not read as a 30% set-up regression.
    """
    setup_times = []
    setup_cals = [calibrate.calibration_pass()[0]]
    state = None
    for _ in range(max(1, setups)):
        state = None  # drop the previous device before building the next
        started = time.perf_counter()
        state = workload.setup(seed)
        setup_times.append(time.perf_counter() - started)
        setup_cals.append(calibrate.calibration_pass()[0])
    setup_raw_s = import_s + statistics.median(setup_times)
    run = run_pass(workload, state, seed, slices)
    attempted, failed, problems = _verdict(workload, state, run)

    ops = sum(run.ops)
    wall = sum(run.walls)
    # Every calibration sample of the process: the few taken around the
    # set-ups are too noisy a yardstick on their own.
    setup_cu_ns = calibrate.cu_seconds(setup_cals + run.cals) * 1e9
    values = {
        "cu_per_op": run.cu_per_op,
        "cu_per_op_p50": calibrate.cu_per_op_p50(run.walls, run.cals, run.ops),
        "cpu_cu_per_op": (sum(run.cpus)
                          / calibrate.cu_seconds(run.cpu_cals) / ops),
        "peak_rss_mb": _peak_rss_mb(),
        "setup_s": setup_raw_s * calibrate.REFERENCE_CU_NS / setup_cu_ns,
    }
    detail = {
        "workload": workload.name, "seed": seed, "trace": 0,
        "slices": slices, "ops": ops, "problems": problems,
        "fingerprints": run.fingerprints,
        "bench.cu_ns": run.cu * 1e9,
        "bench.ops_per_s_raw": ops / wall,
        "bench.us_per_op_raw": wall / ops * 1e6,
        "import_s": import_s, "setups_s": setup_times,
        "setup_raw_s": setup_raw_s, "setup_cu_ns": setup_cu_ns,
        "walls_s": run.walls, "cals_s": run.cals, "cpus_s": run.cpus,
        "cpu_cals_s": run.cpu_cals,
        "nproc": os.cpu_count(),
    }
    if slices >= P90_MIN_SLICES:
        detail["bench.cu_per_op_p90"] = float(np.percentile(
            calibrate.slice_cu_per_op(run.walls, run.cals, run.ops), 90))
    return Result(correct=not problems, attempted=attempted, failed=failed,
                  metrics=m.emit(m.END_TO_END_BY_NAME, values), detail=detail)


# ----------------------------------------------------------------------
# --trace 1: per layer
# ----------------------------------------------------------------------


def measure_per_layer(workload: Workload, seed: int, slices: int) -> Result:
    # Bare reference on its own fresh state...
    state = workload.setup(seed)
    bare = run_pass(workload, state, seed, slices)
    attempted, failed, problems = _verdict(workload, state, bare)

    # ...then the same slices on an identical state under the tracer.
    state = workload.setup(seed)
    tracer = Tracer()
    workload.instrument(state, tracer)
    try:
        traced = run_pass(workload, state, seed, slices, tracer)
    finally:
        tracer.restore()
    traced_attempted, traced_failed, traced_problems = _verdict(
        workload, state, traced)
    attempted += traced_attempted
    failed += traced_failed
    problems += [f"traced replay: {p}" for p in traced_problems]

    mismatched = [i for i, (a, b) in enumerate(zip(bare.fingerprints,
                                                   traced.fingerprints))
                  if a != b]
    if mismatched:
        problems.append(f"slices {mismatched} simulate differently under the "
                        f"tracer")
        failed += sum(traced.ops[i] for i in mismatched)

    values = _layer_values(workload, state, bare, traced, tracer)
    values["sim.fingerprint_ok"] = 0.0 if mismatched else 1.0
    if workload.obs_probe:
        state = workload.setup(seed, sink=True)
        sinked = run_pass(workload, state, seed, slices)
        values["obs.null_overhead_ratio"] = sinked.cu_per_op / bare.cu_per_op

    trace_file = RESULTS_DIR / f"trace_{workload.name}.json"
    tracer.dump(trace_file, workload=workload.name, seed=seed,
                slices=slices, cu_ns=traced.cu * 1e9)
    detail = {
        "workload": workload.name, "seed": seed, "trace": 1,
        "slices": slices, "ops": sum(traced.ops), "problems": problems,
        "fingerprints": bare.fingerprints,
        "spans": len(tracer), "trace_file": trace_file.name,
    }
    return Result(correct=not problems, attempted=attempted, failed=failed,
                  metrics=m.emit(m.PER_LAYER_BY_NAME, values), detail=detail)


def _layer_values(workload: Workload, state, bare: Pass, traced: Pass,
                  tracer: Tracer) -> dict[str, float]:
    ops = sum(traced.ops)
    kops = ops / 1000.0
    cu_ns = traced.cu * 1e9
    totals = tracer.totals()
    overhead = measure_span_overhead()

    def layer(name: str) -> LayerTotal:
        return totals.get(name, LayerTotal())

    def self_cu(name: str) -> float:
        return overhead.corrected_self_ns(layer(name)) / cu_ns / ops

    counts = traced.counts
    # Only a single device's SMART counters see every flash op.
    flash_ops = (counts["host_pages"] + counts["ftl_pages"]
                 + counts["read_pages"] + counts["erases"]
                 if "read_pages" in counts else 0)
    values = {
        f"{name}.self_cu_per_op": self_cu(name)
        for name in (m.SOURCE, m.ENGINE, m.TIMED, m.DEVICE, m.KERNEL, m.FTL,
                     m.MAPPING, m.ALLOCATION, m.NAND)
    }
    values.update({
        f"{name}.calls_per_op": layer(name).calls / ops
        for name in (m.KERNEL, m.MAPPING, m.ALLOCATION, m.NAND)
    })
    host_pages = counts.get("host_pages", 0)
    sector_writes = counts.get("host_sector_writes", 0)
    sim_seconds = sum(s.sim_elapsed_ns for s in traced.summaries) / 1e9
    latencies = [s.latencies_us for s in traced.summaries
                 if s.latencies_us is not None]
    values.update({
        "ssd.gc.select_self_cu_per_op": self_cu(m.GC),
        "obs.emit_self_cu_per_op": self_cu(m.OBS),
        "ssd.ftl.flash_ops_per_op": flash_ops / ops,
        # Untraced time: what one simulated flash event costs the host.
        "ssd.ftl.cu_per_flash_op": (bare.cu_per_op * ops / flash_ops
                                    if flash_ops else 0.0),
        "ssd.cache.absorbed_share": (counts.get("cache_absorbed", 0)
                                     / sector_writes if sector_writes else 0.0),
        "ssd.mapping.chunk_loads_per_kop": counts.get("chunk_loads", 0) / kops,
        "ssd.mapping.tp_flushes_per_kop": counts.get("tp_flushes", 0) / kops,
        "ssd.gc.erases_per_kop": counts.get("erases", 0) / kops,
        "ssd.gc.migrated_pages_per_kop": counts.get("gc_pages", 0) / kops,
        "obs.events_per_op": counts.get("events", 0) / ops,
        "sim.waf": counts.get("ftl_pages", 0) / host_pages if host_pages else 0.0,
        "sim.iops": ops / sim_seconds if sim_seconds else 0.0,
        "bench.cu_ns": bare.cu * 1e9,
        "bench.ops_per_s_raw": sum(bare.ops) / sum(bare.walls),
        "bench.us_per_op_raw": sum(bare.walls) / sum(bare.ops) * 1e6,
        "bench.trace_overhead_ratio": traced.cu_per_op / bare.cu_per_op,
        "bench.span_coverage": tracer.root_ns() / (sum(traced.walls) * 1e9),
        "bench.slices": len(traced.walls),
        "bench.ops": ops,
    })
    if latencies:
        merged = np.concatenate(latencies)
        values["sim.p50_us"] = float(np.percentile(merged, 50))
        values["sim.p99_us"] = float(np.percentile(merged, 99))

    values.update(workload.extra_values(state, tracer, bare, traced))
    return values
