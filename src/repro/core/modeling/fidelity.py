"""Fig 3 / §2.1: how much FTL design choices move the numbers a
simulator claims to predict.

MQSim validated itself against real drives to within 18 % on mean
response time.  The paper's counter-experiment: take a baseline FTL and
flip three *basic* design knobs one at a time —

* GC victim selection: greedy → randomized-greedy,
* write-cache designation: data → mapping metadata,
* page allocation scheme: CWDP → PDWC

— then measure synthetic random-write workloads of increasing request
size.  Mean differences across these *fundamentally different FTLs* sit
near the simulator's own error margin, while 99th-percentile latencies
spread by up to an order of magnitude: the fidelity bar that matters for
tail behaviour is far beyond what the validation establishes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.analysis.stats import (
    LatencySummary,
    relative_difference,
    summarize_latencies,
    tail_curve,
)
from repro.exp.cell import Cell
from repro.exp.runner import Runner
from repro.ssd.config import SsdConfig
from repro.ssd.timed import TimedSSD
from repro.workloads.engine import run_timed
from repro.workloads.patterns import Region
from repro.workloads.spec import JobSpec

#: MQSim's self-reported accuracy envelope.
MQSIM_ERROR_MARGIN = 0.18


@dataclass(frozen=True)
class FtlVariant:
    """One FTL configuration under comparison."""

    name: str
    config: SsdConfig


def paper_variants(base: SsdConfig) -> list[FtlVariant]:
    """The baseline plus the paper's three single-knob flips."""
    return [
        FtlVariant("baseline", base),
        FtlVariant("gc=randomized_greedy",
                   base.with_changes(gc_policy="randomized_greedy",
                                     gc_sample_size=4)),
        FtlVariant("cache=mapping",
                   base.with_changes(cache_designation="mapping")),
        FtlVariant("alloc=PDWC",
                   base.with_changes(allocation_scheme="PDWC")),
    ]


@dataclass
class VariantResult:
    """One variant's measurements for one workload point."""

    variant: str
    bs_sectors: int
    summary: LatencySummary
    iops: float
    tail_percentiles: np.ndarray
    tail_values_us: np.ndarray


@dataclass
class FidelityStudy:
    """All measurements plus the paper's two headline comparisons."""

    results: list[VariantResult] = field(default_factory=list)

    def of(self, variant: str, bs: int) -> VariantResult:
        for result in self.results:
            if result.variant == variant and result.bs_sectors == bs:
                return result
        raise KeyError((variant, bs))

    def variants(self) -> list[str]:
        seen = []
        for result in self.results:
            if result.variant not in seen:
                seen.append(result.variant)
        return seen

    def block_sizes(self) -> list[int]:
        seen = []
        for result in self.results:
            if result.bs_sectors not in seen:
                seen.append(result.bs_sectors)
        return seen

    def mean_divergence(self, bs: int, baseline: str = "baseline") -> dict[str, float]:
        """Relative mean-latency difference of each variant vs baseline."""
        base = self.of(baseline, bs)
        return {
            result.variant: relative_difference(result.summary.mean,
                                                base.summary.mean)
            for result in self.results
            if result.bs_sectors == bs and result.variant != baseline
        }

    def p99_spread(self, bs: int) -> float:
        """max/min of p99 latency across variants (the Fig 3 headline)."""
        values = [r.summary.p99 for r in self.results if r.bs_sectors == bs]
        positive = [v for v in values if v > 0]
        if len(positive) < 2:
            return 1.0
        return max(positive) / min(positive)

    def within_mqsim_margin(self, bs: int) -> dict[str, bool]:
        """Would each variant pass as 'the same device' at 18% accuracy?"""
        return {
            name: divergence <= MQSIM_ERROR_MARGIN * 1.5
            for name, divergence in self.mean_divergence(bs).items()
        }


@dataclass(frozen=True)
class FidelityCellSpec:
    """One (variant, request size) point of the Fig 3 grid — the unit
    the parallel runner fans out.  ``trace_path`` makes the cell write
    its own JSONL event trace from inside the worker."""

    variant: str
    config: SsdConfig
    bs_sectors: int
    io_count: int
    precondition_fraction: float
    tail_points: int
    trace_path: str | None = None


def fidelity_trace_path(trace_dir: str | Path, variant: str, bs: int,
                        prefix: str = "fidelity") -> Path:
    """Canonical trace-file name for one fidelity cell."""
    safe = variant.replace("=", "-")
    return Path(trace_dir) / f"{prefix}_{safe}_bs{bs}.jsonl"


def measure_fidelity_cell(spec: FidelityCellSpec,
                          seed: int = 0) -> VariantResult:
    """Measure one variant at one request size on a fresh device.

    Pure in (spec, seed) — the device is built, preconditioned,
    measured, and discarded here, which is what makes the study grid
    embarrassingly parallel.
    """
    device = TimedSSD(spec.config)
    _precondition(device, spec.precondition_fraction)
    sink = None
    if spec.trace_path is not None:
        from repro.obs.sinks import JsonlSink

        sink = JsonlSink(spec.trace_path)
        device.attach_sink(sink)
    job = JobSpec(
        name=f"{spec.variant}/bs{spec.bs_sectors}",
        rw="randwrite",
        region=Region(0, device.num_sectors),
        bs_sectors=spec.bs_sectors,
        io_count=spec.io_count,
        iodepth=4,
        seed=97,
    )
    result = run_timed(device, [job])
    if sink is not None:
        sink.close()
    job_result = result.jobs[job.name]
    qs, values = tail_curve(job_result.latencies_us, points=spec.tail_points)
    return VariantResult(
        variant=spec.variant,
        bs_sectors=spec.bs_sectors,
        summary=summarize_latencies(job_result.latencies_us),
        iops=job_result.iops,
        tail_percentiles=qs,
        tail_values_us=values,
    )


def run_fidelity_study(
    base: SsdConfig,
    block_sizes_sectors: tuple[int, ...] = (1, 2, 4),
    io_count: int = 2000,
    precondition_fraction: float = 0.75,
    tail_points: int = 40,
    variants: list[FtlVariant] | None = None,
    runner: Runner | None = None,
    trace_dir: str | Path | None = None,
    trace_prefix: str = "fidelity",
) -> FidelityStudy:
    """Measure every variant at every request size.

    Devices are preconditioned with a full sequential pass plus random
    overwrites (the standard protocol before measuring SSD latency) so
    GC is active during measurement.

    Every (variant, request size) point is an independent
    :class:`~repro.exp.cell.Cell`; passing *runner* fans them out over
    worker processes (``REPRO_JOBS`` controls the width) with results
    merged back in grid order, byte-identical to the serial
    ``Runner(jobs=1)`` run used when no runner is given.

    Tracing: pass *trace_dir* to have each cell stream its own JSONL
    event trace (named by :func:`fidelity_trace_path`) from inside the
    worker; traced cells bypass the result cache since the trace is a
    side effect.
    """
    variants = variants if variants is not None else paper_variants(base)
    specs = [
        FidelityCellSpec(
            variant=variant.name,
            config=variant.config,
            bs_sectors=bs,
            io_count=io_count,
            precondition_fraction=precondition_fraction,
            tail_points=tail_points,
            trace_path=(str(fidelity_trace_path(trace_dir, variant.name, bs,
                                                trace_prefix))
                        if trace_dir is not None else None),
        )
        for variant in variants
        for bs in block_sizes_sectors
    ]
    cells = [
        Cell(
            measure_fidelity_cell,
            spec,
            label=f"fidelity:{spec.variant}/bs{spec.bs_sectors}",
            cacheable=spec.trace_path is None,
        )
        for spec in specs
    ]
    return FidelityStudy((runner or Runner(jobs=1)).run(cells))


def _precondition(device: TimedSSD, fraction: float, seed: int = 3) -> None:
    """Sequential fill + random overwrites to reach GC steady state."""
    rng = np.random.default_rng(seed)
    sectors = int(device.num_sectors * fraction)
    step = 8
    for lba in range(0, sectors, step):
        device.submit("write", lba, min(step, sectors - lba), at_ns=device.now)
    for _ in range(sectors // 4):
        lba = int(rng.integers(sectors))
        device.submit("write", lba, 1, at_ns=device.now)
    device.flush()
    device.quiesce()
