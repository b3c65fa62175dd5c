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

import numpy as np

from repro.analysis.stats import (
    LatencySummary,
    relative_difference,
    summarize_latencies,
    tail_curve,
)
from repro.exp.cell import Cell
from repro.exp.runner import Runner
from repro.obs.summary import BucketAttribution, attribute_latencies
from repro.ssd.config import SsdConfig
from repro.ssd.timed import TimedSSD
from repro.workloads.engine import precondition, run_timed
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
    """One variant's measurements for one workload point.

    ``stall_buckets`` explains the tail: each latency-percentile
    bucket's total latency and the part of it that was cache-admission
    stall (the rest is controller overhead)."""

    variant: str
    bs_sectors: int
    summary: LatencySummary
    iops: float
    tail_percentiles: np.ndarray
    tail_values_us: np.ndarray
    stall_buckets: tuple[BucketAttribution, ...]


@dataclass
class FidelityStudy:
    """All measurements plus the paper's two headline comparisons."""

    results: list[VariantResult] = field(default_factory=list)

    HEADERS = ("request", "FTL variant", "p50 (us)", "p99 (us)",
               "p99.9 (us)", "IOPS")

    def rows(self) -> list[list]:
        """The Fig 3 table: every variant at every request size."""
        rows = []
        for bs in self.block_sizes():
            for variant in self.variants():
                result = self.of(variant, bs)
                rows.append([f"{bs * 4}K", variant,
                             round(result.summary.p50, 1),
                             round(result.summary.p99, 1),
                             round(result.summary.p999, 1),
                             round(result.iops)])
        return rows

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
    the parallel runner fans out."""

    variant: str
    config: SsdConfig
    bs_sectors: int
    io_count: int
    precondition_fraction: float
    tail_points: int


def measure_fidelity_cell(spec: FidelityCellSpec,
                          seed: int = 0) -> VariantResult:
    """Measure one variant at one request size on a fresh device.

    Pure in (spec, seed) — the device is built, preconditioned,
    measured, and discarded here, which is what makes the study grid
    embarrassingly parallel.
    """
    device = TimedSSD(spec.config)
    # A sequential fill, then random overwrites of a quarter of it, to
    # reach GC steady state.
    filled = int(device.num_sectors * spec.precondition_fraction)
    precondition(device, spec.precondition_fraction, filled // 4,
                 np.random.default_rng(3))
    device.flush()
    device.quiesce()
    job = JobSpec(
        name=f"{spec.variant}/bs{spec.bs_sectors}",
        rw="randwrite",
        region=Region(0, device.num_sectors),
        bs_sectors=spec.bs_sectors,
        io_count=spec.io_count,
        iodepth=4,
        seed=97,
    )
    job_result = run_timed(device, [job]).jobs[job.name]
    qs, values = tail_curve(job_result.latencies_us, points=spec.tail_points)
    # A write's latency is controller overhead plus admission stall, as
    # TimedSSD.submit reports it in HostRequest.stall_ns.
    latency_ns = np.rint(job_result.latencies_us * 1000).astype(np.int64)
    stall_ns = np.maximum(latency_ns - device.controller_overhead_ns, 0)
    return VariantResult(
        variant=spec.variant,
        bs_sectors=spec.bs_sectors,
        summary=summarize_latencies(job_result.latencies_us),
        iops=job_result.iops,
        tail_percentiles=qs,
        tail_values_us=values,
        stall_buckets=tuple(attribute_latencies(latency_ns, stall_ns)),
    )


def run_fidelity_study(
    base: SsdConfig,
    block_sizes_sectors: tuple[int, ...] = (1, 2, 4),
    io_count: int = 2000,
    precondition_fraction: float = 0.75,
    tail_points: int = 40,
    variants: list[FtlVariant] | None = None,
    runner: Runner | None = None,
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
        )
        for variant in variants
        for bs in block_sizes_sectors
    ]
    cells = [
        Cell(
            measure_fidelity_cell,
            spec,
            label=f"fidelity:{spec.variant}/bs{spec.bs_sectors}",
        )
        for spec in specs
    ]
    return FidelityStudy((runner or Runner(jobs=1)).run(cells))
