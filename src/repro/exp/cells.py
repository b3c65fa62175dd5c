"""Reusable experiment cell functions.

Module-level, pure, and picklable — the building blocks the CLI and the
benchmark suite fan out through :class:`~repro.exp.runner.Runner`.
Each function takes ``(spec, seed)`` where *spec* is a frozen dataclass
carrying everything the measurement needs (including the device
config), and returns a plain picklable result.  A cell writes no file:
whatever explains a measurement travels in its result, so every cell
is cacheable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ssd.config import SsdConfig
from repro.workloads.spec import JobSpec

#: Churn address patterns understood by :func:`run_churn_cell`.
CHURN_PATTERNS = ("hotcold", "uniform")


# ----------------------------------------------------------------------
# Counter-mode churn (WAF / GC / mapping studies)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ChurnCell:
    """Single-sector random-write churn against a counter-mode device.

    ``hotcold`` draws one uniform [0,1) variate per write to choose the
    hot region (traffic share ``hot_traffic``, space share
    ``1/hot_divisor``); ``uniform`` draws one LBA over the whole device.
    The draw sequences mirror the original serial benchmark loops
    exactly, so migrated studies stay byte-identical to their goldens.
    """

    config: SsdConfig
    writes: int
    pattern: str = "hotcold"
    hot_divisor: int = 5
    hot_traffic: float = 0.8


@dataclass(frozen=True)
class ChurnResult:
    """SMART/FTL aggregates a churn cell reports back."""

    waf: float
    erase_count: int
    gc_migrated_sectors: int
    meta_program_pages: int


def run_churn_cell(spec: ChurnCell, seed: int = 3) -> ChurnResult:
    from repro.ssd.device import SimulatedSSD

    if spec.pattern not in CHURN_PATTERNS:
        raise ValueError(f"unknown churn pattern {spec.pattern!r}")
    device = SimulatedSSD(spec.config)
    rng = np.random.default_rng(seed)
    if spec.pattern == "hotcold":
        hot = max(1, device.num_sectors // spec.hot_divisor)
        for _ in range(spec.writes):
            if rng.random() < spec.hot_traffic:
                lba = int(rng.integers(hot))
            else:
                lba = hot + int(rng.integers(device.num_sectors - hot))
            device.write_sectors(lba, 1)
    else:
        for _ in range(spec.writes):
            device.write_sectors(int(rng.integers(device.num_sectors)), 1)
    device.flush()
    return ChurnResult(
        waf=device.smart.waf(),
        erase_count=device.smart.erase_count,
        gc_migrated_sectors=device.ftl.stats.gc_migrated_sectors,
        meta_program_pages=device.smart.meta_program_pages,
    )


# ----------------------------------------------------------------------
# Timed single-job run (latency studies, the CLI `latency` command)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class TimedJobCell:
    """One fio-style job against a fresh timed device."""

    config: SsdConfig
    job: JobSpec


def run_timed_job_cell(spec: TimedJobCell, seed: int = 0):
    from repro.ssd.timed import TimedSSD
    from repro.workloads.engine import run_timed

    device = TimedSSD(spec.config)
    return run_timed(device, [spec.job])


# ----------------------------------------------------------------------
# Sequential-write NAND-page sweep (Fig 4a family)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class NandPageSweepCell:
    """Fig 4a protocol: converged host-bytes-per-NAND-page."""

    config: SsdConfig
    sizes_bytes: tuple[int, ...]


def run_nand_page_sweep_cell(spec: NandPageSweepCell, seed: int = 0) -> float:
    from repro.core.blackbox.nand_page import sequential_write_sweep
    from repro.ssd.device import SimulatedSSD

    device = SimulatedSSD(spec.config)
    estimate = sequential_write_sweep(device, sizes_bytes=list(spec.sizes_bytes))
    return float(estimate.converged_bytes_per_page)


# ----------------------------------------------------------------------
# pSLC burst absorption (timed)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class PslcBurstCell:
    """Sequential burst into a timed device; reports mean latency and
    the pSLC drain traffic it left behind."""

    config: SsdConfig
    burst_sectors: int = 160


def run_pslc_burst_cell(spec: PslcBurstCell, seed: int = 0) -> tuple[float, int]:
    from repro.ssd.timed import TimedSSD

    device = TimedSSD(spec.config)
    latencies = []
    for lba in range(0, min(spec.burst_sectors, device.num_sectors), 1):
        request = device.submit("write", lba, 1, at_ns=device.now)
        latencies.append(request.latency_us)
    return float(np.mean(latencies)), device.smart.pslc_program_pages
