"""Analytic write-amplification models, and where they hold.

The paper's §2.1 argues SSD *models* are low fidelity.  The nuance its
citations carry (Desnoyers SYSTOR '12, Hu et al. SYSTOR '09, Van Houdt
SIGMETRICS '13) is that *average* write amplification under uniform
random traffic is actually well understood analytically — it is the
tails, the background machinery, and the proprietary features that
models miss.  This module implements the two classic closed-form /
fixed-point results so the repository can show both sides:

* **random victim selection** — the victim's expected valid fraction
  equals the overall hot utilization ``u``, giving exactly
  ``WA = 1 / (1 - u)``;
* **greedy victim selection** — under uniform random writes the victim's
  steady-state valid fraction ``v`` solves the log-structured-array
  fixed point ``(v - 1) / ln(v) = u`` (Menon's LSA analysis, reused by
  Desnoyers), giving ``WA = 1 / (1 - v)`` — strictly better than random.

``measure_steady_waf`` extracts the comparable quantity from the
simulator (GC programs per host program in a post-warm-up window), and
the validation bench sweeps over-provisioning against both predictions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.flash.geometry import Geometry
from repro.ssd.config import SsdConfig
from repro.ssd.device import SimulatedSSD
from repro.workloads.engine import precondition


def waf_random_gc(utilization: float) -> float:
    """Exact steady-state WA for random victim selection under uniform
    random writes: victims look like average blocks."""
    _check_u(utilization)
    return 1.0 / (1.0 - utilization)


def greedy_victim_valid_fraction(utilization: float, tol: float = 1e-12) -> float:
    """Solve ``(v - 1)/ln(v) = u`` for the greedy victim's valid
    fraction ``v`` (bisection; the left side is monotone on (0, 1))."""
    _check_u(utilization)
    if utilization == 0.0:
        return 0.0

    def lhs(v: float) -> float:
        return (v - 1.0) / np.log(v)

    lo, hi = 1e-15, 1.0 - 1e-15
    for _ in range(200):
        mid = (lo + hi) / 2.0
        if lhs(mid) < utilization:
            lo = mid
        else:
            hi = mid
        if hi - lo < tol:
            break
    return (lo + hi) / 2.0


def waf_greedy_gc(utilization: float) -> float:
    """Steady-state WA for greedy victim selection (LSA fixed point)."""
    v = greedy_victim_valid_fraction(utilization)
    return 1.0 / (1.0 - v)


def _check_u(utilization: float) -> None:
    if not 0.0 <= utilization < 1.0:
        raise ValueError("utilization must be in [0, 1)")


@dataclass
class SteadyWafMeasurement:
    """GC write amplification measured in a steady-state window."""

    utilization: float
    waf_gc: float  # 1 + gc programs / host programs
    gc_programs: int
    host_programs: int


#: a block-rich geometry so active/watermark block reserves are a small
#: correction (the analytic models assume none).
_MODEL_GEOMETRY = Geometry(
    channels=2,
    chips_per_channel=1,
    dies_per_chip=1,
    planes_per_die=2,
    blocks_per_plane=64,
    pages_per_block=32,
    page_size=8192,
    sector_size=4096,
)


def measure_steady_waf(
    op_ratio: float,
    gc_policy: str = "greedy",
    warmup_multiple: float = 3.0,
    measure_writes: int = 20_000,
    seed: int = 21,
) -> SteadyWafMeasurement:
    """Simulate uniform random overwrites to steady state and measure
    the GC-only write amplification, comparable to the analytic models.

    Metadata traffic is configured away and the reported utilization is
    the *effective* one — logical sectors over the capacity the FTL can
    actually circulate (``SsdConfig.circulating_sectors``: no open
    blocks or GC reserve), since the analytic models assume no such
    overheads.
    """
    config = SsdConfig(
        geometry=_MODEL_GEOMETRY,
        op_ratio=op_ratio,
        gc_policy=gc_policy,
        gc_low_water_blocks=1,
        gc_high_water_blocks=2,
        # The analytic models assume pure data traffic.
        mapping_sync_interval=10**9,
        mapping_dirty_tp_limit=10**6,
        cache_sectors=8,
    )
    device = SimulatedSSD(config)
    rng = np.random.default_rng(seed)
    geometry = config.geometry
    capacity = geometry.total_pages * geometry.sectors_per_page
    precondition(device, overwrites=int(capacity * warmup_multiple), rng=rng)
    before = device.smart_snapshot()
    for _ in range(measure_writes):
        device.write_sectors(int(rng.integers(device.num_sectors)), 1)
    delta = device.smart.delta(before)
    host = max(1, delta.host_program_pages)
    waf = 1.0 + (delta.gc_program_pages / host)
    utilization = config.logical_sectors / config.circulating_sectors
    return SteadyWafMeasurement(
        utilization=utilization,
        waf_gc=waf,
        gc_programs=delta.gc_program_pages,
        host_programs=delta.host_program_pages,
    )
