#!/usr/bin/env python3
"""Quickstart: simulate an SSD, run fio-style workloads, read SMART.

This is the ten-minute tour of the library: build a device from a
preset, run a random-write job against it, look at the SMART counters a
real drive would expose, then re-run the same workload on the timed
simulator to get latency percentiles.

Run:  python examples/quickstart.py
"""

from repro.analysis.report import format_table
from repro.analysis.stats import summarize_latencies
from repro.ssd.device import SimulatedSSD
from repro.ssd.presets import mx500_like
from repro.ssd.timed import TimedSSD
from repro.workloads.engine import run_counter, run_timed
from repro.workloads.patterns import Region
from repro.workloads.spec import JobSpec


def main() -> None:
    # ------------------------------------------------------------------
    # 1. A counter-mode (zero-latency) device: op counts and SMART.
    # ------------------------------------------------------------------
    device = SimulatedSSD(mx500_like(scale=2), model="MX500 (repro)")
    info = device.identify()
    print(f"device: {info.model}, {info.capacity_bytes / 2**20:.0f} MiB, "
          f"{info.sector_size} B sectors\n")

    job = JobSpec(
        name="randwrite-4k",
        rw="randwrite",
        region=Region(0, device.num_sectors),
        bs_sectors=1,          # 4 KB requests
        io_count=20_000,
        seed=42,
    )
    result = run_counter(device, [job])
    print("SMART after 20k random 4 KB writes:")
    print(device.smart_render())
    print(f"\nwrite amplification (FTL pages / host pages): "
          f"{result.waf:.3f}")
    print(f"GC invocations: {device.ftl.stats.gc_invocations}, "
          f"migrated sectors: {device.ftl.stats.gc_migrated_sectors}\n")

    # ------------------------------------------------------------------
    # 2. The same workload under the timed simulator: latencies.
    # ------------------------------------------------------------------
    timed = TimedSSD(mx500_like(scale=2))
    timed_job = JobSpec(
        name="randwrite-4k",
        rw="randwrite",
        region=Region(0, timed.num_sectors),
        bs_sectors=1,
        io_count=8_000,
        iodepth=4,
        seed=42,
    )
    timed_result = run_timed(timed, [timed_job])
    job_result = timed_result.jobs["randwrite-4k"]
    summary = summarize_latencies(job_result.latencies_us)
    print(format_table(
        ["metric", "value"],
        [
            ["IOPS", round(job_result.iops)],
            ["mean latency (us)", summary.mean],
            ["p50 (us)", summary.p50],
            ["p99 (us)", summary.p99],
            ["p99.9 (us)", summary.p999],
            ["max (us)", summary.max],
        ],
        title="timed run (closed loop, iodepth 4)",
    ))
    print("\nNote the tail: foreground GC stalls occasional writes by "
          "milliseconds\nwhile the median stays in microseconds — the "
          "opacity problem the paper is about.")


if __name__ == "__main__":
    main()
