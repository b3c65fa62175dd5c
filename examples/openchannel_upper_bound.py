#!/usr/bin/env python3
"""The transparency upper bound: open-channel vs. black-box (paper §1).

"Open-channel SSDs expose the FTL logic to the host, yielding highly
predictable I/O performance with perfect scheduling decisions, presenting
an upper bound on the improvement potential for SSD transparency."

Same flash geometry and timing, same GC-steady-state random-overwrite
workload, two ways to manage it:

* a black-box firmware FTL (the host sees nothing, GC storms land on
  unlucky writes);
* a host FTL over an open-channel device (the host sees the geometry,
  stripes perfectly, and amortizes GC into bounded slices).

Run:  python examples/openchannel_upper_bound.py
"""

import numpy as np

from repro.analysis.report import format_table
from repro.ssd.openchannel import HostFtl, OpenChannelSSD
from repro.ssd.presets import mqsim_baseline
from repro.ssd.timed import TimedSSD

CFG = mqsim_baseline(scale=4)
MEASURE = 5000


def blackbox() -> np.ndarray:
    device = TimedSSD(CFG)
    rng = np.random.default_rng(4)
    span = int(device.num_sectors * 0.8)
    for lba in range(0, span, 8):
        device.submit("write", lba, min(8, span - lba), at_ns=device.now)
    for _ in range(span // 2):
        device.submit("write", int(rng.integers(span)), 1, at_ns=device.now)
    device.quiesce()
    latencies = []
    for _ in range(MEASURE):
        request = device.submit("write", int(rng.integers(span)), 1,
                                at_ns=device.now)
        latencies.append(request.latency_us)
    return np.asarray(latencies)


def openchannel() -> tuple[np.ndarray, HostFtl]:
    device = OpenChannelSSD(CFG.geometry, CFG.timing_name)
    host = HostFtl(device, op_ratio=0.12, gc_step_pages=1)
    rng = np.random.default_rng(4)
    span = int(host.num_lpns * 0.8)
    now = 0
    for lpn in range(span):
        now = max(now, host.write(lpn, now))
    for _ in range(span // 2):
        now = max(now, host.write(int(rng.integers(span)), now))
    latencies = []
    for _ in range(MEASURE):
        done = host.write(int(rng.integers(span)), now)
        latencies.append((done - now) / 1000)
        now = max(now, done)
    return np.asarray(latencies), host


def main() -> None:
    print("running the black-box drive to GC steady state...")
    bb = blackbox()
    print("running the open-channel host FTL on identical flash...\n")
    oc, host = openchannel()
    rows = []
    for name, lat in (("black-box firmware FTL", bb),
                      ("open-channel + host FTL", oc)):
        p50, p99, p999 = np.percentile(lat, [50, 99, 99.9])
        rows.append([name, round(float(p50), 1), round(float(p99), 1),
                     round(float(p999), 1), round(float(lat.max()), 1)])
    print(format_table(
        ["configuration", "p50 (us)", "p99 (us)", "p99.9 (us)", "max (us)"],
        rows, title="identical flash, identical workload",
    ))
    budget_us = (3 * host.device.timing.program_ns
                 + host.device.timing.erase_ns) / 1000
    print(f"\nhost FTL worst case is hard-bounded by its incremental-GC "
          f"budget (~{budget_us:.0f} us);\nthe firmware FTL's tail is "
          f"whatever its hidden GC decides it is — the paper's point.")


if __name__ == "__main__":
    main()
