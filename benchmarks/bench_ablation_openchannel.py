"""Ablation: open-channel + host FTL vs. black-box firmware FTL.

The paper's §1 upper bound: "open-channel SSDs expose the FTL logic to
the host, yielding highly predictable I/O performance with perfect
scheduling decisions".  Same flash geometry, same timing, same random
overwrite workload at GC steady state:

* the black-box drive pays firmware-timed foreground GC storms in its
  tail;
* the host FTL — which can see the geometry and *choose when reclaim
  happens* — amortizes GC into bounded slices, collapsing the tail.
"""

import numpy as np

from repro.ssd.openchannel import HostFtl, OpenChannelSSD
from repro.ssd.presets import mqsim_baseline
from repro.ssd.timed import TimedSSD
from repro.workloads.engine import run_timed
from repro.workloads.patterns import Region
from repro.workloads.spec import JobSpec

CFG = mqsim_baseline(scale=4)
MEASURE = 6000


def blackbox_latencies():
    device = TimedSSD(CFG)
    rng = np.random.default_rng(4)
    span = int(device.num_sectors * 0.8)
    step = 8
    for lba in range(0, span, step):
        device.submit("write", lba, min(step, span - lba), at_ns=device.now)
    for _ in range(span // 2):
        device.submit("write", int(rng.integers(span)), 1, at_ns=device.now)
    device.quiesce()
    job = JobSpec("probe", "randwrite", Region(0, span), io_count=MEASURE,
                  iodepth=1, seed=9)
    result = run_timed(device, [job])
    return result.jobs["probe"].latencies_us


def openchannel_latencies():
    device = OpenChannelSSD(CFG.geometry, CFG.timing_name)
    host = HostFtl(device, op_ratio=1 - CFG.logical_sectors
                   / (CFG.geometry.capacity_bytes // CFG.geometry.sector_size),
                   gc_step_pages=1)
    rng = np.random.default_rng(4)
    span = int(host.num_lpns * 0.8)
    now = 0
    for lpn in range(span):
        now = max(now, host.write(lpn, now))
    for _ in range(span // 2):
        now = max(now, host.write(int(rng.integers(span)), now))
    rng2 = np.random.default_rng(9)
    latencies = []
    for _ in range(MEASURE):
        done = host.write(int(rng2.integers(span)), now)
        latencies.append((done - now) / 1000)
        now = max(now, done)
    assert host.stats.erases > 0  # GC really ran during measurement era
    return np.asarray(latencies)


def test_openchannel_transparency_bound(figure_output):
    blackbox, openchannel = blackbox_latencies(), openchannel_latencies()
    rows = []
    for name, lat in (("black-box FTL", blackbox),
                      ("open-channel + host FTL", openchannel)):
        p50, p99, p999 = np.percentile(lat, [50, 99, 99.9])
        rows.append([name, round(float(p50), 1), round(float(p99), 1),
                     round(float(p999), 1), round(float(lat.max()), 1)])
    figure_output(
        "ablation_openchannel",
        "Ablation — transparency upper bound (same flash, same workload)",
        ["configuration", "p50 (us)", "p99 (us)", "p99.9 (us)", "max (us)"],
        rows,
    )
    bb999 = float(np.percentile(blackbox, 99.9))
    oc999 = float(np.percentile(openchannel, 99.9))
    # The host-managed device's worst cases are far tighter.
    assert oc999 < bb999 / 3
    assert float(openchannel.max()) < float(blackbox.max())
