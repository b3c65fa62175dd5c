"""Ablation: scheduled background maintenance overlapping host idle gaps.

``bench_ablation_background_ops`` shows the *blocking* form: an explicit
``idle()`` call does maintenance and the next request pays for it.  The
sim-kernel rebuild adds the scheduled form
(:meth:`~repro.ssd.timed.TimedSSD.enable_background_maintenance`): a
kernel process wakes during host idle gaps and does maintenance there,
with no host-side call at all — the way real firmware hides GC debt.

A bursty host (sync write bursts separated by quiet gaps) runs against
two otherwise-identical devices.  With overlap enabled, idle GC pays
down reclaim debt inside the gaps, and the extreme write tail — the
bursts that land on a GC storm — shrinks.
"""

import numpy as np

from repro.ssd.presets import tiny
from repro.ssd.timed import BackgroundPolicy, TimedSSD

BURSTS = 40
BURST_WRITES = 150
GAP_NS = 5_000_000
SEED = 9


def run_bursty(background: bool):
    device = TimedSSD(tiny())
    if background:
        device.enable_background_maintenance(BackgroundPolicy(
            idle_threshold_ns=1_000_000,
            check_interval_ns=1_000_000,
            max_blocks=4,
        ))
    rng = np.random.default_rng(SEED)
    latencies = []
    for _ in range(BURSTS):
        for _ in range(BURST_WRITES):
            request = device.write_sectors(
                int(rng.integers(device.num_sectors)), 1)
            latencies.append(request.latency_us)
        device.now = device.now + GAP_NS  # the host goes quiet
    return device, np.asarray(latencies)


def test_background_overlap_pays_gc_debt_in_gaps(figure_output):
    quiet_dev, quiet_lat = run_bursty(False)
    bg_dev, bg_lat = run_bursty(True)

    def row(tag, device, lat):
        stats = device.ftl.stats
        return [tag, stats.idle_gc_blocks,
                round(float(np.percentile(lat, 50)), 1),
                round(float(np.percentile(lat, 99)), 1),
                round(float(np.percentile(lat, 99.9)), 1)]

    figure_output(
        "ablation_background_overlap",
        "Ablation — maintenance overlapping idle gaps (bursty host)",
        ["maintenance", "idle GC blocks", "p50 (us)", "p99 (us)",
         "p99.9 (us)"],
        [row("none", quiet_dev, quiet_lat),
         row("scheduled overlap", bg_dev, bg_lat)],
    )
    # Maintenance really ran inside the gaps, without any idle() call...
    assert quiet_dev.ftl.stats.idle_gc_blocks == 0
    assert bg_dev.ftl.stats.idle_gc_blocks > 0
    # ...and paying GC debt there shrinks the extreme write tail.
    assert (np.percentile(bg_lat, 99.9) < np.percentile(quiet_lat, 99.9))
