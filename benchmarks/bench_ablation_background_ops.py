"""Ablation: the §2.1 "unpredictable background operations".

Two demonstrations on one device:

1. idle maintenance (idle GC / wear leveling / refresh) runs while the
   host is quiet and *delays the next foreground request* — the reason
   embedded/real-time systems over-provision around SSDs;
2. a hardware probe on the flash bus *sees* those operations happening
   outside any host-request window, recovering the attribution a
   black-box observer lacks.
"""

import numpy as np

from repro.core.probe.analyzer import TLA7000, LogicAnalyzer
from repro.core.probe.decoder import decode_trace_windows
from repro.core.probe.inference import HostOpRecord, infer_ftl_features
from repro.flash.timing import profile
from repro.ssd.presets import vertex2_like
from repro.ssd.timed import BusTap, TimedSSD


def build_busy_device():
    config = vertex2_like(scale=2).with_changes(
        wear_leveling=True, wear_leveling_delta=4,
    )
    tap = BusTap(config.geometry, profile(config.timing_name), channel=0)
    device = TimedSSD(config, bus_tap=tap)
    rng = np.random.default_rng(11)
    host_log = []
    for i in range(9000):
        # A few known LBAs are kept deterministically written so the
        # foreground-delay experiment has data to read back.
        lba = i % 16 if i < 16 else int(rng.integers(device.num_sectors))
        request = device.submit("write", lba, 1, at_ns=device.now)
        host_log.append(HostOpRecord("write", request.submit_ns,
                                     request.complete_ns, 1))
    flush = device.flush()
    host_log.append(HostOpRecord("flush", flush.submit_ns,
                                 flush.complete_ns, 0))
    device.quiesce()
    return device, tap, host_log


def test_background_ops_visible_to_probe(figure_output):
    device, tap, host_log = build_busy_device()
    # Host goes quiet; the FTL does not.  The analyzer is re-armed at
    # the start of the idle window (a real session would trigger on bus
    # activity while knowing the host queue is empty).
    idle_start = device.now
    for _ in range(4):
        device.idle(max_blocks=4)
    result = decode_trace_windows(tap.trace, LogicAnalyzer(TLA7000),
                                  start=idle_start)
    report = infer_ftl_features(
        result.ops, host_log,
        sector_size=device.geometry.sector_size,
    )
    figure_output(
        "ablation_background_probe",
        "Ablation — probe view of idle-time background operations",
        report.HEADERS,
        report.rows(),
    )
    did_background_work = (device.ftl.stats.idle_gc_blocks
                           + device.ftl.stats.wear_migrations) > 0
    assert did_background_work
    # The probe attributes flash ops to the idle window.
    assert report.background_ops > 0


def test_background_ops_delay_foreground(figure_output):
    device, _, _ = build_busy_device()
    start = device.now
    quiet_us = max(
        device.submit("read", lba, 1, at_ns=start).latency_us
        for lba in range(8)
    )
    device.quiesce()
    start2 = device.now
    device.idle(max_blocks=8)  # maintenance fires...
    busy_us = max(
        device.submit("read", lba, 1, at_ns=start2 + 1).latency_us
        for lba in range(8, 16)
    )  # ...mid-read, across several dies
    figure_output(
        "ablation_background_latency",
        "Ablation — read latency with and without background maintenance",
        ["condition", "read latency (us)"],
        [["quiet device", round(quiet_us, 1)],
         ["during idle maintenance", round(busy_us, 1)]],
    )
    if device.ftl.stats.idle_gc_blocks + device.ftl.stats.wear_migrations:
        assert busy_us > quiet_us
