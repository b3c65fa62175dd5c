#!/usr/bin/env python3
"""Probe a flash package's ONFI bus with a logic analyzer (paper §3.1).

Attaches a bus tap to one channel of a timed SSD, drives a format-style
workload, captures the pin waveforms with a TLA7000-class analyzer,
renders the Fig 5 activity view (flat → command/address burst → long
data burst → R/B# busy), decodes the ONFI protocol back out of the
samples, and infers FTL features from the decoded operations.

Also demonstrates the instrument constraint the paper discusses: a
hobbyist analyzer at 10 MHz decodes nothing.

Run:  python examples/probe_flash_bus.py
"""

from repro.analysis.report import format_table
from repro.core.probe.analyzer import HOBBYIST, TLA7000, LogicAnalyzer
from repro.core.probe.decoder import decode_trace_windows
from repro.core.probe.inference import (
    infer_ftl_features,
    probe_format_workload,
    signal_activity,
)
from repro.flash.timing import profile


def main() -> None:
    # An old-style async-bus device (OCZ Vertex II): probeable rates,
    # single-die packages, probed on channel 0 while a format-like
    # workload writes metadata across the address space.
    config, trace, host_log = probe_format_workload()
    print(f"probing channel 0 of {config.geometry.channels}; "
          f"bus: {profile('async').bus_ns_per_byte} ns/byte\n")

    print(f"captured trace: {trace.duration_ns / 1e6:.2f} ms, "
          f"{len(trace.segments)} bus segments, "
          f"{len(trace.busy)} busy windows\n")

    # ------------------------------------------------------------------
    # Fig 5: the signal-activity view of one capture window.
    # ------------------------------------------------------------------
    analyzer = LogicAnalyzer(TLA7000)
    capture = analyzer.capture_triggered(trace)
    assert capture is not None
    activity = signal_activity(capture, bins=64)
    print("Fig 5 — signal activity on the probed package "
          "('#' dense, '+' sparse, '.' idle):")
    print(activity.render())
    print(f"(window: {capture.duration_ns / 1e6:.2f} ms at "
          f"{TLA7000.sample_rate_hz / 1e6:.0f} MHz)\n")

    # ------------------------------------------------------------------
    # Protocol decode and FTL inference.
    # ------------------------------------------------------------------
    result = decode_trace_windows(trace, analyzer)
    print(f"decoded {len(result.ops)} operations "
          f"(clean={result.stats.clean})")
    report = infer_ftl_features(result.ops, host_log,
                                sector_size=config.geometry.sector_size)
    print(format_table(report.HEADERS, report.rows(),
                       title="\ninferred from the bus"))

    # ------------------------------------------------------------------
    # The instrument matters: try the $150 analyzer.
    # ------------------------------------------------------------------
    cheap = decode_trace_windows(trace, LogicAnalyzer(HOBBYIST))
    print(f"\nhobbyist analyzer ({HOBBYIST.sample_rate_hz / 1e6:.0f} MHz, "
          f"${HOBBYIST.price_usd}): decoded {len(cheap.ops)} ops, "
          f"clean={cheap.stats.clean} — this is why the paper needed a "
          f"${TLA7000.price_usd:,} instrument.")


if __name__ == "__main__":
    main()
