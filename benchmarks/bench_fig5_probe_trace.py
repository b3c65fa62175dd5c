"""Fig 5: signal diagram of flash-chip command execution from a probed
package, plus the protocol decode behind it.

Paper shape: the trace is flat, then shows a short burst on control and
data lines, followed by a long data-only transfer in under 1 ms — a page
program's command/address input and data stages; and decoding such
traces recovers firmware behaviour (page size, timings, background ops).
"""

import numpy as np
import pytest

from repro.core.probe.analyzer import HOBBYIST, TLA7000, LogicAnalyzer
from repro.core.probe.decoder import decode_trace_windows
from repro.core.probe.inference import (
    infer_ftl_features,
    probe_format_workload,
    signal_activity,
)
from repro.flash.timing import profile


def test_fig5_signal_diagram(figure_output):
    config, trace, _ = probe_format_workload()
    analyzer = LogicAnalyzer(TLA7000)
    capture = analyzer.capture_triggered(trace)
    assert capture is not None
    activity = signal_activity(capture, bins=64)
    print("\nFig 5 — probed-package signal activity "
          "('#' dense, '+' sparse, '.' idle):")
    print(activity.render())
    rows = [
        [i, round(float(c), 3), round(float(d), 3), round(float(b), 3)]
        for i, (c, d, b) in enumerate(
            zip(activity.control, activity.data, activity.busy))
    ]
    figure_output(
        "fig5_signal_activity",
        "Fig 5 — control/data/busy activity per time bin",
        ["bin", "control", "data", "busy"],
        rows,
    )
    # Paper shape: short control burst, longer data activity, and a
    # dominant busy (program) period; data bursts complete in < 1 ms.
    assert activity.control.max() > 0
    assert activity.data.max() > 0
    assert activity.busy.max() > 0.9
    data_bins = int(np.count_nonzero(activity.data > 0.05))
    ctrl_bins = int(np.count_nonzero(activity.control > 0.05))
    assert data_bins >= ctrl_bins
    page_transfer_ns = profile("async").transfer_ns(
        config.geometry.page_size
    )
    assert page_transfer_ns < 1_000_000  # the paper's "< 1 ms" burst


def test_fig5_decode_and_infer(figure_output):
    config, trace, host_log = probe_format_workload()
    result = decode_trace_windows(trace, LogicAnalyzer(TLA7000))
    report = infer_ftl_features(result.ops, host_log,
                                sector_size=config.geometry.sector_size)
    figure_output(
        "fig5_inference",
        "Fig 5 (companion) — FTL features inferred from the probed bus",
        report.HEADERS,
        report.rows(),
    )
    assert report.page_size_bytes == config.geometry.page_size
    timing = profile("async")
    assert report.t_prog_us == pytest.approx(timing.program_ns / 1000, rel=0.1)
    assert report.programs > 0


def test_fig5_instrument_limits(figure_output):
    """The '$20,000 analyzer' constraint: capability vs. decode yield."""
    _, trace, _ = probe_format_workload()
    rows = []
    for spec in (TLA7000, HOBBYIST):
        result = decode_trace_windows(trace, LogicAnalyzer(spec))
        rows.append([
            spec.name, f"{spec.sample_rate_hz / 1e6:.0f} MHz",
            f"${spec.price_usd:,}", len(result.ops), result.stats.clean,
        ])
    figure_output(
        "fig5_instruments",
        "§3.1 — decode yield by instrument",
        ["analyzer", "sample rate", "price", "ops decoded", "clean"],
        rows,
    )
    tla_ops, hobby_ops = rows[0][3], rows[1][3]
    assert tla_ops > hobby_ops
