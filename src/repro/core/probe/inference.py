"""FTL inference from decoded bus traffic.

This is the payoff of the probe method (§3.1): "using carefully
orchestrated workloads, we can monitor the ensuing command sequences to
the flash packages, and from there, potentially infer firmware policies
and mechanisms".  Given decoded operations (and optionally a log of the
host requests issued while probing), the inference layer recovers:

* the package's **page size** (data-burst lengths of program operations);
* **pages per block** (GCD of erase row addresses — erases are
  block-aligned in the row space);
* **array timings** (tPROG/tR/tBERS from R/B# busy durations);
* **sequential-programming behaviour** (row deltas between consecutive
  programs on one die reveal the write pointer and striping);
* **write amplification on the probed channel** (program bytes observed
  vs. host bytes issued) — the FTL-internal traffic a black-box observer
  cannot attribute;
* **background activity**: flash operations during host-idle windows
  (idle GC and similar "unpredictable background operations").

:func:`probe_format_workload` is the Fig 5 experiment's orchestrated
workload: the probed device, its bus trace and the host log that the
inference correlates against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.core.probe.decoder import DecodedOp
from repro.flash.signals import SignalTrace
from repro.flash.timing import profile
from repro.ssd.config import SsdConfig
from repro.ssd.presets import vertex2_like
from repro.ssd.timed import BusTap, TimedSSD


@dataclass(frozen=True)
class HostOpRecord:
    """One host request issued while the probe was attached."""

    kind: str
    t_start_ns: float
    t_end_ns: float
    sectors: int


@dataclass
class InferenceReport:
    """What the probe experiment learned about the device."""

    programs: int = 0
    reads: int = 0
    erases: int = 0
    page_size_bytes: int | None = None
    pages_per_block: int | None = None
    t_prog_us: float = 0.0
    t_read_us: float = 0.0
    t_erase_us: float = 0.0
    sequential_fraction: float = 0.0
    channel_write_amplification: float | None = None
    background_ops: int = 0

    HEADERS = ("feature", "value")

    def rows(self) -> list[tuple[str, object]]:
        """Report as (feature, value) rows for table rendering."""
        return [
            ("programs observed", self.programs),
            ("reads observed", self.reads),
            ("erases observed", self.erases),
            ("page size (B)", self.page_size_bytes),
            ("pages per block", self.pages_per_block),
            ("tPROG (us)", round(self.t_prog_us, 1)),
            ("tR (us)", round(self.t_read_us, 1)),
            ("tBERS (us)", round(self.t_erase_us, 1)),
            ("sequential program fraction", round(self.sequential_fraction, 3)),
            ("channel write amplification", self.channel_write_amplification),
            ("background ops (host idle)", self.background_ops),
        ]


def probe_format_workload() -> tuple[SsdConfig, SignalTrace,
                                     list[HostOpRecord]]:
    """Fig 5's workload: an NTFS-format-style burst of 48 four-sector
    metadata writes spread over a Vertex-II-like drive (scale 2), then a
    flush, with a bus tap on channel 0.  Returns the drive's config, the
    tap's signal trace and the host log of what was issued."""
    config = vertex2_like(scale=2)
    tap = BusTap(config.geometry, profile("async"), channel=0)
    device = TimedSSD(config, bus_tap=tap)
    host_log = []
    stride = device.num_sectors // 48
    for i in range(48):
        request = device.submit("write", i * stride, 4, at_ns=device.now)
        host_log.append(HostOpRecord("write", request.submit_ns,
                                     request.complete_ns, 4))
    flush = device.flush()
    host_log.append(HostOpRecord("flush", flush.submit_ns,
                                 flush.complete_ns, 0))
    return config, tap.trace, host_log


def infer_ftl_features(
    ops: list[DecodedOp],
    host_log: list[HostOpRecord] | None = None,
    sector_size: int = 4096,
) -> InferenceReport:
    """Build an :class:`InferenceReport` from decoded operations."""
    report = InferenceReport()
    programs = [op for op in ops if op.name == "program"]
    reads = [op for op in ops if op.name == "read"]
    erases = [op for op in ops if op.name == "erase"]
    report.programs = len(programs)
    report.reads = len(reads)
    report.erases = len(erases)

    data_sizes = [op.data_bytes for op in programs if op.data_bytes]
    if data_sizes:
        # Full-page programs dominate; the page size is the modal burst.
        values, counts = np.unique(data_sizes, return_counts=True)
        report.page_size_bytes = int(values[np.argmax(counts)])

    erase_rows = sorted({op.row for op in erases if op.row is not None})
    if len(erase_rows) >= 2:
        diffs = np.diff(erase_rows)
        gcd = int(np.gcd.reduce(diffs))
        if gcd > 0:
            report.pages_per_block = gcd
    elif len(erase_rows) == 1 and erase_rows[0] > 0:
        report.pages_per_block = int(erase_rows[0])

    report.t_prog_us = _typical_busy(programs)
    report.t_read_us = _typical_busy(reads)
    report.t_erase_us = _typical_busy(erases)

    rows = [op.row for op in programs if op.row is not None]
    if len(rows) >= 2:
        sequential = sum(1 for a, b in zip(rows, rows[1:]) if b == a + 1)
        report.sequential_fraction = sequential / (len(rows) - 1)

    if host_log:
        host_bytes = sum(
            rec.sectors * sector_size for rec in host_log if rec.kind == "write"
        )
        observed = sum(size for size in data_sizes)
        if host_bytes > 0:
            report.channel_write_amplification = observed / host_bytes
        report.background_ops = _background_ops(ops, host_log)
    return report


def _typical_busy(ops: list[DecodedOp]) -> float:
    """Median busy time: robust against capture-window clipping."""
    busy = [op.busy_ns for op in ops if op.busy_ns > 0]
    if not busy:
        return 0.0
    return float(np.median(busy)) / 1000.0


def _background_ops(ops: list[DecodedOp], host_log: list[HostOpRecord]) -> int:
    """Flash ops that started while no host request was in flight."""
    windows = sorted((rec.t_start_ns, rec.t_end_ns) for rec in host_log)
    count = 0
    for op in ops:
        inside = any(start <= op.t_start_ns <= end for start, end in windows)
        if not inside:
            count += 1
    return count


@dataclass
class SignalActivity:
    """Fig 5's view: bus and busy activity over time, in fixed bins.

    ``control``/``data``/``busy`` are per-bin activity fractions — the
    textual rendering of the paper's oscilloscope-style figure.
    """

    bin_ns: float
    t0: float
    control: np.ndarray = field(default_factory=lambda: np.zeros(0))
    data: np.ndarray = field(default_factory=lambda: np.zeros(0))
    busy: np.ndarray = field(default_factory=lambda: np.zeros(0))

    def render(self, width: int = 64) -> str:
        """ASCII waveform: one row per signal group."""
        def lane(values: np.ndarray, label: str) -> str:
            if len(values) == 0:
                return f"{label:<8}|"
            marks = "".join(
                "#" if v > 0.5 else ("+" if v > 0.05 else ".")
                for v in values[:width]
            )
            return f"{label:<8}|{marks}|"

        return "\n".join([
            lane(self.control, "ctrl"),
            lane(self.data, "data"),
            lane(self.busy, "busy"),
        ])


def signal_activity(capture, bins: int = 64) -> SignalActivity:
    """Bin a capture into control/data/busy activity lanes (Fig 5)."""
    s = capture.samples
    t = s["t"]
    if len(t) == 0:
        return SignalActivity(bin_ns=0.0, t0=0.0)
    edges = np.linspace(t[0], t[-1], bins + 1)
    index = np.clip(np.searchsorted(edges, t, side="right") - 1, 0, bins - 1)
    control = np.zeros(bins)
    data = np.zeros(bins)
    busy = np.zeros(bins)
    counts = np.bincount(index, minlength=bins).astype(np.float64)
    counts[counts == 0] = 1.0
    ctrl_signal = ((s["cle"] == 1) | (s["ale"] == 1)).astype(np.float64)
    data_signal = (
        ((s["we"] == 0) | (s["re"] == 0)) & (s["cle"] == 0) & (s["ale"] == 0)
    ).astype(np.float64)
    busy_signal = (s["rb"] == 0).astype(np.float64)
    np.add.at(control, index, ctrl_signal)
    np.add.at(data, index, data_signal)
    np.add.at(busy, index, busy_signal)
    return SignalActivity(
        bin_ns=float(edges[1] - edges[0]),
        t0=float(t[0]),
        control=control / counts,
        data=data / counts,
        busy=busy / counts,
    )
