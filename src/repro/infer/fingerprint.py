"""Probe-observable fingerprints for differential knob testing.

A :class:`Fingerprint` is everything the black-box bench can measure
about a device, reduced to comparable values.  The differential test
suite flips one knob at a time from the default grid point and checks
which flips move the fingerprint: a knob whose flip changes nothing is
invisible from outside — exactly the transparency gap the paper is
about — and the suite documents those knobs explicitly (``wear_policy``,
and the static allocation permutations on a single-channel tap).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.infer.blackbox import BlackboxInference
from repro.infer.toolloop import ToolLoop
from repro.ssd.config import SsdConfig


@dataclass(frozen=True)
class Fingerprint:
    """Black-box observables of one device configuration."""

    #: write-buffer stall point, in sectors (cache designation).
    buffer_sectors: int
    #: host program pages across 64 same-LBA writes (admission).
    admission_pages: int
    #: victim read was a RAM hit after one overflow eviction;
    #: None when the cache is not observable this way.
    victim_is_ram_hit: bool | None
    #: per-plane block-order reversals seen on the channel-0 tap,
    #: classified: one open stream vs several.
    stream_class: str
    #: WAF and erase fingerprint of the fixed churn workload (GC).
    waf: float
    erases: int


def probe_fingerprint(config: SsdConfig) -> Fingerprint:
    """Run every black-box probe against *config* and bundle the raw
    observables (no hypothesis step — just what the bench sees)."""
    bench = BlackboxInference(config, ToolLoop("fingerprint"))
    designation, cap = bench.infer_cache_designation()
    admission, admission_pages = bench.infer_cache_admission()
    eviction = bench.infer_cache_eviction(designation, admission, cap)
    ram_hit = None if eviction is None else (eviction == "lru")

    allocation = bench.infer_allocation()
    stream_class = ("multi-stream" if allocation == "hotcold"
                    else "single-stream")

    churn = bench._churn_workload()
    waf, erases = bench._run_churn(bench._smart_device(), churn)
    return Fingerprint(cap, admission_pages, ram_hit, stream_class,
                       waf, erases)
