"""Trace post-processing: turn an event stream into explanations.

The headline use is the paper's §2.1 question — *why* did the write
tail move?  In the timed simulator a write's latency decomposes exactly
into controller overhead plus cache-admission stall (the time spent
waiting for flush programs, i.e. for GC and queueing, to release cache
space), so a trace lets us attribute each percentile bucket's latency to
stall time and reconcile the p99 inflation against per-event stalls.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

#: Percentile buckets used for tail attribution, as (low, high) bounds.
TAIL_BUCKETS: tuple[tuple[float, float], ...] = (
    (0.0, 50.0), (50.0, 90.0), (90.0, 99.0), (99.0, 99.9), (99.9, 100.0),
)


@dataclass(frozen=True)
class BucketAttribution:
    """Stall-time attribution for one percentile bucket of writes."""

    low: float
    high: float
    requests: int
    total_latency_ns: int
    total_stall_ns: int

    @property
    def stall_share(self) -> float:
        """Fraction of this bucket's latency that was admission stall."""
        if self.total_latency_ns <= 0:
            return 0.0
        return self.total_stall_ns / self.total_latency_ns

    def row(self) -> list:
        return [
            f"p{self.low:g}-p{self.high:g}",
            self.requests,
            round(self.total_latency_ns / 1e6, 3),
            round(self.total_stall_ns / 1e6, 3),
            round(self.stall_share, 3),
        ]


def write_records(records: Iterable[dict]) -> list[dict]:
    """The timed write requests in a trace (events with latency info)."""
    return [
        r for r in records
        if r.get("event") == "host_request"
        and r.get("kind") == "write"
        and r.get("latency_ns", -1) >= 0
    ]


def attribute_tail(
    records: Iterable[dict],
    buckets: Sequence[tuple[float, float]] = TAIL_BUCKETS,
) -> list[BucketAttribution]:
    """:func:`attribute_latencies` over the timed writes of a trace."""
    writes = write_records(records)
    return attribute_latencies([r["latency_ns"] for r in writes],
                               [r.get("stall_ns", 0) for r in writes],
                               buckets)


def attribute_latencies(
    latency_ns: Sequence[int],
    stall_ns: Sequence[int],
    buckets: Sequence[tuple[float, float]] = TAIL_BUCKETS,
) -> list[BucketAttribution]:
    """Split writes into latency-percentile buckets and report how much
    of each bucket's time was cache-admission stall.

    *latency_ns* and *stall_ns* are per-write integer nanoseconds, in
    the same order."""
    latencies = np.asarray(latency_ns, dtype=np.int64)
    stalls = np.asarray(stall_ns, dtype=np.int64)
    n = len(latencies)
    if not n:
        return []
    order = np.argsort(latencies, kind="stable")
    out: list[BucketAttribution] = []
    for low, high in buckets:
        lo_idx = int(np.floor(n * low / 100.0))
        hi_idx = n if high >= 100.0 else int(np.floor(n * high / 100.0))
        chosen = order[lo_idx:hi_idx]
        out.append(BucketAttribution(
            low=low,
            high=high,
            requests=len(chosen),
            total_latency_ns=int(latencies[chosen].sum()),
            total_stall_ns=int(stalls[chosen].sum()),
        ))
    return out


def stall_reconciliation(records: Iterable[dict]) -> dict:
    """Cross-check the trace against itself.

    Returns totals that must agree by construction of the timed model:
    the sum of per-request ``stall_ns`` equals the sum of standalone
    ``cache_stall`` events, and every write's latency is
    ``stall_ns + controller overhead`` (so the overhead inferred from
    unstalled writes explains the whole distribution).
    """
    records = list(records)
    writes = write_records(records)
    stall_events = [r for r in records if r.get("event") == "cache_stall"]
    request_stall = sum(r.get("stall_ns", 0) for r in writes)
    event_stall = sum(r["stall_ns"] for r in stall_events)
    overheads = sorted(r["latency_ns"] - r.get("stall_ns", 0) for r in writes)
    return {
        "writes": len(writes),
        "stalled_writes": sum(1 for r in writes if r.get("stall_ns", 0) > 0),
        "request_stall_ns": int(request_stall),
        "event_stall_ns": int(event_stall),
        "overhead_ns": overheads[0] if overheads else 0,
        "overhead_uniform": len(set(overheads)) <= 1,
    }
