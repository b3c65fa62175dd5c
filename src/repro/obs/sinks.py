"""Trace sinks: where instrumented components send their events.

The contract is deliberately tiny so the uninstrumented fast path stays
fast: every instrumented object holds an ``obs`` attribute that defaults
to the shared :data:`NULL_SINK`, and emission sites are guarded as::

    if self.obs.enabled:
        self.obs.emit(SomeEvent(...))

With the default sink that is one attribute check per event; no event
object is ever constructed.  Attaching any real sink flips ``enabled``
and the same sites start streaming typed events.

Sinks are single-threaded (as is the whole simulator) and composable via
:class:`TeeSink`.  The summary sinks read an event's headline value
inline — ``getattr`` of its ``METRIC`` field, skipped when negative —
which is :meth:`~repro.obs.events.TraceEvent.metric_value`'s rule
without the call, so an enabled event costs its construction plus one
``emit``.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path
from typing import IO, Iterable, Iterator, Protocol, runtime_checkable

from repro.obs.events import TraceEvent


@runtime_checkable
class TraceSink(Protocol):
    """Anything that can receive trace events."""

    enabled: bool

    def emit(self, event: TraceEvent) -> None: ...

    def close(self) -> None: ...


class NullSink:
    """The default sink: permanently disabled, drops everything."""

    enabled = False

    def emit(self, event: TraceEvent) -> None:  # pragma: no cover - guarded out
        pass

    def close(self) -> None:
        pass


#: Shared default instance — ``obs is NULL_SINK`` means "uninstrumented".
NULL_SINK = NullSink()


class CounterSink:
    """Counts events by name and sums their headline metrics.

    The cheapest always-on sink: attach it to answer "how many GC
    cycles / cache stalls / flash ops did this run cause, and how big
    were they in total?".
    """

    enabled = True

    def __init__(self) -> None:
        self.counts: dict[str, int] = defaultdict(int)
        self.metric_totals: dict[str, float] = defaultdict(float)

    def emit(self, event: TraceEvent) -> None:
        name = event.NAME
        self.counts[name] += 1
        metric = event.METRIC
        if metric is not None:
            value = getattr(event, metric)
            if value >= 0:
                # An int adds to a float total exactly as float(value)
                # does (metric values stay far below 2**53).
                self.metric_totals[name] += value

    def close(self) -> None:
        pass

    def count(self, name: str) -> int:
        return self.counts.get(name, 0)

    def total(self, name: str) -> float:
        return self.metric_totals.get(name, 0.0)

    def summarize(self) -> list[list]:
        """Table rows: ``[event, count, metric sum]`` sorted by name
        (events that carried no metric show a dash)."""
        return [
            [name, self.counts[name],
             round(self.metric_totals[name], 3)
             if name in self.metric_totals else "-"]
            for name in sorted(self.counts)
        ]


class HistogramSink:
    """Collects each event's headline metric into per-event samples and
    summarizes them with the experiment-standard percentile stats."""

    enabled = True

    def __init__(self) -> None:
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.counts: dict[str, int] = defaultdict(int)

    def emit(self, event: TraceEvent) -> None:
        name = event.NAME
        self.counts[name] += 1
        metric = event.METRIC
        if metric is not None:
            value = getattr(event, metric)
            if value >= 0:
                self.samples[name].append(float(value))

    def close(self) -> None:
        pass

    def summary_of(self, name: str):
        from repro.analysis.stats import summarize_latencies

        return summarize_latencies(self.samples.get(name, []))

    def summarize(self) -> list[list]:
        """Table rows: ``[event, count, mean, p50, p99, max]`` of each
        event's headline metric (events without a metric show dashes)."""
        rows: list[list] = []
        for name in sorted(self.counts):
            if name in self.samples:
                s = self.summary_of(name)
                rows.append([name, self.counts[name], round(s.mean, 1),
                             round(s.p50, 1), round(s.p99, 1), round(s.max, 1)])
            else:
                rows.append([name, self.counts[name], "-", "-", "-", "-"])
        return rows


class JsonlSink:
    """Streams events as JSON Lines — one flat object per event.

    Records are written in emission order with no timestamps or ids
    beyond what events carry, so two runs from the same seed produce
    byte-identical traces (the determinism tests rely on this).
    """

    enabled = True

    def __init__(self, destination: str | Path | IO[str]) -> None:
        if hasattr(destination, "write"):
            self._fh: IO[str] = destination  # type: ignore[assignment]
            self._owns = False
            self.path: Path | None = None
        else:
            self.path = Path(destination)
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fh = open(self.path, "w")
            self._owns = True
        self.events_written = 0

    def emit(self, event: TraceEvent) -> None:
        self._fh.write(json.dumps(event.to_record(), separators=(",", ":")))
        self._fh.write("\n")
        self.events_written += 1

    def close(self) -> None:
        if self._owns and not self._fh.closed:
            self._fh.close()

    def __enter__(self) -> "JsonlSink":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class TeeSink:
    """Fans one event stream out to several sinks."""

    enabled = True

    def __init__(self, *sinks: TraceSink) -> None:
        self.sinks = [s for s in sinks if s.enabled]

    def emit(self, event: TraceEvent) -> None:
        for sink in self.sinks:
            sink.emit(event)

    def close(self) -> None:
        for sink in self.sinks:
            sink.close()


def read_jsonl(path: str | Path) -> Iterator[dict]:
    """Decode a :class:`JsonlSink` trace back into records."""
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                yield json.loads(line)


def load_trace(path: str | Path) -> list[dict]:
    return list(read_jsonl(path))
