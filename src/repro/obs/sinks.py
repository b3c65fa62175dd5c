"""Trace sinks: where instrumented components send their events.

The contract is deliberately tiny so the uninstrumented fast path stays
fast: every instrumented object holds an ``obs`` attribute that defaults
to the shared :data:`NULL_SINK`, and emission sites are guarded as::

    if self.obs.enabled:
        self.obs.emit(SomeEvent(...))

With the default sink that is one attribute check per event; no event
object is ever constructed.  Attaching any real sink flips ``enabled``
and the same sites start streaming typed events.

A sink receives events in one of two ways:

* **Per event** (every sink): ``emit(event)`` with the built event, in
  emission order.  Recording sinks — :class:`JsonlSink`,
  :class:`HistogramSink`, :class:`TeeSink`, any user sink — take only
  this, so a trace holds every occurrence and stays byte-identical.
* **In aggregate** (a sink with ``tally``): the hottest sites — the
  timed device's scheduling pass and ``submit``, the write cache's
  ``insert_run``, the FTL's host read, page program and ``_emit``, the
  engine's open-loop queue depth — build no event for it.  They add up
  their occurrences and headline values in locals and call the sink's
  ``tally(name, count, total)`` once per call of their own.  Rare events
  (GC, faults, wear, pSLC) still arrive through ``emit``.

:data:`TALLIES` is the one place that rule is resolved: a sink
aggregates if and only if its class has ``tally``, and a subclass that
overrides ``emit`` without overriding ``tally`` is taken to want the
events themselves, so it gets per-event delivery.  To write a sink:
keep what every event says, define ``emit`` only; keep counts and sums,
define ``tally`` beside ``emit`` and make the two agree (the summary
sinks apply :meth:`~repro.obs.events.TraceEvent.metric_value`'s rule:
a negative headline value is a sentinel and adds nothing).

Sinks are single-threaded (as is the whole simulator) and composable via
:class:`TeeSink`.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator, Protocol, runtime_checkable

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
    were they in total?".  It aggregates: the hot sites hand it batches
    through :meth:`tally` instead of one event each (see
    :data:`TALLIES`).  A subclass that overrides :meth:`emit` to look at
    events gets every event through it, tallied ones included.
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

    def tally(self, name: str, count: int, total: int | None = None) -> None:
        """Take *count* events named *name* at once: :meth:`emit`'s rule
        applied to a batch.  *total* is the sum of their non-negative
        headline values, or None when none of them carried one (no
        ``METRIC``, or only sentinels), which leaves ``metric_totals``
        without a key for *name*, as :meth:`emit` would."""
        self.counts[name] += count
        if total is not None:
            self.metric_totals[name] += total

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


class _TallyTable(dict):
    """``TALLIES[sink.__class__]``: the ``tally`` function that class's
    sinks aggregate through, or None when they must receive every event
    through ``emit``.

    The rule, resolved once per class on first sight: the nearest class
    in the MRO that defines ``tally`` or ``emit`` decides, and it
    aggregates if it defines ``tally``.  Keyed by class, so an instance
    attribute shadowing ``emit`` (a profiler's wrapper, say) does not
    turn a :class:`CounterSink` into a recording sink.  Hot sites look it
    up once per call, after checking ``enabled``, and call
    ``tally(sink, name, count, total)``: a dict lookup, where a helper
    function's own call cost as much as the tally it saved."""

    def __missing__(self, cls: type) -> Callable[..., None] | None:
        tally = None
        for klass in cls.__mro__:
            attrs = vars(klass)
            if "tally" in attrs:
                tally = cls.tally
                break
            if "emit" in attrs:
                break
        self[cls] = tally
        return tally


TALLIES = _TallyTable()


def read_jsonl(path: str | Path) -> Iterator[dict]:
    """Decode a :class:`JsonlSink` trace back into records."""
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                yield json.loads(line)


def load_trace(path: str | Path) -> list[dict]:
    return list(read_jsonl(path))
