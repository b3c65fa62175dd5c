"""Span tracing from outside the simulator.

A :class:`Tracer` wraps public callables *of one object instance* (never
a class shared with other instances) so that each call records a span:
layer, start, end, the span that caused it, and the slice it ran in.
Spans stay in memory — five list appends and two clock reads per call —
and are written out when the run ends.

A layer's **self time** is its spans' duration minus the part their
child spans cover.  A layer the simulator's hot path bypasses (a fast
lane that writes an array directly instead of calling the layer's public
method) records no span: its calls-per-op reads 0 and its time stays
with the caller, which is the honest view from outside.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np


@dataclass(frozen=True)
class LayerTotal:
    """What one layer did over a traced run (times in ns)."""

    calls: int = 0
    total_ns: float = 0.0
    self_ns: float = 0.0
    #: spans directly caused by this layer's spans (the wrappers whose
    #: call-and-return cost lands in this layer's self time).
    child_calls: int = 0


@dataclass(frozen=True)
class SpanOverhead:
    """Cost of the wrapper itself, measured on a no-op (ns per span).

    ``inside`` lies between the two clock reads and is charged to the
    span; ``outside`` (entering and leaving the wrapper) is charged to
    whoever called it.
    """

    inside_ns: float
    outside_ns: float

    def corrected_self_ns(self, total: LayerTotal) -> float:
        """Self time with the wrappers' own cost taken back out."""
        raw = (total.self_ns - total.calls * self.inside_ns
               - total.child_calls * self.outside_ns)
        return max(raw, 0.0)


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns) -> None:
        self.clock = clock
        self.layers: list[str] = []
        self._layer_ids: dict[str, int] = {}
        # One column per span field; a span is one index into all five.
        self.layer: list[int] = []
        self.start: list[int] = []
        self.end: list[int] = []
        self.parent: list[int] = []
        self.slice: list[int] = []
        #: slice id stamped on new spans (set by the harness per slice).
        self.slice_id = -1
        self._open: list[int] = []
        self._undo: list[tuple[Any, str, Any]] = []

    # -- recording -----------------------------------------------------

    def layer_id(self, name: str) -> int:
        lid = self._layer_ids.get(name)
        if lid is None:
            lid = self._layer_ids[name] = len(self.layers)
            self.layers.append(name)
        return lid

    def begin(self, layer_id: int) -> int:
        index = len(self.start)
        stack = self._open
        self.layer.append(layer_id)
        self.parent.append(stack[-1] if stack else -1)
        self.slice.append(self.slice_id)
        self.end.append(0)
        stack.append(index)
        self.start.append(self.clock())  # last: bookkeeping stays outside
        return index

    def finish(self, index: int) -> None:
        self.end[index] = self.clock()
        self._open.pop()

    @contextmanager
    def span(self, layer: str):
        """Record the enclosed block as one span of *layer*."""
        index = self.begin(self.layer_id(layer))
        try:
            yield
        finally:
            self.finish(index)

    def traced(self, layer: str, fn: Callable) -> Callable:
        """*fn* wrapped so every call is one span of *layer*."""
        layer_id = self.layer_id(layer)
        begin, finish = self.begin, self.finish

        def span_call(*args, **kwargs):
            index = begin(layer_id)
            try:
                return fn(*args, **kwargs)
            finally:
                finish(index)

        span_call.__wrapped__ = fn
        return span_call

    # -- instrumentation -----------------------------------------------

    def wrap(self, obj: Any, attr: str, layer: str) -> None:
        """Trace ``obj.attr(...)`` for this one instance.

        An ordinary object gets an instance attribute shadowing the
        method.  A ``__slots__`` object has nowhere to put one, so it is
        re-classed to a one-off subclass overriding *attr* — still only
        this instance changes.  :meth:`restore` undoes both.
        """
        try:
            instance_dict = vars(obj)
        except TypeError:
            cls = type(obj)
            traced_cls = type(cls.__name__, (cls,), {
                "__slots__": (),
                attr: self.traced(layer, getattr(cls, attr)),
            })
            self._undo.append((obj, "__class__", cls))
            obj.__class__ = traced_cls
            return
        self._undo.append((obj, attr, instance_dict.get(attr, _ABSENT)))
        setattr(obj, attr, self.traced(layer, getattr(obj, attr)))

    def restore(self) -> None:
        """Put every wrapped instance back exactly as it was."""
        while self._undo:
            obj, attr, previous = self._undo.pop()
            if previous is _ABSENT:
                delattr(obj, attr)
            else:
                setattr(obj, attr, previous)

    # -- analysis ------------------------------------------------------

    def __len__(self) -> int:
        return len(self.start)

    def durations(self, layer: str | None = None) -> np.ndarray:
        """Every span's duration in ns (only *layer*'s, if given)."""
        duration = (np.asarray(self.end, dtype=np.int64)
                    - np.asarray(self.start, dtype=np.int64)).astype(np.float64)
        if layer is None:
            return duration
        return duration[np.asarray(self.layer) == self.layer_id(layer)]

    def totals(self) -> dict[str, LayerTotal]:
        """Calls, total time and self time per layer."""
        count = len(self.start)
        if not count:
            return {}
        layer = np.asarray(self.layer)
        parent = np.asarray(self.parent)
        duration = self.durations()
        caused = parent >= 0
        child_ns = np.bincount(parent[caused], weights=duration[caused],
                               minlength=count)
        child_calls = np.bincount(parent[caused], minlength=count)
        width = len(self.layers)
        calls = np.bincount(layer, minlength=width)
        total_ns = np.bincount(layer, weights=duration, minlength=width)
        self_ns = np.bincount(layer, weights=duration - child_ns,
                              minlength=width)
        children = np.bincount(layer, weights=child_calls, minlength=width)
        return {
            name: LayerTotal(int(calls[i]), float(total_ns[i]),
                             float(self_ns[i]), int(children[i]))
            for i, name in enumerate(self.layers)
        }

    def root_ns(self) -> float:
        """Time covered by spans nobody caused — equal, by construction,
        to the sum of every span's self time."""
        return float(self.durations()[np.asarray(self.parent) < 0].sum())

    def dump(self, path: Path, **header) -> None:
        """Write every span, column-wise, with times relative to the
        first span's start."""
        origin = self.start[0] if self.start else 0
        payload = {
            **header,
            "layers": self.layers,
            "columns": {
                "layer": "index into layers",
                "start_ns": "ns since the first span started",
                "end_ns": "ns since the first span started",
                "parent": "index of the span that caused this one, -1 for none",
                "slice": "slice id the span ran in",
            },
            "spans": {
                "layer": self.layer,
                "start_ns": [t - origin for t in self.start],
                "end_ns": [t - origin for t in self.end],
                "parent": self.parent,
                "slice": self.slice,
            },
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump(payload, fh, separators=(",", ":"))


_ABSENT = object()


def _noop() -> None:
    return None


def measure_span_overhead(calls: int = 20_000) -> SpanOverhead:
    """Time the wrapper on a function that does nothing."""
    tracer = Tracer()
    wrapped = tracer.traced("noop", _noop)
    clock = time.perf_counter_ns
    started = clock()
    for _ in range(calls):
        _noop()
    bare_ns = (clock() - started) / calls
    started = clock()
    for _ in range(calls):
        wrapped()
    wrapped_ns = (clock() - started) / calls
    # bare = loop + call; wrapped = loop + outside + inside + call; a
    # no-op's span lasts inside + call.
    inside_ns = max(tracer.totals()["noop"].total_ns / calls - bare_ns, 0.0)
    outside_ns = max(wrapped_ns - bare_ns - inside_ns, 0.0)
    return SpanOverhead(inside_ns=inside_ns, outside_ns=outside_ns)
