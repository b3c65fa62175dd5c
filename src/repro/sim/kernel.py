"""A small discrete-event simulation kernel.

This is the execution substrate under :class:`~repro.ssd.timed.TimedSSD`
and anything else that needs a virtual clock.  It provides four pieces,
deliberately minimal (the shape SimpleSSD and EagleTree converge on, cut
down to what this reproduction needs):

* :class:`Kernel` — a virtual clock plus a future-event list (heapq).
  Callbacks scheduled with :meth:`Kernel.schedule` fire in time order
  when the clock is advanced with :meth:`Kernel.run_until`.
* :class:`Resource` — a named serially-reusable unit (a flash channel, a
  die) modeled as a busy-until timeline.  Claims are resolved in call
  order: ``hold(start, end)`` marks the interval busy and moves
  ``free_at`` forward.  When a trace sink is attached to the kernel,
  every hold emits a :class:`~repro.obs.events.ResourceBusy` event — the
  utilization record behind queueing analyses.
* :class:`CapacityPool` — a finite pool (RAM write-cache space) whose
  releases happen at known future times.  Releases are kept in a heap,
  so an admission that must stall pops only the releases it needs
  instead of re-sorting the whole list (the old ``TimedSSD`` did an
  O(n²) sort-and-pop on every stalled admission).
* :class:`Process` — a generator-based process: yield a delay in ns to
  sleep; the kernel resumes the generator when the clock reaches that
  time.  Background maintenance that must overlap host idle gaps is
  written as a process instead of a blocking call.

Determinism: the kernel breaks ties in (time, schedule order), contains
no wall-clock or RNG state, and resources resolve claims in call order —
so identical inputs produce identical timelines, which is what the
golden-figure regression suite pins.
"""

from __future__ import annotations

import heapq
from itertools import count
from typing import Callable, Generator

from repro.obs.events import ResourceBusy
from repro.obs.sinks import NULL_SINK, TraceSink

__all__ = ["Kernel", "PowerLoss", "Resource", "CapacityPool", "Process"]


class PowerLoss(Exception):
    """Raised out of the run loop when a scheduled power cut fires.

    Whatever the kernel was mid-way through is abandoned — exactly what
    pulling the plug does.  The fault harness catches this, snapshots
    the flash, and runs recovery; ``at_ns`` records when power died.
    """

    def __init__(self, at_ns: int) -> None:
        super().__init__(f"power lost at {at_ns} ns")
        self.at_ns = at_ns


class Kernel:
    """Virtual clock + future-event list + resource registry."""

    def __init__(self) -> None:
        self.now = 0
        self._fel: list[tuple[int, int, Callable, tuple]] = []
        self._seq = count()
        self._resources: dict[str, Resource] = {}
        self.obs: TraceSink = NULL_SINK

    # -- observability -------------------------------------------------

    def attach_sink(self, sink: TraceSink) -> None:
        """Route resource-busy events to *sink* (NULL_SINK to detach)."""
        self.obs = sink

    # -- resources -----------------------------------------------------

    def resource(self, name: str) -> Resource:
        """The named resource, created on first use."""
        resource = self._resources.get(name)
        if resource is None:
            resource = self._resources[name] = Resource(self, name)
        return resource

    @property
    def resources(self) -> dict[str, Resource]:
        return self._resources

    def horizon(self) -> int:
        """The time by which every resource is free (>= now)."""
        horizon = self.now
        for resource in self._resources.values():
            if resource.free_at > horizon:
                horizon = resource.free_at
        return horizon

    # -- event list ----------------------------------------------------

    def schedule(self, at_ns: int, fn: Callable, *args) -> None:
        """Run ``fn(*args)`` when the clock reaches *at_ns* (clamped to
        now; never in the past)."""
        heapq.heappush(self._fel,
                       (max(int(at_ns), self.now), next(self._seq), fn, args))

    def schedule_batch(self, events: "list[tuple[int, Callable, tuple]]") -> None:
        """Admit many ``(at_ns, fn, args)`` events in one call.

        Equivalent to calling :meth:`schedule` once per event in list
        order — sequence numbers are drawn from the same counter, so the
        firing order is identical — but when the batch is large relative
        to the event list it is cheaper to extend and re-heapify once
        (O(n + k)) than to pay one sift-up per push (O(k log n)).
        """
        now = self.now
        seq = self._seq
        items = [
            (at if (at := int(at_ns)) > now else now, next(seq), fn, args)
            for at_ns, fn, args in events
        ]
        fel = self._fel
        if len(items) > 64 and len(items) >= len(fel):
            # The batch dominates the heap: one O(n + k) heapify beats
            # k sift-ups.  (Repeated small batches against a large heap
            # must NOT re-heapify — that would be O(k * n) overall.)
            fel.extend(items)
            heapq.heapify(fel)
        else:
            push = heapq.heappush
            for item in items:
                push(fel, item)

    def call_after(self, delay_ns: int, fn: Callable, *args) -> None:
        self.schedule(self.now + max(0, int(delay_ns)), fn, *args)

    def power_cut(self, at_ns: int) -> None:
        """Schedule a power loss: when the clock reaches *at_ns*,
        :class:`PowerLoss` is raised out of whichever run loop is
        advancing the clock, abandoning all later events."""
        def _cut() -> None:
            raise PowerLoss(self.now)
        self.schedule(at_ns, _cut)

    @property
    def pending_events(self) -> int:
        return len(self._fel)

    def next_event_at(self) -> int | None:
        """Time of the earliest scheduled event, or None if idle."""
        return self._fel[0][0] if self._fel else None

    def run_until(self, t_ns: int) -> None:
        """Fire every event due at or before *t_ns*, advancing the clock
        through each, then leave the clock at *t_ns*."""
        fel = self._fel
        while fel and fel[0][0] <= t_ns:
            at, _, fn, args = heapq.heappop(fel)
            self.now = at
            fn(*args)
        if t_ns > self.now:
            self.now = t_ns

    def run(self) -> None:
        """Drain the event list completely."""
        fel = self._fel
        while fel:
            at, _, fn, args = heapq.heappop(fel)
            self.now = at
            fn(*args)

    def spawn(self, gen: Generator[int, None, None]) -> Process:
        """Start a generator as a :class:`Process` (first step runs at
        the current time)."""
        return Process(self, gen)


class Process:
    """A generator driven by the kernel: each ``yield delay_ns`` sleeps
    the process until the clock reaches ``now + delay_ns``."""

    def __init__(self, kernel: Kernel, gen: Generator[int, None, None]) -> None:
        self.kernel = kernel
        self.gen = gen
        self.alive = True
        kernel.schedule(kernel.now, self._step)

    def cancel(self) -> None:
        self.alive = False

    def _step(self) -> None:
        if not self.alive:
            return
        try:
            delay_ns = next(self.gen)
        except StopIteration:
            self.alive = False
            return
        self.kernel.call_after(delay_ns, self._step)


class Resource:
    """A named serially-reusable resource with a busy-until timeline.

    ``free_at`` is the next instant the resource can start new work; a
    claim on several resources starts at the latest of their ``free_at``
    (ONFI: the controller cannot issue to a busy die *or* a busy
    channel).  ``hold`` marks a busy interval; callers compute the start
    themselves because multi-resource operations (read = channel cmd +
    die tR + channel data-out) interleave holds on different resources.
    """

    __slots__ = ("kernel", "name", "free_at", "busy_ns", "holds")

    def __init__(self, kernel: Kernel, name: str) -> None:
        self.kernel = kernel
        self.name = name
        self.free_at = 0
        self.busy_ns = 0
        self.holds = 0

    def hold(self, start_ns: int, end_ns: int, requested_ns: int | None = None) -> int:
        """Occupy ``[start_ns, end_ns)``; returns *end_ns*.

        *requested_ns* — when the work first wanted the resource — feeds
        the ``wait_ns`` field of the emitted event (queueing delay).
        """
        self.holds += 1
        self.busy_ns += end_ns - start_ns
        if end_ns > self.free_at:
            self.free_at = end_ns
        obs = self.kernel.obs
        if obs.enabled:
            wait = 0 if requested_ns is None else max(0, start_ns - requested_ns)
            obs.emit(ResourceBusy(resource=self.name, start_ns=start_ns,
                                  busy_ns=end_ns - start_ns, wait_ns=wait))
        return end_ns

    def utilization(self, elapsed_ns: int) -> float:
        if elapsed_ns <= 0:
            return 0.0
        return self.busy_ns / elapsed_ns


class CapacityPool:
    """A finite pool with time-stamped releases (RAM write-cache space).

    ``acquire`` answers "when do *amount* units fit?": releases due by
    *now* are credited first; if the pool still overflows, the earliest
    scheduled future releases are consumed (heap order) and the last one
    popped sets the admission time — the caller stalls until then.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.occupied = 0
        self._releases: list[tuple[int, int]] = []  # (when_ns, amount)

    @property
    def pending_releases(self) -> int:
        return len(self._releases)

    def schedule_release(self, when_ns: int, amount: int) -> None:
        """*amount* units return to the pool at *when_ns*."""
        heapq.heappush(self._releases, (when_ns, amount))

    def release_due(self, now_ns: int) -> None:
        """Credit every release that has happened by *now_ns*."""
        releases = self._releases
        while releases and releases[0][0] <= now_ns:
            _, amount = heapq.heappop(releases)
            self.occupied = max(0, self.occupied - amount)

    def acquire(self, now_ns: int, amount: int, overshoot: int = 0) -> int:
        """Admit *amount* units at *now_ns*; returns the admission time
        (== *now_ns* when the pool has room, later when it must wait for
        scheduled releases).

        *overshoot* caps how far ``occupied`` may exceed ``capacity``
        after admission (in-flight data the device has accepted but not
        yet flushed; the timed SSD passes the request size).
        """
        # release_due(now_ns), inlined: acquire is the write hot path.
        releases = self._releases
        occupied = self.occupied
        while releases and releases[0][0] <= now_ns:
            occupied -= heapq.heappop(releases)[1]
            if occupied < 0:
                occupied = 0
        if amount > 0:
            occupied += amount
        when = now_ns
        capacity = self.capacity
        while occupied > capacity and releases:
            when, freed = heapq.heappop(releases)
            occupied -= freed
            if occupied < 0:
                occupied = 0
        if occupied > capacity + overshoot:
            occupied = capacity + overshoot
        self.occupied = occupied
        return when if when > now_ns else now_ns
