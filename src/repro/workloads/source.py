"""The one request-stream abstraction behind every workload.

A :class:`RequestSource` is a pull-based stream of host requests
``(kind, lba, sectors)`` plus the scheduling attributes the engine
needs (``iodepth`` for closed loop, ``arrival_times`` for open loop).
The engine consumes *only* this surface, so a synthetic job
(:class:`JobSource`), a recorded block trace, a file-system scenario,
and a storage engine (:mod:`repro.engines`) are interchangeable
everywhere a workload goes: ``run_counter``/``run_timed``, fleet tenant
specs, cached experiment cells.

Byte-identity is the load-bearing contract: draw *order* is what a
:class:`JobSource` promises — per request the LBA, then the request
kind, all from one ``default_rng(seed)`` stream — so every golden
figure, fleet pickle, and policy-equivalence fingerprint stays put.  It
draws a block of requests ahead of the engine; a fixed-direction job's
block is one array draw, which consumes the stream exactly as that many
scalar draws do.
``tests/workloads/test_source.py::TestJobSource::test_block_drawn_stream_is_the_scalar_stream``
holds every rw mode and pattern to the one-request-at-a-time draws, and
the ``timed_run`` pins in ``tests/regression/pins.json`` hold whole runs.
"""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

from repro.workloads.spec import JobSpec
from repro.workloads.trace import BlockTrace, TraceRecord, TraceRecorder

#: request kinds a source may yield; ``flush`` carries ``lba=0,
#: sectors=0`` and maps to the device's FLUSH CACHE command.
REQUEST_KINDS = ("write", "read", "trim", "flush")


class RequestSource:
    """Base class: a finite, ordered stream of host requests.

    Subclasses set ``name``, ``iodepth`` and ``is_open_loop`` and
    implement :meth:`next_request`.  ``remaining`` returns how many
    requests are left when the source knows (synthetic jobs, traces) or
    ``None`` when the stream's length emerges as it runs (storage
    engines generate block I/O lazily from key-value operations).

    Open-loop sources must know their length: :meth:`arrival_times`
    returns one submission timestamp per request.
    """

    name: str = "source"
    iodepth: int = 1
    is_open_loop: bool = False

    def next_request(self) -> tuple[str, int, int] | None:
        """The next ``(kind, lba, sectors)``, or ``None`` when done."""
        raise NotImplementedError

    @property
    def remaining(self) -> int | None:
        """Requests left to yield, or ``None`` if unknown upfront."""
        return None

    def arrival_times(self, t0: int) -> np.ndarray:
        """Open-loop submission times (ns, int64), one per request."""
        raise NotImplementedError(
            f"{type(self).__name__} is closed-loop; it has no arrival "
            f"schedule")

    def __iter__(self) -> Iterator[tuple[str, int, int]]:
        while (request := self.next_request()) is not None:
            yield request


def as_source(item: "JobSpec | RequestSource") -> RequestSource:
    """Normalize an engine input: specs wrap into :class:`JobSource`,
    sources pass through untouched."""
    if isinstance(item, JobSpec):
        return JobSource(item)
    if isinstance(item, RequestSource):
        return item
    raise TypeError(
        f"expected a JobSpec or RequestSource, got {type(item).__name__}")


# ----------------------------------------------------------------------
# Synthetic jobs
# ----------------------------------------------------------------------


#: requests a :class:`JobSource` draws per refill.
_BLOCK_REQUESTS = 1024


class JobSource(RequestSource):
    """A :class:`JobSpec` as a request source: the synthetic path.

    Draw order is the contract: per request, one address draw
    (``pattern.next_lba(rng)``) then one kind draw
    (``job.request_kind(rng)``), both from a single
    ``default_rng(job.seed)`` stream.

    Requests are drawn ``_BLOCK_REQUESTS`` at a time, never past
    ``io_count``, and served from that block.  A job with one direction
    draws no kinds, so its block is ``pattern.draw_block`` — the same
    draws as an array; ``randrw`` interleaves a kind draw after every
    address, which only the per-request loop reproduces.
    """

    __slots__ = ("job", "name", "iodepth", "is_open_loop", "_undrawn",
                 "_ready", "_rng", "_pattern")

    def __init__(self, job: JobSpec) -> None:
        self.job = job
        self.name = job.name
        self.iodepth = job.iodepth
        self.is_open_loop = job.is_open_loop
        self._undrawn = job.io_count
        #: drawn, unserved requests, last first (served by ``pop``).
        self._ready: list[tuple[str, int, int]] = []
        self._rng = np.random.default_rng(job.seed)
        self._pattern = job.make_pattern()

    def next_request(self) -> tuple[str, int, int] | None:
        ready = self._ready
        if not ready:
            if not self._undrawn:
                return None
            self._refill()
        return ready.pop()

    def _refill(self) -> None:
        """Draw the next block into the (empty) ready list."""
        job, rng, pattern, ready = (self.job, self._rng, self._pattern,
                                    self._ready)
        count = min(_BLOCK_REQUESTS, self._undrawn)
        self._undrawn -= count
        kind, bs = job.fixed_kind, job.bs_sectors
        if kind is not None:
            ready.extend([(kind, lba, bs)
                          for lba in pattern.draw_block(rng, count)])
        else:
            next_lba, request_kind = pattern.next_lba, job.request_kind
            for _ in range(count):
                lba = next_lba(rng)
                ready.append((request_kind(rng), lba, bs))
        ready.reverse()

    @property
    def remaining(self) -> int:
        return self._undrawn + len(self._ready)

    def arrival_times(self, t0: int) -> np.ndarray:
        from repro.workloads.engine import _arrival_times

        return _arrival_times(self.job, t0)


# ----------------------------------------------------------------------
# Recorded block traces
# ----------------------------------------------------------------------


class TraceSource(RequestSource):
    """A recorded :class:`~repro.workloads.trace.BlockTrace` as a
    request source.

    Runs honour the recorded inter-arrival times (open loop, scaled by
    ``time_scale``: > 1 slows the trace down, < 1 speeds it up); on a
    zero-latency device only their order matters, which for one trace
    is its record order.  Pass ``submission="closed"``
    to replay request-by-request at ``iodepth`` instead of at the
    recorded timeline.

    ``lba_offset``/``lba_modulo`` relocate the trace into a private
    slice of the LBA space — how fleet tenants replay a trace inside
    their share region: each record lands at
    ``offset + (lba mod modulo)``, so any trace fits any region.
    """

    def __init__(
        self,
        trace: BlockTrace,
        name: str = "trace",
        *,
        time_scale: float = 1.0,
        submission: str = "open",
        iodepth: int = 1,
        lba_offset: int = 0,
        lba_modulo: int | None = None,
    ) -> None:
        if not 0 < time_scale < math.inf:  # NaN included
            raise ValueError(
                f"time_scale must be positive and finite, got {time_scale}")
        if submission not in ("open", "closed"):
            raise ValueError(f"unknown submission mode {submission!r}")
        if iodepth < 1:
            raise ValueError("iodepth must be >= 1")
        if lba_offset < 0:
            raise ValueError("lba_offset must be >= 0")
        if lba_modulo is not None and lba_modulo < 1:
            raise ValueError("lba_modulo must be >= 1")
        self.trace = trace
        self.name = name
        self.time_scale = time_scale
        self.is_open_loop = submission == "open"
        self.iodepth = iodepth
        self._offset = lba_offset
        self._modulo = lba_modulo
        self._cursor = 0

    def _map_lba(self, record: TraceRecord) -> int:
        if self._modulo is None:
            return self._offset + record.lba
        sectors = max(1, record.sectors)
        span = max(1, self._modulo - sectors + 1)
        return self._offset + record.lba % span

    def next_request(self) -> tuple[str, int, int] | None:
        records = self.trace.records
        if self._cursor >= len(records):
            return None
        record = records[self._cursor]
        self._cursor += 1
        if record.kind == "flush":
            return "flush", 0, 0
        return record.kind, self._map_lba(record), max(1, record.sectors)

    @property
    def remaining(self) -> int:
        return len(self.trace.records) - self._cursor

    def arrival_times(self, t0: int) -> np.ndarray:
        at_us = np.asarray([r.at_us for r in self.trace.records],
                           dtype=np.float64)
        return t0 + (at_us * 1000.0 * self.time_scale).astype(np.int64)


# ----------------------------------------------------------------------
# File-system workloads
# ----------------------------------------------------------------------


#: file-system models an :class:`FsSource` can run.
FS_MODELS = ("ext4", "f2fs")


def record_fs_workload(
    fs_model: str,
    num_sectors: int,
    *,
    operations: int = 500,
    seed: int = 0,
    working_files: int = 60,
    rate_iops: float = 50_000.0,
) -> BlockTrace:
    """Run a fileserver scenario over an fs model, capturing its block
    stream as a trace (no device involved)."""
    from repro.workloads.fileserver import FileServerConfig, FileServerWorkload

    if fs_model not in FS_MODELS:
        raise ValueError(f"unknown fs model {fs_model!r}; known: {FS_MODELS}")
    recorder = TraceRecorder(num_sectors, rate_iops=rate_iops)
    if fs_model == "ext4":
        from repro.fs.ext4 import Ext4Model

        model = Ext4Model(recorder)
    else:
        from repro.fs.f2fs import F2fsModel

        model = F2fsModel(recorder)
    workload = FileServerWorkload(
        model, FileServerConfig(working_files=working_files), seed=seed)
    workload.prepare()
    workload.run(operations)
    return recorder.trace


class FsSource(TraceSource):
    """A file-system workload as a request source.

    The fs scenario runs at construction against a
    :class:`~repro.workloads.trace.TraceRecorder`; the captured block
    trace then replays through the engine like any other trace.
    Closed-loop by default (an fs issues each request when the previous
    completes — the behaviour of a device's synchronous sector
    commands).
    """

    def __init__(
        self,
        fs_model: str,
        num_sectors: int,
        *,
        name: str | None = None,
        operations: int = 500,
        seed: int = 0,
        working_files: int = 60,
        submission: str = "closed",
        iodepth: int = 1,
    ) -> None:
        trace = record_fs_workload(
            fs_model, num_sectors, operations=operations, seed=seed,
            working_files=working_files)
        super().__init__(trace, name or f"fs-{fs_model}",
                         submission=submission, iodepth=iodepth)
        self.fs_model = fs_model
