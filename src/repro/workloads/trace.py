"""Block-trace recording and replay.

Storage studies live and die by traces: record the request stream an
application (or one of this repo's workload generators) produces, persist
it, and replay it against any device configuration.  The format is a
four-column CSV (``op,lba,sectors,at_us``) — trivially diffable and easy
to produce from real blktrace output.

Recording stands in for a device: a :class:`TraceRecorder` takes the
host's sector commands and logs them.  Replay is the workload
engine's job: a :class:`~repro.workloads.source.TraceSource` honours the
recorded inter-arrival times (open loop, optionally time-scaled), so a
trace captured at one speed can stress a slower configuration.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

KINDS = ("write", "read", "trim", "flush")


class TraceFormatError(ValueError):
    """A malformed trace, rejected at load time.

    Carries the 1-based line number of the offending row so the error
    names the exact spot instead of failing deep inside the engine
    mid-replay.
    """

    def __init__(self, message: str, line: int | None = None) -> None:
        if line is not None:
            message = f"trace line {line}: {message}"
        super().__init__(message)
        self.line = line


@dataclass(frozen=True)
class TraceRecord:
    """One host request."""

    kind: str
    lba: int
    sectors: int
    at_us: float

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown op kind {self.kind!r}")
        if self.lba < 0 or self.sectors < 0:
            raise ValueError("lba/sectors must be non-negative")
        if not (math.isfinite(self.at_us) and self.at_us >= 0):
            raise ValueError(
                f"at_us must be finite and non-negative, got {self.at_us!r}")


class BlockTrace:
    """An ordered sequence of host requests."""

    def __init__(self, records: Iterable[TraceRecord] = ()) -> None:
        self.records: list[TraceRecord] = list(records)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def append(self, record: TraceRecord) -> None:
        if self.records and record.at_us < self.records[-1].at_us:
            raise ValueError("trace timestamps must be non-decreasing")
        self.records.append(record)

    @property
    def duration_us(self) -> float:
        return self.records[-1].at_us if self.records else 0.0

    def sectors_written(self) -> int:
        return sum(r.sectors for r in self.records if r.kind == "write")

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    def dumps(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["op", "lba", "sectors", "at_us"])
        for record in self.records:
            writer.writerow([record.kind, record.lba, record.sectors,
                             f"{record.at_us:.3f}"])
        return buf.getvalue()

    def save(self, path: str | Path) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.dumps())
        return path

    @classmethod
    def loads(cls, text: str, num_sectors: int | None = None) -> "BlockTrace":
        """Parse a trace, validating every row at load time.

        Rejected with a :class:`TraceFormatError` naming the offending
        line: wrong column count, unknown op kinds, unparseable fields,
        negative or non-finite timestamps, timestamps that go backwards,
        and — when the target device's *num_sectors* is given — requests
        that fall outside the LBA space.  Catching these here means a
        malformed trace fails in one obvious place instead of deep inside
        the engine mid-replay.
        """
        reader = csv.reader(io.StringIO(text))
        header = next(reader, None)
        if header != ["op", "lba", "sectors", "at_us"]:
            raise TraceFormatError(
                f"not a block trace (header {header!r}, "
                f"want op,lba,sectors,at_us)", line=1)
        trace = cls()
        last_at_us = None
        for line, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 4:
                raise TraceFormatError(
                    f"expected 4 columns (op,lba,sectors,at_us), "
                    f"got {len(row)}: {row!r}", line=line)
            kind = row[0]
            try:
                lba, sectors, at_us = int(row[1]), int(row[2]), float(row[3])
            except ValueError:
                raise TraceFormatError(
                    f"unparseable lba/sectors/at_us in {row!r}",
                    line=line) from None
            try:
                record = TraceRecord(kind, lba, sectors, at_us)
            except ValueError as exc:
                raise TraceFormatError(str(exc), line=line) from None
            if last_at_us is not None and at_us < last_at_us:
                raise TraceFormatError(
                    f"at_us goes backwards ({at_us:g} after "
                    f"{last_at_us:g}); trace timestamps must be "
                    f"non-decreasing", line=line)
            if (num_sectors is not None and kind != "flush"
                    and lba + max(1, sectors) > num_sectors):
                raise TraceFormatError(
                    f"request [{lba}, {lba + max(1, sectors)}) outside "
                    f"the device's {num_sectors} sectors", line=line)
            last_at_us = at_us
            trace.records.append(record)
        return trace

    @classmethod
    def load(cls, path: str | Path,
             num_sectors: int | None = None) -> "BlockTrace":
        return cls.loads(Path(path).read_text(), num_sectors=num_sectors)


class TraceRecorder:
    """A record-only block device: logs every host request, drives none.

    It presents the synchronous sector commands of a
    :class:`~repro.ssd.timed.TimedSSD` plus ``flush``, ``num_sectors``
    and ``now``.  File-system models never read data back, so a model
    run against a recorder captures the exact block trace it would issue
    to a real device.  Timestamps are synthesized at a fixed
    ``rate_iops`` — the recorded trace then replays at that pace.
    """

    def __init__(self, num_sectors: int, rate_iops: float = 50_000.0) -> None:
        if num_sectors < 1:
            raise ValueError(f"num_sectors must be >= 1, got {num_sectors!r}")
        if not (math.isfinite(rate_iops) and rate_iops > 0):
            raise ValueError(
                f"rate_iops must be finite and positive, got {rate_iops!r}")
        self.num_sectors = num_sectors
        self.trace = BlockTrace()
        self._gap_us = 1e6 / rate_iops
        self._clock_us = 0.0

    @property
    def now(self) -> int:
        """The synthesized clock, in ns like a device's ``now``."""
        return int(self._clock_us * 1000)

    def _log(self, kind: str, lba: int, sectors: int) -> None:
        self.trace.append(TraceRecord(kind, lba, sectors, self._clock_us))
        self._clock_us += self._gap_us

    def write_sectors(self, lba: int, count: int = 1) -> None:
        self._log("write", lba, count)

    def read_sectors(self, lba: int, count: int = 1) -> None:
        self._log("read", lba, count)

    def trim_sectors(self, lba: int, count: int = 1) -> None:
        self._log("trim", lba, count)

    def flush(self) -> None:
        self._log("flush", 0, 0)
