"""The host interface every simulated drive presents.

Everything that drives a device — the black-box studies in
:mod:`repro.core.blackbox`, the file-system models in :mod:`repro.fs`,
the workload engine — programs against the :class:`HostDevice` protocol
rather than :class:`~repro.ssd.timed.TimedSSD`, so a wrapper such as
:class:`~repro.ssd.firmware.device.HackableSSD` can stand in for it.
File-system models call only ``num_sectors`` and the synchronous sector
commands, so a record-only :class:`~repro.workloads.trace.TraceRecorder`
stands in for the drive when a trace is captured.

The command set is the sector-addressed block-device surface a host
sees: ``identify``/``write_sectors``/``read_sectors``/``trim_sectors``/
``flush``/``idle``/``shutdown`` plus the SMART observation window.  The
sector commands, ``flush`` and ``shutdown`` return the completed
request (a :class:`~repro.ssd.timed.CompletedRequest`), ``idle`` the
time its maintenance is done; callers that only *drive* a device never
inspect either.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, runtime_checkable

from repro.obs.sinks import TraceSink
from repro.ssd.smart import SmartCounters


@dataclass
class DeviceInfo:
    """What an INQUIRY/IDENTIFY-style query would return."""

    model: str
    capacity_bytes: int
    sector_size: int


@runtime_checkable
class HostDevice(Protocol):
    """The host-visible surface of a simulated drive."""

    model: str
    smart: SmartCounters
    obs: TraceSink

    @property
    def sector_size(self) -> int: ...

    @property
    def num_sectors(self) -> int: ...

    @property
    def capacity_bytes(self) -> int: ...

    def identify(self) -> DeviceInfo: ...

    def attach_sink(self, sink: TraceSink) -> None: ...

    def write_sectors(self, lba: int, count: int = 1): ...

    def read_sectors(self, lba: int, count: int = 1): ...

    def trim_sectors(self, lba: int, count: int = 1): ...

    def flush(self): ...

    def shutdown(self): ...

    def idle(self, max_blocks: int = 8) -> int: ...

    def smart_snapshot(self) -> SmartCounters: ...

    def smart_render(self) -> str: ...
