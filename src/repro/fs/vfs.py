"""Common file-system model machinery.

The Fig 1 reproduction needs two *block-trace-accurate* file system
models: what matters to the SSD is the pattern of sector writes, reads,
and discards each design produces, not POSIX semantics.  The models here
implement just enough structure — extent allocation, metadata regions,
journals/logs — to generate those patterns faithfully.

A model drives the device's own synchronous sector commands
(``write_sectors``/``read_sectors``/``trim_sectors`` of a
:class:`~repro.ssd.timed.TimedSSD`), so the same FS code runs WAF
studies (a zero-latency device), throughput studies (a timed one) and
trace capture (a :class:`~repro.workloads.trace.TraceRecorder`).
"""

from __future__ import annotations

from dataclasses import dataclass, field


class FsError(Exception):
    """File-system level failure (no space, unknown file, bad range)."""


# ----------------------------------------------------------------------
# Extents and free space
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Extent:
    """A contiguous run of sectors."""

    start: int
    length: int

    @property
    def end(self) -> int:
        return self.start + self.length


class FreeSpaceMap:
    """First-fit extent allocator over ``[base, base + size)``.

    Files allocated and freed over time fragment the map — the mechanism
    Geriatrix-style aging exploits.
    """

    def __init__(self, base: int, size: int) -> None:
        if size <= 0:
            raise ValueError("size must be positive")
        self.base = base
        self.size = size
        self._free: list[Extent] = [Extent(base, size)]

    @property
    def free_sectors(self) -> int:
        return sum(e.length for e in self._free)

    @property
    def used_sectors(self) -> int:
        return self.size - self.free_sectors

    def utilization(self) -> float:
        return self.used_sectors / self.size

    def fragmentation(self) -> float:
        """1 - (largest free extent / total free): 0 = one hole, -> 1 = dust."""
        total = self.free_sectors
        if total == 0:
            return 0.0
        largest = max(e.length for e in self._free)
        return 1.0 - largest / total

    def free_extent_count(self) -> int:
        return len(self._free)

    def allocate(self, sectors: int) -> list[Extent]:
        """First-fit allocation; splits across holes when necessary."""
        if sectors <= 0:
            raise ValueError("sectors must be positive")
        if sectors > self.free_sectors:
            raise FsError(f"no space: need {sectors}, have {self.free_sectors}")
        got: list[Extent] = []
        need = sectors
        new_free: list[Extent] = []
        for extent in self._free:
            if need <= 0:
                new_free.append(extent)
                continue
            take = min(need, extent.length)
            got.append(Extent(extent.start, take))
            need -= take
            if take < extent.length:
                new_free.append(Extent(extent.start + take, extent.length - take))
        self._free = new_free
        return got

    def release(self, extents: list[Extent]) -> None:
        """Return extents to the free map, coalescing neighbours."""
        merged = sorted(self._free + list(extents), key=lambda e: e.start)
        out: list[Extent] = []
        for extent in merged:
            if out and out[-1].end == extent.start:
                out[-1] = Extent(out[-1].start, out[-1].length + extent.length)
            elif out and out[-1].end > extent.start:
                raise FsError("double free / overlapping extents")
            else:
                out.append(extent)
        self._free = out


# ----------------------------------------------------------------------
# Base FS model
# ----------------------------------------------------------------------


@dataclass
class FileMeta:
    """In-model file state."""

    name: str
    extents: list[Extent] = field(default_factory=list)

    @property
    def sectors(self) -> int:
        return sum(e.length for e in self.extents)


@dataclass
class FsStats:
    creates: int = 0
    deletes: int = 0
    overwrites: int = 0
    appends: int = 0
    reads: int = 0


class FsModel:
    """Shared bookkeeping; subclasses implement the write patterns."""

    name = "abstract"

    def __init__(self, device) -> None:
        self.device = device
        self.files: dict[str, FileMeta] = {}
        self.stats = FsStats()

    # -- required surface -------------------------------------------------

    def create(self, name: str, sectors: int) -> None:
        raise NotImplementedError

    def delete(self, name: str) -> None:
        raise NotImplementedError

    def overwrite(self, name: str, offset: int, sectors: int) -> None:
        raise NotImplementedError

    def append(self, name: str, sectors: int) -> None:
        raise NotImplementedError

    # -- shared helpers ----------------------------------------------------

    def read(self, name: str, offset: int = 0, sectors: int | None = None) -> None:
        """Read a file range (default: the whole file)."""
        meta = self._file(name)
        sectors = meta.sectors - offset if sectors is None else sectors
        for extent in self._slice_extents(meta, offset, sectors):
            self.device.read_sectors(extent.start, extent.length)
        self.stats.reads += 1

    def exists(self, name: str) -> bool:
        return name in self.files

    def file_sectors(self, name: str) -> int:
        return self._file(name).sectors

    def _file(self, name: str) -> FileMeta:
        try:
            return self.files[name]
        except KeyError:
            raise FsError(f"no such file: {name!r}") from None

    @staticmethod
    def _slice_extents(meta: FileMeta, offset: int, sectors: int) -> list[Extent]:
        """Map a logical file range onto its physical extents."""
        if offset < 0 or sectors < 0 or offset + sectors > meta.sectors:
            raise FsError(
                f"range [{offset}, {offset + sectors}) outside file of "
                f"{meta.sectors} sectors"
            )
        out: list[Extent] = []
        skip = offset
        need = sectors
        for extent in meta.extents:
            if need <= 0:
                break
            if skip >= extent.length:
                skip -= extent.length
                continue
            start = extent.start + skip
            take = min(extent.length - skip, need)
            out.append(Extent(start, take))
            skip = 0
            need -= take
        return out
