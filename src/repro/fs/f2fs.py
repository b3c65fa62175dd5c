"""An F2FS-flavoured log-structured file-system model.

Block-trace behaviour captured:

* all data and node (inode) writes **append** to per-type logs laid out
  in segments — the flash-friendly pattern F2FS was designed around;
* overwrites invalidate the old location and append a new one, so the
  device never sees in-place updates in the main area;
* when free segments run low the cleaner migrates valid blocks out of a
  victim segment (real extra I/O, charged to the device) and frees it;
* deleted and cleaned space is discarded (F2FS issues discard by
  default), letting the FTL drop the sectors;
* a small checkpoint region is rewritten in place periodically.

The six-log design is reduced to two logs (data, node) — the distinction
that matters to the device is "several sequential append streams plus a
tiny in-place area", which two logs already produce.

Internally each file tracks one device LBA per file sector; extents are
derived by coalescing for the read path.  At simulation scale this is
cheap and removes a whole class of extent-splicing bugs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.fs.vfs import Extent, FileMeta, FsError, FsModel


@dataclass
class _Segment:
    index: int
    start: int
    cursor: int = 0
    valid: int = 0


class F2fsModel(FsModel):
    """Log-structured FS over a block device."""

    name = "f2fs"

    def __init__(
        self,
        device,
        segment_sectors: int = 512,
        checkpoint_sectors: int = 64,
        checkpoint_interval: int = 64,
        clean_low_water: int = 4,
        seed: int = 0,
    ) -> None:
        super().__init__(device)
        total = device.num_sectors
        main_start = checkpoint_sectors
        main_sectors = total - checkpoint_sectors
        self.num_segments = main_sectors // segment_sectors
        if self.num_segments < clean_low_water + 2:
            raise FsError("device too small for segmented layout")
        self.segment_sectors = segment_sectors
        self.checkpoint = Extent(0, checkpoint_sectors)
        self.checkpoint_interval = checkpoint_interval
        self.clean_low_water = clean_low_water
        self.main_start = main_start
        self._rng = np.random.default_rng(seed)

        self._free_segments: list[int] = list(range(self.num_segments - 1, -1, -1))
        self._segments: dict[int, _Segment] = {}
        self._logs: dict[str, _Segment | None] = {"data": None, "node": None}
        #: owner of each live main-area sector:
        #: ("data", file_name, file_offset) or ("node", ino).
        self._owner: dict[int, tuple] = {}
        #: per-file device LBA of each file sector.
        self._locs: dict[str, list[int]] = {}
        self._node_loc: dict[int, int] = {}
        self._ops_since_checkpoint = 0
        self._ino_of: dict[str, int] = {}
        self._ino_counter = 0
        self.cleaner_moves = 0
        self.checkpoints = 0
        self._cleaning = False

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------

    def create(self, name: str, sectors: int) -> None:
        if name in self.files:
            raise FsError(f"file exists: {name!r}")
        if sectors <= 0:
            raise FsError("file size must be positive")
        self._ino_of[name] = self._ino_counter
        self._ino_counter += 1
        self.files[name] = FileMeta(name, [])
        self._locs[name] = []
        self._write_file_range(name, 0, sectors, extend=True)
        self._write_node(name)
        self._tick()
        self.stats.creates += 1

    def delete(self, name: str) -> None:
        meta = self._file(name)
        for extent in meta.extents:
            self.device.trim_sectors(extent.start, extent.length)
        for lba in self._locs[name]:
            self._invalidate(lba)
        ino = self._ino_of[name]
        node_lba = self._node_loc.pop(ino, None)
        if node_lba is not None:
            self._invalidate(node_lba)
        del self.files[name]
        del self._locs[name]
        del self._ino_of[name]
        self._tick()
        self.stats.deletes += 1

    def overwrite(self, name: str, offset: int, sectors: int) -> None:
        """Out-of-place: invalidate old sectors, append new ones."""
        meta = self._file(name)
        if offset < 0 or offset + sectors > meta.sectors:
            raise FsError("overwrite range outside file")
        self._write_file_range(name, offset, sectors, extend=False)
        self._write_node(name)
        self._tick()
        self.stats.overwrites += 1

    def append(self, name: str, sectors: int) -> None:
        meta = self._file(name)
        self._write_file_range(name, meta.sectors, sectors, extend=True)
        self._write_node(name)
        self._tick()
        self.stats.appends += 1

    # ------------------------------------------------------------------
    # Log machinery
    # ------------------------------------------------------------------

    def _write_file_range(self, name: str, offset: int, sectors: int,
                          extend: bool) -> None:
        locs = self._locs[name]
        if not extend:
            for i in range(offset, offset + sectors):
                self._invalidate(locs[i])
        lbas = self._log_append("data", sectors)
        for i, lba in enumerate(lbas):
            file_off = offset + i
            self._owner[lba] = ("data", name, file_off)
            if extend:
                locs.append(lba)
            else:
                locs[file_off] = lba
        self._refresh_extents(name)

    def _write_node(self, name: str) -> None:
        ino = self._ino_of[name]
        old = self._node_loc.get(ino)
        if old is not None:
            self._invalidate(old)
        lba = self._log_append("node", 1)[0]
        self._owner[lba] = ("node", ino)
        self._node_loc[ino] = lba

    def _log_append(self, log: str, sectors: int) -> list[int]:
        """Append *sectors* to a log; returns the LBAs written, and
        performs the device writes in segment-contiguous runs."""
        out: list[int] = []
        written = 0
        while written < sectors:
            segment = self._active_segment(log)
            room = self.segment_sectors - segment.cursor
            take = min(room, sectors - written)
            lba = self.main_start + segment.start + segment.cursor
            self.device.write_sectors(lba, take)
            out.extend(range(lba, lba + take))
            segment.cursor += take
            segment.valid += take
            written += take
            if segment.cursor >= self.segment_sectors:
                self._logs[log] = None
        return out

    def _active_segment(self, log: str) -> _Segment:
        segment = self._logs[log]
        if segment is not None and segment.cursor < self.segment_sectors:
            return segment
        self._ensure_free_segments()
        # Cleaning may itself have opened a fresh segment for this log
        # (its moves append here too) — reuse it rather than abandoning it.
        segment = self._logs[log]
        if segment is not None and segment.cursor < self.segment_sectors:
            return segment
        if not self._free_segments:
            raise FsError("no free segments (volume full)")
        index = self._free_segments.pop()
        segment = _Segment(index, index * self.segment_sectors)
        self._segments[index] = segment
        self._logs[log] = segment
        return segment

    def _invalidate(self, lba: int) -> None:
        owner = self._owner.pop(lba, None)
        if owner is None:
            return
        seg_index = (lba - self.main_start) // self.segment_sectors
        segment = self._segments.get(seg_index)
        if segment is not None:
            segment.valid -= 1

    def _refresh_extents(self, name: str) -> None:
        """Rebuild the coalesced extent list from per-sector locations."""
        locs = self._locs[name]
        extents: list[Extent] = []
        for lba in locs:
            if extents and extents[-1].end == lba:
                extents[-1] = Extent(extents[-1].start, extents[-1].length + 1)
            else:
                extents.append(Extent(lba, 1))
        self.files[name].extents = extents

    # ------------------------------------------------------------------
    # Cleaning (F2FS GC)
    # ------------------------------------------------------------------

    def _ensure_free_segments(self) -> None:
        if self._cleaning:
            return  # the cleaner draws on the low-water reserve
        self._cleaning = True
        try:
            # One clean can transiently open a fresh segment in each log
            # before its victim is freed, so cleaning starts while enough
            # slack remains to cover that dip.
            reserve = self.clean_low_water + len(self._logs)
            guard = self.num_segments
            while len(self._free_segments) <= reserve and guard:
                guard -= 1
                if len(self._free_segments) < len(self._logs):
                    break  # not enough slack to clean safely: truly full
                if not self._clean_one():
                    break
        finally:
            self._cleaning = False

    def _clean_one(self) -> bool:
        active = {s.index for s in self._logs.values() if s is not None}
        candidates = [
            s for s in self._segments.values()
            if s.index not in active and s.cursor >= self.segment_sectors
               and s.valid < self.segment_sectors
        ]
        if not candidates:
            return False
        victim = min(candidates, key=lambda s: s.valid)
        base = self.main_start + victim.start
        moved = [
            (lba, self._owner[lba])
            for lba in range(base, base + self.segment_sectors)
            if lba in self._owner
        ]
        if moved:
            self.device.read_sectors(base, self.segment_sectors)
        for lba, owner in moved:
            self._invalidate(lba)
            if owner[0] == "node":
                _, ino = owner
                new_lba = self._log_append("node", 1)[0]
                self._owner[new_lba] = owner
                self._node_loc[ino] = new_lba
            else:
                _, name, offset = owner
                new_lba = self._log_append("data", 1)[0]
                if name in self._locs and offset < len(self._locs[name]):
                    self._owner[new_lba] = owner
                    self._locs[name][offset] = new_lba
                    self._refresh_extents(name)
            self.cleaner_moves += 1
        del self._segments[victim.index]
        self.device.trim_sectors(base, self.segment_sectors)
        self._free_segments.insert(0, victim.index)
        return True

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------

    def _tick(self) -> None:
        self._ops_since_checkpoint += 1
        if self._ops_since_checkpoint >= self.checkpoint_interval:
            self._ops_since_checkpoint = 0
            self.checkpoints += 1
            # Two alternating checkpoint packs; write a few sectors in place.
            half = max(1, self.checkpoint.length // 2)
            base = self.checkpoint.start + (self.checkpoints % 2) * half
            self.device.write_sectors(base, min(4, half))

    # ------------------------------------------------------------------

    def utilization(self) -> float:
        used = (self.num_segments - len(self._free_segments)) * self.segment_sectors
        return used / (self.num_segments * self.segment_sectors)
