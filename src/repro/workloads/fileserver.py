"""A filebench-``fileserver``-style workload over a file-system model.

This is the benchmark behind the paper's Fig 1 (via the F2FS paper's
simulated file server and Geriatrix's reproduction of it): a mix of whole
file creates, appends, whole-file reads, overwrites, and deletes over a
directory of working files.

Run its FS model on a timed device and the score is operations per
second of simulated device time; on a zero-latency device it still
exercises the same block pattern (for WAF studies).

:func:`run_aging_study` is Fig 1 itself: the file server on both FS
models, over two SSD models, after each aging profile.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.fs.aging import PROFILES, AgingProfile, age_filesystem
from repro.fs.ext4 import Ext4Model
from repro.fs.f2fs import F2fsModel
from repro.fs.vfs import FsError, FsModel
from repro.ssd.config import SsdConfig
from repro.ssd.presets import ssd64_like, ssd120_like
from repro.ssd.timed import TimedSSD


@dataclass(frozen=True)
class FileServerConfig:
    """Op mix and file shapes (filebench fileserver flavoured)."""

    working_files: int = 60
    mean_file_sectors: int = 32  # 128 KB files at 4 KB sectors
    append_sectors: int = 4
    overwrite_sectors: int = 4
    #: operation weights: create, delete, append, overwrite, read.
    weights: tuple[float, float, float, float, float] = (0.2, 0.2, 0.2, 0.15, 0.25)

    def __post_init__(self) -> None:
        for name in ("working_files", "mean_file_sectors", "append_sectors",
                     "overwrite_sectors"):
            if not getattr(self, name) >= 1:
                raise ValueError(f"{name} must be >= 1")
        if len(self.weights) != len(FileServerWorkload.OPS):
            raise ValueError(
                f"weights must have {len(FileServerWorkload.OPS)} entries")
        if not all(w >= 0 for w in self.weights):
            raise ValueError("weights must be non-negative numbers")
        if abs(sum(self.weights) - 1.0) > 1e-6:
            raise ValueError("weights must sum to 1")


@dataclass
class FileServerResult:
    operations: int
    elapsed_ns: int
    failed_ops: int

    @property
    def ops_per_second(self) -> float:
        if self.elapsed_ns <= 0:
            return 0.0
        return self.operations / (self.elapsed_ns / 1e9)


class FileServerWorkload:
    """Stateful op generator bound to one FS model."""

    OPS = ("create", "delete", "append", "overwrite", "read")

    def __init__(self, fs: FsModel, config: FileServerConfig | None = None,
                 seed: int = 0) -> None:
        self.fs = fs
        self.config = config if config is not None else FileServerConfig()
        self._rng = np.random.default_rng(seed)
        self._serial = 0

    def prepare(self) -> None:
        """Populate the working set."""
        for _ in range(self.config.working_files):
            self._create()

    def run(self, operations: int) -> FileServerResult:
        """Execute *operations* ops; returns the throughput result."""
        t0 = self.fs.device.now
        failed = 0
        weights = np.asarray(self.config.weights)
        for _ in range(operations):
            op = self.OPS[int(self._rng.choice(len(self.OPS), p=weights))]
            try:
                getattr(self, f"_{op}")()
            except FsError:
                failed += 1
        elapsed = self.fs.device.now - t0
        return FileServerResult(operations=operations, elapsed_ns=elapsed,
                                failed_ops=failed)

    # ------------------------------------------------------------------

    def _sample_size(self) -> int:
        mean = self.config.mean_file_sectors
        return max(1, int(self._rng.exponential(mean)))

    def _pick_file(self) -> str:
        names = list(self.fs.files)
        if not names:
            raise FsError("no files in working set")
        return names[int(self._rng.integers(len(names)))]

    def _create(self) -> None:
        name = f"fsrv-{self._serial}"
        self._serial += 1
        self.fs.create(name, self._sample_size())

    def _delete(self) -> None:
        self.fs.delete(self._pick_file())

    def _append(self) -> None:
        self.fs.append(self._pick_file(), self.config.append_sectors)

    def _overwrite(self) -> None:
        name = self._pick_file()
        size = self.fs.file_sectors(name)
        count = min(self.config.overwrite_sectors, size)
        offset = 0
        if size > count:
            offset = int(self._rng.integers(size - count))
        self.fs.overwrite(name, offset, count)

    def _read(self) -> None:
        self.fs.read(self._pick_file())


@dataclass
class AgingStudy:
    """The Fig 1 result: file-server ops/s on each FS model, per SSD
    model and aging profile, in measurement order."""

    #: ``(model, profile, ext4 ops/s, f2fs ops/s)`` per cell.
    cells: list[tuple[str, str, float, float]]

    HEADERS = ("SSD model", "aging", "ext4 ops/s", "f2fs ops/s", "f2fs/ext4")

    def ratios(self) -> list[float]:
        """The F2FS/EXT4 throughput ratio of each cell."""
        return [f2fs / ext4 if ext4 else 0.0
                for _, _, ext4, f2fs in self.cells]

    def rows(self) -> list[list]:
        """The Fig 1 table, one row per (SSD model, aging profile)."""
        return [[model, profile, round(ext4), round(f2fs), round(ratio, 3)]
                for (model, profile, ext4, f2fs), ratio
                in zip(self.cells, self.ratios())]


def _aged_throughput(config: SsdConfig, fs_cls: type[FsModel],
                     profile: AgingProfile) -> float:
    """Ops/s of 500 file-server ops on a freshly aged FS model."""
    device = TimedSSD(config)
    if fs_cls is F2fsModel:
        fs = F2fsModel(device, segment_sectors=256, checkpoint_sectors=32)
    else:
        fs = Ext4Model(device, journal_sectors=256, metadata_sectors=128)
    age_filesystem(fs, profile, seed=7)
    workload = FileServerWorkload(
        fs, FileServerConfig(working_files=40, mean_file_sectors=16), seed=11
    )
    workload.prepare()
    return workload.run(500).ops_per_second


def run_aging_study() -> AgingStudy:
    """Fig 1: both FS models on a lean 64 GB-class and a generous
    120 GB-class drive (scale 2), after every aging profile of
    :data:`~repro.fs.aging.PROFILES`."""
    cells = []
    for model, config_fn in (("ssd64", ssd64_like), ("ssd120", ssd120_like)):
        for name, profile in PROFILES.items():
            ext4 = _aged_throughput(config_fn(scale=2), Ext4Model, profile)
            f2fs = _aged_throughput(config_fn(scale=2), F2fsModel, profile)
            cells.append((model, name, ext4, f2fs))
    return AgingStudy(cells)
