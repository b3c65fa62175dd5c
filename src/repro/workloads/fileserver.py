"""A filebench-``fileserver``-style workload over a file-system model.

This is the benchmark behind the paper's Fig 1 (via the F2FS paper's
simulated file server and Geriatrix's reproduction of it): a mix of whole
file creates, appends, whole-file reads, overwrites, and deletes over a
directory of working files.

Run its FS model on a timed device and the score is operations per
second of simulated device time; on a zero-latency device it still
exercises the same block pattern (for WAF studies).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.fs.vfs import FsError, FsModel


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
        if self.working_files < 1:
            raise ValueError("working_files must be >= 1")
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
