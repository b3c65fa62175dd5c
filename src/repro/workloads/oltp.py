"""OLTP transaction workload (the Fig 2 driver).

Models a TPC-C-flavoured update mix the way Zuck et al. characterize it
for intra-SSD compression: each transaction dirties a few random table
pages, one or two index pages, and appends write-ahead-log records.  The
workload emits a stream of ``SectorWrite(lpn, data_class)`` events; the
compression experiment feeds them through each scheme and counts flash
page programs per transaction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.ssd.compression import make_scheme
from repro.workloads.compressibility import REGIMES, CompressibilityModel

#: Fig 2's schemes in the figure's order; the first is the baseline the
#: figure normalizes to.
FIG2_SCHEMES = ("re-bp32", "compact", "fixed", "chunk4", "none")
#: the Fig 2 table's columns, the order of a :func:`compression_rows` row.
COMPRESSION_HEADERS = ("scheme", "writes/txn", "normalized to re-bp32")


@dataclass(frozen=True)
class SectorWrite:
    """One 4 KB logical write with its data class."""

    lpn: int
    data_class: str


@dataclass(frozen=True)
class OltpConfig:
    """Shape of the transaction mix.

    The address space is split into table, index, and log areas; the log
    area is written as an append-only ring, the others are updated at
    random (B-tree leaf churn).
    """

    table_pages: int = 8192
    index_pages: int = 2048
    log_pages: int = 4096
    table_updates_per_txn: int = 3
    index_updates_per_txn: int = 2
    log_appends_per_txn: int = 2

    def __post_init__(self) -> None:
        for name in ("table_pages", "index_pages", "log_pages"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")

    @property
    def total_pages(self) -> int:
        return self.table_pages + self.index_pages + self.log_pages

    @property
    def writes_per_txn(self) -> int:
        return (self.table_updates_per_txn + self.index_updates_per_txn
                + self.log_appends_per_txn)


class OltpWorkload:
    """Generates transactions as streams of classified sector writes."""

    def __init__(self, config: OltpConfig | None = None, seed: int = 0) -> None:
        self.config = config if config is not None else OltpConfig()
        self._rng = np.random.default_rng(seed)
        self._log_cursor = 0
        self.transactions_generated = 0

    def transaction(self) -> list[SectorWrite]:
        """One transaction's sector writes, in commit order."""
        cfg = self.config
        rng = self._rng
        writes: list[SectorWrite] = []
        for _ in range(cfg.table_updates_per_txn):
            lpn = int(rng.integers(cfg.table_pages))
            writes.append(SectorWrite(lpn, "table"))
        index_base = cfg.table_pages
        for _ in range(cfg.index_updates_per_txn):
            lpn = index_base + int(rng.integers(cfg.index_pages))
            writes.append(SectorWrite(lpn, "index"))
        log_base = cfg.table_pages + cfg.index_pages
        for _ in range(cfg.log_appends_per_txn):
            writes.append(SectorWrite(log_base + self._log_cursor, "log"))
            self._log_cursor = (self._log_cursor + 1) % cfg.log_pages
        self.transactions_generated += 1
        return writes

    def stream(self, transactions: int) -> Iterator[list[SectorWrite]]:
        """Yield *transactions* transactions."""
        for _ in range(transactions):
            yield self.transaction()


def flash_writes_per_transaction(
    scheme,
    workload: OltpWorkload,
    model: CompressibilityModel,
    transactions: int,
) -> float:
    """Run *transactions* through one compression scheme.

    Returns flash page programs per transaction, the Fig 2 metric.
    Partial state (open batches) is flushed at the end so short runs are
    not under-counted.
    """
    if transactions < 1:
        raise ValueError("transactions must be >= 1")
    start_programs = scheme.stats.page_programs
    for txn in workload.stream(transactions):
        for write in txn:
            scheme.update(write.lpn, model.compressed_size(write.data_class))
    if hasattr(scheme, "flush"):
        scheme.flush()
    # Count the partially-filled open log page too: it will be programmed.
    programs = scheme.stats.page_programs - start_programs
    if scheme._log._open_fill > 0:
        programs += 1
    return programs / transactions


def compression_rates(regime: str, transactions: int) -> dict[str, float]:
    """Fig 2: flash writes per transaction of each scheme in
    :data:`FIG2_SCHEMES` order, on one seeded OLTP stream of *regime*
    data."""
    return {
        name: flash_writes_per_transaction(
            make_scheme(name), OltpWorkload(seed=1),
            CompressibilityModel(REGIMES[regime], seed=1), transactions)
        for name in FIG2_SCHEMES
    }


def compression_rows(rates: dict[str, float]) -> list[list]:
    """The Fig 2 table: each scheme's rate, raw and normalized to the
    baseline scheme."""
    baseline = rates[FIG2_SCHEMES[0]]
    return [[name, round(rate, 3), round(rate / baseline, 3)]
            for name, rate in rates.items()]
