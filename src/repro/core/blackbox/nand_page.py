"""Fig 4a: estimating the NAND page size from SMART counters.

The MX500 reports NAND-page program counts; the paper runs "a simple,
sequential write test of increasing sizes" and divides host bytes by the
page-count delta.  The ratio converges at ~30 KB per NAND page — the
signature of a 32 KB page with 15+1 RAIN parity (32 KB * 15/16 = 30 KB).

The estimator here performs that exact protocol against a
:class:`~repro.ssd.timed.TimedSSD` using only its host sector commands
and SMART surface — the probe is device-mode agnostic by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ssd.timed import TimedSSD


@dataclass(frozen=True)
class SweepPoint:
    """One x/y point of the Fig 4a curve."""

    write_bytes: int
    nand_pages: int
    bytes_per_page: float


@dataclass
class NandPageEstimate:
    points: list[SweepPoint]

    HEADERS = ("host write (KiB)", "NAND pages", "bytes/page")

    def rows(self) -> list[list]:
        """The Fig 4a table, one row per sweep point."""
        return [[p.write_bytes // 1024, p.nand_pages, round(p.bytes_per_page)]
                for p in self.points]

    @property
    def converged_bytes_per_page(self) -> float:
        """The asymptote: mean of the last few sweep points."""
        if not self.points:
            return 0.0
        tail = self.points[-3:]
        return sum(p.bytes_per_page for p in tail) / len(tail)


def sequential_write_sweep(
    device: TimedSSD,
    sizes_bytes: list[int] | None = None,
    start_lba: int = 0,
) -> NandPageEstimate:
    """Run the Fig 4a protocol: sequential writes of increasing total
    size, measuring host-bytes per NAND page from SMART deltas."""
    sector = device.sector_size
    if sizes_bytes is None:
        sizes_bytes = [sector * (1 << i) for i in range(1, 11)]
    points: list[SweepPoint] = []
    lba = start_lba
    for size in sizes_bytes:
        sectors = max(1, size // sector)
        if lba + sectors > device.num_sectors:
            lba = start_lba
        before = device.smart_snapshot()
        device.write_sectors(lba, sectors)
        device.flush()
        delta = device.smart.delta(before)
        pages = delta.total_program_pages
        lba += sectors
        points.append(SweepPoint(
            write_bytes=sectors * sector,
            nand_pages=pages,
            bytes_per_page=(sectors * sector / pages) if pages else 0.0,
        ))
    return NandPageEstimate(points)
