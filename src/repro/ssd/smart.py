"""S.M.A.R.T. statistics as the device exposes them.

The paper's §2.2 relies on the Crucial MX500 being unusually forthcoming:
it reports "Host Program Page Count" (attribute 246) and "FTL Program Page
Count" (attribute 247), both in NAND pages.  This module maintains those
counters plus the usual supporting attributes, and renders a
smartmontools-style table so the black-box tooling consumes the device the
same way ``smartctl -A`` output would be consumed.

Counter semantics (matching the drive's documentation as the paper reads
it): every NAND page program is attributed either to the host (pages whose
content is host data) or to the FTL (GC migrations, mapping metadata,
RAIN parity, pSLC traffic, wear leveling, refresh).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.ssd.ops import FlashOp, OpKind, OpReason

# Members are told apart by identity: ``Enum.__hash__`` is a
# Python-level call, so a set or dict lookup per op costs more than the
# whole attribution.
_READ, _PROGRAM, _ERASE = OpKind.READ, OpKind.PROGRAM, OpKind.ERASE
_HOST, _GC, _META = OpReason.HOST, OpReason.GC, OpReason.META


@dataclass
class SmartAttribute:
    """One row of the attribute table."""

    attr_id: int
    name: str
    raw: int


@dataclass
class SmartCounters:
    """Running device statistics.

    ``host_program_pages`` / ``ftl_program_pages`` are the two counters
    the Fig 4 experiments are built on.
    """

    host_program_pages: int = 0
    ftl_program_pages: int = 0
    host_sectors_written: int = 0
    host_sectors_read: int = 0
    read_pages: int = 0
    erase_count: int = 0
    gc_program_pages: int = 0
    meta_program_pages: int = 0
    parity_program_pages: int = 0
    pslc_program_pages: int = 0
    wear_program_pages: int = 0
    refresh_program_pages: int = 0
    power_on_hours: int = 0
    unexpected_power_loss: int = 0
    #: derived attributes, synced by the device from FTL state.
    percent_lifetime_remaining: int = 100
    reported_uncorrectable: int = 0
    grown_bad_blocks: int = 0
    relocated_sectors: int = 0
    read_retries: int = 0
    rain_reconstructions: int = 0

    #: detail counter of the rare FTL reasons (GC and META are told
    #: apart by identity in :meth:`record`).
    _BY_REASON = {
        OpReason.PARITY: "parity_program_pages",
        OpReason.PSLC: "pslc_program_pages",
        OpReason.WEAR: "wear_program_pages",
        OpReason.REFRESH: "refresh_program_pages",
    }

    def record(self, op: FlashOp) -> None:
        """Attribute one flash operation: a program of host data to the
        host, any other program to the FTL and to its reason's detail
        counter; reads and erases to their totals."""
        kind = op.kind
        if kind is _PROGRAM:
            reason = op.reason
            if reason is _HOST:
                self.host_program_pages += 1
            else:
                self.ftl_program_pages += 1
                if reason is _GC:
                    self.gc_program_pages += 1
                elif reason is _META:
                    self.meta_program_pages += 1
                else:
                    detail = self._BY_REASON[reason]
                    setattr(self, detail, getattr(self, detail) + 1)
        elif kind is _READ:
            self.read_pages += 1
        elif kind is _ERASE:
            self.erase_count += 1

    # ------------------------------------------------------------------
    # Derived figures used throughout the paper
    # ------------------------------------------------------------------

    @property
    def total_program_pages(self) -> int:
        return self.host_program_pages + self.ftl_program_pages

    def waf(self) -> float:
        """The paper's Fig 4b metric: FTL pages per host page."""
        if not self.host_program_pages:
            return 0.0
        return self.ftl_program_pages / self.host_program_pages

    def host_bytes_per_nand_page(self, sector_size: int) -> float:
        """The paper's Fig 4a metric: host bytes per NAND page program."""
        if not self.total_program_pages:
            return 0.0
        return self.host_sectors_written * sector_size / self.total_program_pages

    def snapshot(self) -> "SmartCounters":
        """A copy, for delta computations between measurement windows."""
        return SmartCounters(**{
            name: getattr(self, name)
            for name in self.__dataclass_fields__
        })

    def delta(self, earlier: "SmartCounters") -> "SmartCounters":
        """Counter deltas since *earlier* (both from the same device)."""
        return SmartCounters(**{
            name: getattr(self, name) - getattr(earlier, name)
            for name in self.__dataclass_fields__
        })

    # ------------------------------------------------------------------
    # smartctl-style rendering
    # ------------------------------------------------------------------

    def attributes(self) -> list[SmartAttribute]:
        return [
            SmartAttribute(5, "Reallocated_Block_Count", self.grown_bad_blocks),
            SmartAttribute(12, "Power_Cycle_Count", 1),
            SmartAttribute(173, "Ave_Block-Erase_Count", self.erase_count),
            SmartAttribute(174, "Unexpect_Power_Loss_Ct", self.unexpected_power_loss),
            SmartAttribute(187, "Reported_Uncorrect", self.reported_uncorrectable),
            SmartAttribute(196, "Reallocated_Event_Count", self.relocated_sectors),
            SmartAttribute(202, "Percent_Lifetime_Remain",
                           self.percent_lifetime_remaining),
            SmartAttribute(210, "RAIN_Successful_Recovery", self.rain_reconstructions),
            SmartAttribute(246, "Total_Host_Sector_Write", self.host_sectors_written),
            SmartAttribute(247, "Host_Program_Page_Count", self.host_program_pages),
            SmartAttribute(248, "FTL_Program_Page_Count", self.ftl_program_pages),
        ]

    def render(self) -> str:
        """An ``smartctl -A``-shaped table."""
        lines = [
            "ID# ATTRIBUTE_NAME          RAW_VALUE",
        ]
        for attr in self.attributes():
            lines.append(f"{attr.attr_id:>3} {attr.name:<24}{attr.raw}")
        return "\n".join(lines)
