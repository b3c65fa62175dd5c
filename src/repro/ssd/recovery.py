"""Power-loss recovery: rebuilding FTL state from the flash itself.

An SSD must reconstruct its logical-to-physical map after an unclean
shutdown.  This module implements the classic *full-scan* strategy: every
programmed page carries an OOB record (the LPNs of the sectors it holds,
or the translation-page id for metadata pages) and a monotonic program
sequence number; scanning all pages in sequence order and letting the
newest copy of each sector win rebuilds the map exactly.

Semantics and limitations (shared with early real FTLs):

* data that reached flash — including sectors still in the pSLC buffer —
  is recovered; sectors that only lived in the RAM write cache are lost;
* TRIMs issued after a sector's last program are lost (the sector
  *resurrects*), because trims write nothing to flash in this model;
  drives avoid this by journaling trims with their mapping metadata;
* partially-written blocks are padded to the end (write-pointer
  padding), making every non-free block reclaimable by GC.

The scan honors the ECC model: when retention modeling is enabled
(``config.ops_per_day``), a page whose expected raw bit errors exceed
the ECC budget is *uncorrectable at scan time*.  On a RAIN-protected
device the page is rebuilt from stripe parity
(``rain_reconstructed_pages``); otherwise its sectors are **lost, not
resurrected**: the page was the newest copy, so mapping an older copy
(or anything at all) would silently serve corrupt or stale data.  Lost
sectors read back as unmapped and are counted
(``unrecoverable_pages`` / ``sectors_lost``).  The only clock that
survives power loss is the OOB program-sequence stamp, so page age is
measured in programs-behind-newest and scaled by ``ops_per_day``.

The returned :class:`RecoveryReport` quantifies all of it, and
:func:`recover_ftl` hands back a fully operational FTL over the same
NAND array.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.flash.errors import (
    PSLC_RELIABILITY,
    RELIABILITY_BY_TIMING,
    FailureInjector,
    ReliabilityModel,
)
from repro.flash.nand import NO_LPN, NandArray
from repro.ssd.config import SsdConfig
from repro.ssd.ftl import META_P2L_BASE, P2L_NONE, Ftl, _p2l_to_tp
from repro.ssd.mapping import UNMAPPED

#: tombstone marker for a sector whose newest copy was unreadable.
_LOST = -1


@dataclass
class RecoveryReport:
    """What the scan found and rebuilt."""

    pages_scanned: int = 0
    sectors_recovered: int = 0
    pslc_sectors_recovered: int = 0
    translation_pages_found: int = 0
    blocks_padded: int = 0
    stale_copies_skipped: int = 0
    #: pages uncorrectable at scan time and not reconstructable.
    unrecoverable_pages: int = 0
    #: uncorrectable pages rebuilt from RAIN stripe parity.
    rain_reconstructed_pages: int = 0
    #: sectors whose newest copy sat on an unrecoverable page.
    sectors_lost: int = 0


def recover_ftl(
    config: SsdConfig,
    nand: NandArray,
    injector: FailureInjector | None = None,
    reliability: ReliabilityModel | None = None,
) -> tuple[Ftl, RecoveryReport]:
    """Rebuild a working FTL over *nand* by scanning OOB records."""
    ftl = Ftl(config, nand=nand, injector=injector, reliability=reliability)
    report = RecoveryReport()
    geometry = config.geometry
    spp = geometry.sectors_per_page
    pslc_blocks = frozenset(config.pslc_block_ids())

    _pad_partial_blocks(ftl, pslc_blocks, report)

    # Scan programmed pages in program order: the newest copy wins.
    programmed = np.nonzero(nand.page_state == 1)[0]
    order = np.argsort(nand.page_seq[programmed], kind="stable")
    newest_seq = (int(nand.page_seq[programmed].max())
                  if len(programmed) else 0)
    model = (reliability if reliability is not None
             else RELIABILITY_BY_TIMING[config.timing_name])
    winner: dict[int, tuple[int, int]] = {}  # lpn -> (seq, psa or _LOST)
    tp_winner: dict[int, tuple[int, int]] = {}  # tp -> (seq, ppn or _LOST)
    for ppn in (int(p) for p in programmed[order]):
        report.pages_scanned += 1
        oob = nand.read_oob(ppn)
        if oob is None:
            continue  # parity / padding: carries no logical content
        seq = int(nand.page_seq[ppn])
        readable = _page_readable(config, nand, injector, model, pslc_blocks,
                                  ppn, newest_seq)
        if not readable:
            if config.rain_stripe:
                # RAIN first: parity lives on flash, so the stripe can be
                # rebuilt before giving the page up.
                report.rain_reconstructed_pages += 1
                readable = True
            else:
                report.unrecoverable_pages += 1
        for slot, code in enumerate(oob):
            if code == int(NO_LPN):
                continue
            if code <= META_P2L_BASE:
                tp_winner[_p2l_to_tp(code)] = (
                    seq, ppn if readable else _LOST
                )
            elif 0 <= code < ftl.num_lpns:
                previous = winner.get(code)
                if previous is not None:
                    report.stale_copies_skipped += 1
                # An unreadable newest copy still supersedes older ones:
                # resurrecting a stale copy would be silent corruption.
                winner[code] = (seq, ppn * spp + slot if readable else _LOST)

    _apply_winners(ftl, winner, tp_winner, pslc_blocks, report)
    _rebuild_block_accounting(ftl, pslc_blocks)
    _rebuild_allocator(ftl, pslc_blocks)
    return ftl, report


def _page_readable(
    config: SsdConfig,
    nand: NandArray,
    injector: FailureInjector | None,
    model: ReliabilityModel,
    pslc_blocks: frozenset[int],
    ppn: int,
    newest_seq: int,
) -> bool:
    """ECC verdict for one scanned page (injected hard faults first,
    then the wear/retention model when retention modeling is on)."""
    if injector is not None and injector.read_uncorrectable(ppn):
        return False
    if not config.ops_per_day:
        return True
    block = ppn // config.geometry.pages_per_block
    page_model = PSLC_RELIABILITY if block in pslc_blocks else model
    age_days = (newest_seq - int(nand.page_seq[ppn])) / config.ops_per_day
    cycles = int(nand.block_erase_count[block])
    return page_model.is_correctable(cycles, age_days)


def _pad_partial_blocks(ftl: Ftl, pslc_blocks: frozenset[int],
                        report: RecoveryReport) -> None:
    """Write-pointer padding: fill half-written blocks so every non-free
    block is fully written (and hence a legal GC candidate)."""
    geometry = ftl.geometry
    nand = ftl.nand
    for block in range(geometry.total_blocks):
        ptr = int(nand.block_write_ptr[block])
        if ptr == 0 or ptr >= geometry.pages_per_block:
            continue
        report.blocks_padded += 1
        for page in range(ptr, geometry.pages_per_block):
            nand.program(block * geometry.pages_per_block + page,
                         lpn=int(NO_LPN))


def _apply_winners(
    ftl: Ftl,
    winner: dict[int, tuple[int, int]],
    tp_winner: dict[int, tuple[int, int]],
    pslc_blocks: frozenset[int],
    report: RecoveryReport,
) -> None:
    geometry = ftl.geometry
    spp = geometry.sectors_per_page
    for lpn, (_, psa) in winner.items():
        if psa == _LOST:
            report.sectors_lost += 1
            continue  # newest copy unreadable: the sector reads unmapped
        block = psa // spp // geometry.pages_per_block
        if block in pslc_blocks:
            ftl.pslc.index[lpn] = psa
            report.pslc_sectors_recovered += 1
        else:
            ftl.mapping.silent_update(lpn, psa)
            ftl.p2l[psa] = lpn
            ftl.sector_valid[psa] = True
            report.sectors_recovered += 1
    for tp_id, (_, ppn) in tp_winner.items():
        if ppn == _LOST:
            continue  # the TP's flash copy is gone; l2p was rebuilt anyway
        ftl.mapping.note_flushed(tp_id, ppn)
        slot0 = ppn * spp
        ftl.p2l[slot0] = META_P2L_BASE - tp_id
        ftl.sector_valid[slot0] = True
        report.translation_pages_found += 1


def _rebuild_block_accounting(ftl: Ftl, pslc_blocks: frozenset[int]) -> None:
    geometry = ftl.geometry
    spp = geometry.sectors_per_page
    per_block = ftl.sector_valid.reshape(
        geometry.total_blocks, geometry.pages_per_block * spp
    ).sum(axis=1)
    ftl.block_valid[:] = per_block.astype(np.int32)


def _rebuild_allocator(ftl: Ftl, pslc_blocks: frozenset[int]) -> None:
    """Free pool = never-programmed blocks (padding filled the rest)."""
    geometry = ftl.geometry
    nand = ftl.nand
    allocator = ftl.allocator
    allocator._free_blocks = [[] for _ in range(geometry.planes_total)]
    allocator._active.clear()
    for block in range(geometry.total_blocks):
        if block in pslc_blocks or block in allocator.retired_blocks:
            continue
        if int(nand.block_write_ptr[block]) == 0:
            plane = block // geometry.blocks_per_plane
            allocator._free_blocks[plane].append(block)
    for pool in allocator._free_blocks:
        pool.sort(reverse=True)
    # Padding just filled every partially-written block, so the GC
    # candidate pool changed under the allocator: rebuild its index.
    allocator.reindex_sealed()
    # pSLC bookkeeping: resume each buffer block at its write pointer.
    pslc = ftl.pslc
    if pslc.enabled:
        for block in pslc.blocks:
            pslc._cursor[block] = int(nand.block_write_ptr[block])
