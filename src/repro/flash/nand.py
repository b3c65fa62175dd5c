"""The NAND flash array: state, constraints, and wear.

:class:`NandArray` models the *physics-level* contract of NAND flash that
every FTL must respect:

* a page can only be programmed when its block has been erased since the
  page was last programmed (erase-before-write);
* pages within a block must be programmed in order (ONFI sequential-page
  programming rule — violating it on a real MLC part corrupts neighbours);
* erases operate on whole blocks and wear the block out;
* each page carries a small out-of-band (OOB) area where the FTL stamps the
  logical page number so that mapping state can be rebuilt after power loss
  (and so a reverse engineer can correlate physical and logical addresses).

Every piece of per-page and per-block state is a flat numpy array —
including the full per-slot OOB records, which used to live in a
``dict[int, tuple]`` that cost one allocation per program and a Python
loop per erase.  ``program`` touches a handful of cells, each through a
``memoryview`` of its array (an item is a plain ``int``, several times
cheaper than a numpy scalar); ``erase`` is slice resets plus two such
cells, and ``clone`` is array copies.  The views alias the arrays'
buffers, so the arrays are **edited in place only** — ``nand.page_state[p]
= 1`` is fine, rebinding ``nand.page_state`` is not (:meth:`clone`, the one
place that must, takes fresh views afterwards).  Aggregate wear figures
(:meth:`wear_summary`) and per-block stats (:meth:`block_stats`) are
maintained incrementally instead of being recomputed by full scans on
every call.

The array stores metadata only by default.  Callers that care about byte
content (the firmware/RE experiments) can enable ``store_data`` which
keeps an actual ``bytes`` payload per programmed page.
"""

from __future__ import annotations

import copy
from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np

from repro.flash.geometry import Geometry

#: Marker stored in the OOB LPN slot of a page that holds no logical data
#: (e.g. mapping metadata or parity).
NO_LPN = np.int64(-1)

#: ``page_oob_len`` value for a page whose writer stored no OOB record
#: (distinct from an explicitly-stored empty record of length 0).
_NO_OOB = -1

#: the per-page and per-block state arrays (each has a one-entry view).
_STATE_ARRAYS = ("page_state", "page_lpn", "page_seq", "block_erase_count",
                 "block_write_ptr", "page_oob", "page_oob_len")


class FlashViolation(Exception):
    """The FTL attempted an operation NAND physics forbids."""


class PageState:
    """Per-page program state (values of :attr:`NandArray.page_state`)."""

    FREE = 0  #: erased, programmable
    PROGRAMMED = 1  #: holds data; must be erased before re-programming


# Module-level copies for the per-page paths (no class lookup per use).
_FREE, _PROGRAMMED = PageState.FREE, PageState.PROGRAMMED


@dataclass
class BlockStats:
    """Read-only summary of one block, for tests and RE tooling."""

    erase_count: int
    programmed_pages: int
    write_pointer: int


@dataclass
class NandCounters:
    """Raw operation counters maintained by the array itself.

    These are ground truth; the SMART counters exposed by the device
    (:mod:`repro.ssd.smart`) are derived from FTL-level accounting and may
    legitimately disagree with these in the same ways a real drive's
    counters disagree with its raw flash activity.
    """

    reads: int = 0
    programs: int = 0
    erases: int = 0
    program_failures: int = 0


class NandArray:
    """Mutable state of every page and block in the device.

    Parameters
    ----------
    geometry:
        Array dimensions.
    erase_limit:
        Rated program/erase cycles per block.  Erasing beyond the limit is
        permitted (real blocks do not stop working at the rated count) but
        raises the block's failure probability via
        :mod:`repro.flash.errors`.
    store_data:
        Keep actual page payloads.  Off by default to keep large
        simulations cheap.
    """

    def __init__(
        self,
        geometry: Geometry,
        *,
        erase_limit: int = 3000,
        store_data: bool = False,
    ) -> None:
        self.geometry = geometry
        self.erase_limit = erase_limit
        self.store_data = store_data
        # Derived geometry scalars, hoisted: the properties recompute
        # their products on every access and program/erase are hot.
        total_pages = self.total_pages = geometry.total_pages
        total_blocks = self.total_blocks = geometry.total_blocks
        self._pages_per_block = geometry.pages_per_block
        self.page_state = np.zeros(total_pages, dtype=np.uint8)
        #: OOB logical-page stamp for each physical page (NO_LPN when none).
        self.page_lpn = np.full(total_pages, NO_LPN, dtype=np.int64)
        #: OOB program sequence stamp (monotonic; -1 = free).  Real FTLs
        #: store this so the newest copy of a sector wins during
        #: power-loss recovery.
        self.page_seq = np.full(total_pages, -1, dtype=np.int64)
        self.block_erase_count = np.zeros(total_blocks, dtype=np.int32)
        #: Next programmable page index within each block.  Under the
        #: sequential-programming rule this doubles as the block's
        #: programmed-page count, which :meth:`block_stats` relies on.
        self.block_write_ptr = np.zeros(total_blocks, dtype=np.int32)
        #: Full per-slot OOB records: row ``ppn`` holds
        #: ``page_oob_len[ppn]`` valid entries (cells past the length are
        #: unspecified; ``page_oob_len == -1`` means no record stored).
        self._oob_slots = max(1, geometry.sectors_per_page)
        self.page_oob = np.full((total_pages, self._oob_slots), NO_LPN,
                                dtype=np.int64)
        self.page_oob_len = np.full(total_pages, _NO_OOB, dtype=np.int16)
        self._bind_views()
        self.counters = NandCounters()
        self._data: dict[int, bytes] = {}
        self._program_counter = 0
        # Incremental wear aggregates (see wear_summary / reindex_wear):
        # running total / max / sum-of-squares plus an erase-count
        # histogram whose smallest occupied bucket is the minimum.
        self._erase_total = 0
        self._erase_max = 0
        self._erase_sumsq = 0
        self._erase_min = 0
        self._erase_hist: dict[int, int] = {0: total_blocks}

    def _bind_views(self) -> None:
        """Take the one-entry views of the state arrays.

        Every single-cell read and write below goes through these;
        array-wide work (erase's slice resets, recovery, the firmware
        and JTAG readers) uses the arrays themselves.  A view aliases
        the buffer its array had when this ran, so whoever rebinds an
        array attribute must call this again.
        """
        self._page_state_view = memoryview(self.page_state)
        self._page_lpn_view = memoryview(self.page_lpn)
        self._page_seq_view = memoryview(self.page_seq)
        self._block_erase_count_view = memoryview(self.block_erase_count)
        self._block_write_ptr_view = memoryview(self.block_write_ptr)
        #: row ``ppn`` of ``page_oob`` is cells ``ppn * _oob_slots ...``.
        self._page_oob_view = memoryview(self.page_oob.reshape(-1))
        self._page_oob_len_view = memoryview(self.page_oob_len)

    # ------------------------------------------------------------------
    # Core operations
    # ------------------------------------------------------------------

    def program(self, ppn: int, lpn: int = int(NO_LPN), data: bytes | None = None,
                oob: Sequence[int] | None = None) -> None:
        """Program one page, stamping *lpn* (and optionally a full
        per-slot *oob* record plus a monotonic sequence number) into its
        OOB area.

        Raises :class:`FlashViolation` if the page is not free, is not
        the block's next sequential page, or the payload or OOB record
        does not fit; a rejected program leaves the array untouched.
        """
        if not 0 <= ppn < self.total_pages:
            raise FlashViolation(f"program: ppn {ppn} out of range")
        if self._page_state_view[ppn] != _FREE:
            raise FlashViolation(
                f"program: ppn {ppn} already programmed (erase-before-write)"
            )
        block, page = divmod(ppn, self._pages_per_block)
        expected = self._block_write_ptr_view[block]
        if page != expected:
            raise FlashViolation(
                f"program: block {block} requires sequential programming; "
                f"next page is {expected}, got {page}"
            )
        if data is not None and len(data) > self.geometry.page_size:
            raise FlashViolation(
                f"program: payload of {len(data)} bytes exceeds page size "
                f"{self.geometry.page_size}"
            )
        if oob is not None and len(oob) > self._oob_slots:
            raise FlashViolation(
                f"program: OOB record of {len(oob)} slots exceeds the page's "
                f"{self._oob_slots} OOB slots"
            )
        self._page_state_view[ppn] = _PROGRAMMED
        self._page_lpn_view[ppn] = lpn
        self._page_seq_view[ppn] = self._program_counter
        self._program_counter += 1
        self._block_write_ptr_view[block] = page + 1
        self.counters.programs += 1
        if oob is not None:
            cells = self._page_oob_view
            cell = ppn * self._oob_slots
            for stamp in oob:
                cells[cell] = stamp
                cell += 1
            self._page_oob_len_view[ppn] = len(oob)
        if self.store_data and data is not None:
            self._data[ppn] = bytes(data)

    def read(self, ppn: int) -> tuple[int, bytes | None]:
        """Read one page; returns ``(oob_lpn, data_or_None)``.

        Reading a free page is legal on real hardware (it returns all-FF);
        here it returns ``(NO_LPN, None)``.
        """
        if not 0 <= ppn < self.total_pages:
            raise FlashViolation(f"read: ppn {ppn} out of range")
        self.counters.reads += 1
        if self._page_state_view[ppn] == _FREE:
            return int(NO_LPN), None
        return self._page_lpn_view[ppn], self._data.get(ppn)

    def erase(self, block_index: int) -> None:
        """Erase one block, freeing all its pages and incrementing wear.

        Pure slice resets over the page arrays; the wear aggregates are
        updated in O(1).
        """
        if not 0 <= block_index < self.total_blocks:
            raise FlashViolation(f"erase: block {block_index} out of range")
        start = block_index * self._pages_per_block
        end = start + self._pages_per_block
        self.page_state[start:end] = PageState.FREE
        self.page_lpn[start:end] = NO_LPN
        self.page_seq[start:end] = -1
        self.page_oob_len[start:end] = _NO_OOB
        self._block_write_ptr_view[block_index] = 0
        cycles = self._block_erase_count_view[block_index]
        self._block_erase_count_view[block_index] = cycles + 1
        self._bump_wear(cycles)
        self.counters.erases += 1
        if self.store_data:
            for ppn in range(start, end):
                self._data.pop(ppn, None)

    def clone(self) -> "NandArray":
        """Deep-copy the array state (pages, OOB, wear, counters).

        The crash-consistency sweep snapshots the NAND at each cut point
        and runs power-loss recovery against the copy while the original
        run continues — exactly what pulling the plug preserves: flash
        contents survive, RAM state does not.
        """
        # A shallow copy carries the geometry and every scalar; each state
        # array is copied once (no throwaway arrays from __init__) and
        # every other mutable piece is replaced below.
        twin = copy.copy(self)
        for name in _STATE_ARRAYS:
            setattr(twin, name, getattr(self, name).copy())
        twin._bind_views()  # the copied views still alias self's arrays
        twin.counters = replace(self.counters)
        twin._data = dict(self._data)
        twin._erase_hist = dict(self._erase_hist)
        return twin

    # ------------------------------------------------------------------
    # Incremental wear accounting
    # ------------------------------------------------------------------

    def _bump_wear(self, old_cycles: int) -> None:
        """Move one block from *old_cycles* to ``old_cycles + 1`` in the
        wear aggregates (O(1) amortized)."""
        new_cycles = old_cycles + 1
        self._erase_total += 1
        self._erase_sumsq += 2 * old_cycles + 1  # (c+1)^2 - c^2
        if new_cycles > self._erase_max:
            self._erase_max = new_cycles
        hist = self._erase_hist
        remaining = hist[old_cycles] - 1
        if remaining:
            hist[old_cycles] = remaining
        else:
            del hist[old_cycles]
        hist[new_cycles] = hist.get(new_cycles, 0) + 1
        if old_cycles == self._erase_min and old_cycles not in hist:
            # The minimum bucket emptied; the new minimum is the smallest
            # occupied bucket (rare — amortized over many erases).
            self._erase_min = min(hist)

    def reindex_wear(self) -> None:
        """Rebuild the incremental wear aggregates from
        ``block_erase_count``.

        Needed when erase counts change behind the array's back (tests
        that stage wear by writing ``block_erase_count`` directly).
        Mirrors the definition :meth:`erase` maintains incrementally.
        """
        erases = self.block_erase_count
        self._erase_total = int(erases.sum())
        self._erase_max = int(erases.max())
        self._erase_min = int(erases.min())
        self._erase_sumsq = int((erases.astype(np.int64) ** 2).sum())
        values, counts = np.unique(erases, return_counts=True)
        self._erase_hist = {int(v): int(c) for v, c in zip(values, counts)}

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------

    def is_free(self, ppn: int) -> bool:
        return self._page_state_view[ppn] == _FREE

    def read_oob(self, ppn: int) -> tuple[int, ...] | None:
        """Full per-slot OOB record of a page, if the writer stored one."""
        n = int(self.page_oob_len[ppn])
        if n < 0:
            return None
        return tuple(int(x) for x in self.page_oob[ppn, :n])

    def block_stats(self, block_index: int) -> BlockStats:
        """O(1): under the sequential-programming rule a block's
        programmed-page count *is* its write pointer (pages free only by
        whole-block erase, which resets both)."""
        write_pointer = self._block_write_ptr_view[block_index]
        return BlockStats(
            erase_count=self._block_erase_count_view[block_index],
            programmed_pages=write_pointer,
            write_pointer=write_pointer,
        )

    def lpns_in_block(self, block_index: int) -> np.ndarray:
        """OOB LPN stamps of all pages in a block (NO_LPN for free pages)."""
        geometry = self.geometry
        start = block_index * geometry.pages_per_block
        return self.page_lpn[start : start + geometry.pages_per_block].copy()

    def wear_summary(self) -> dict[str, float]:
        """Aggregate wear figures used by wear-leveling tests.

        O(1): served from the incrementally-maintained aggregates, not by
        scanning ``block_erase_count`` (call :meth:`reindex_wear` first if
        erase counts were staged directly).
        """
        n = self.geometry.total_blocks
        total = self._erase_total
        mean = total / n
        variance = self._erase_sumsq / n - mean * mean
        if variance < 0.0:  # floating-point guard for near-zero spread
            variance = 0.0
        return {
            "min": float(self._erase_min),
            "max": float(self._erase_max),
            "mean": float(mean),
            "std": float(np.sqrt(variance)),
            "total": float(total),
        }
