"""The NAND flash array: state, constraints, and wear.

:class:`NandArray` models the *physics-level* contract of NAND flash that
every FTL must respect:

* a page can only be programmed when its block has been erased since the
  page was last programmed (erase-before-write);
* pages within a block must be programmed in order (ONFI sequential-page
  programming rule — violating it on a real MLC part corrupts neighbours);
* erases operate on whole blocks and wear the block out;
* each page carries a small out-of-band (OOB) area where the FTL stamps
  the logical sectors the page holds, so that mapping state can be
  rebuilt after power loss (and so a reverse engineer can correlate
  physical and logical addresses).

Every piece of per-page and per-block state is a flat numpy array, each
fact held once: the OOB record (``page_oob``/``page_oob_len``) is a
page's one logical stamp, and wear figures (:meth:`wear_summary`) are
computed from ``block_erase_count`` when asked for.  ``program`` touches
a handful of cells, each through a ``memoryview`` of its array (an item
is a plain ``int``, several times cheaper than a numpy scalar);
``erase`` is slice resets plus two such cells, and ``clone`` is array
copies.  The views alias the arrays' buffers, so the arrays are **edited
in place only** — ``nand.page_state[p] = 1`` is fine, rebinding
``nand.page_state`` is not (:meth:`clone`, the one place that must,
takes fresh views afterwards).  The array stores metadata only: no page
payloads.
"""

from __future__ import annotations

import copy
from collections.abc import Sequence

import numpy as np

from repro.flash.geometry import Geometry

#: Marker for "no logical sector" in an OOB slot (e.g. a page that holds
#: mapping metadata or parity).
NO_LPN = np.int64(-1)

#: ``page_oob_len`` value for a page whose writer stored no OOB record
#: (distinct from an explicitly-stored empty record of length 0).
_NO_OOB = -1

#: the per-page and per-block state arrays (each has a one-entry view).
_STATE_ARRAYS = ("page_state", "page_seq", "block_erase_count",
                 "block_write_ptr", "page_oob", "page_oob_len")


class FlashViolation(Exception):
    """The FTL attempted an operation NAND physics forbids."""


class PageState:
    """Per-page program state (values of :attr:`NandArray.page_state`)."""

    FREE = 0  #: erased, programmable
    PROGRAMMED = 1  #: holds data; must be erased before re-programming


# Module-level copies for the per-page paths (no class lookup per use).
_FREE, _PROGRAMMED = PageState.FREE, PageState.PROGRAMMED


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
    """

    def __init__(self, geometry: Geometry, *, erase_limit: int = 3000) -> None:
        self.geometry = geometry
        self.erase_limit = erase_limit
        # Derived geometry scalars, hoisted: the properties recompute
        # their products on every access and program/erase are hot.
        total_pages = self.total_pages = geometry.total_pages
        total_blocks = self.total_blocks = geometry.total_blocks
        self._pages_per_block = geometry.pages_per_block
        self.page_state = np.zeros(total_pages, dtype=np.uint8)
        #: OOB program sequence stamp (monotonic; -1 = free).  Real FTLs
        #: store this so the newest copy of a sector wins during
        #: power-loss recovery.
        self.page_seq = np.full(total_pages, -1, dtype=np.int64)
        self.block_erase_count = np.zeros(total_blocks, dtype=np.int32)
        #: Next programmable page index within each block.  Under the
        #: sequential-programming rule this doubles as the block's
        #: programmed-page count.
        self.block_write_ptr = np.zeros(total_blocks, dtype=np.int32)
        #: Full per-slot OOB records: row ``ppn`` holds
        #: ``page_oob_len[ppn]`` valid entries (cells past the length are
        #: unspecified; ``page_oob_len == -1`` means no record stored).
        self._oob_slots = max(1, geometry.sectors_per_page)
        self.page_oob = np.full((total_pages, self._oob_slots), NO_LPN,
                                dtype=np.int64)
        self.page_oob_len = np.full(total_pages, _NO_OOB, dtype=np.int16)
        self._bind_views()
        self._program_counter = 0

    def _bind_views(self) -> None:
        """Take the one-entry views of the state arrays.

        Every single-cell read and write below goes through these;
        array-wide work (erase's slice resets, recovery, the firmware
        and JTAG readers) uses the arrays themselves.  A view aliases
        the buffer its array had when this ran, so whoever rebinds an
        array attribute must call this again.
        """
        self._page_state_view = memoryview(self.page_state)
        self._page_seq_view = memoryview(self.page_seq)
        self._block_erase_count_view = memoryview(self.block_erase_count)
        self._block_write_ptr_view = memoryview(self.block_write_ptr)
        #: row ``ppn`` of ``page_oob`` is cells ``ppn * _oob_slots ...``.
        self._page_oob_view = memoryview(self.page_oob.reshape(-1))
        self._page_oob_len_view = memoryview(self.page_oob_len)

    # ------------------------------------------------------------------
    # Core operations
    # ------------------------------------------------------------------

    def program(self, ppn: int, oob: Sequence[int] | None = None) -> None:
        """Program one page, stamping a monotonic sequence number and,
        when given, the per-slot *oob* record into its OOB area.

        Raises :class:`FlashViolation` if the page is not free, is not
        the block's next sequential page, or the OOB record does not
        fit; a rejected program leaves the array untouched.
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
        if oob is not None and len(oob) > self._oob_slots:
            raise FlashViolation(
                f"program: OOB record of {len(oob)} slots exceeds the page's "
                f"{self._oob_slots} OOB slots"
            )
        self._page_state_view[ppn] = _PROGRAMMED
        self._page_seq_view[ppn] = self._program_counter
        self._program_counter += 1
        self._block_write_ptr_view[block] = page + 1
        if oob is not None:
            cells = self._page_oob_view
            cell = ppn * self._oob_slots
            for stamp in oob:
                cells[cell] = stamp
                cell += 1
            self._page_oob_len_view[ppn] = len(oob)

    def read(self, ppn: int) -> tuple[int, ...] | None:
        """Read one page: its OOB record, or None when its writer stored
        none.

        Reading a free page is legal on real hardware (it returns
        all-FF); here it returns None, as erase drops the record.
        """
        if not 0 <= ppn < self.total_pages:
            raise FlashViolation(f"read: ppn {ppn} out of range")
        n = self._page_oob_len_view[ppn]
        if n < 0:
            return None
        return tuple(self.page_oob[ppn, :n].tolist())

    def erase(self, block_index: int) -> None:
        """Erase one block, freeing all its pages and incrementing wear."""
        if not 0 <= block_index < self.total_blocks:
            raise FlashViolation(f"erase: block {block_index} out of range")
        start = block_index * self._pages_per_block
        end = start + self._pages_per_block
        self.page_state[start:end] = PageState.FREE
        self.page_seq[start:end] = -1
        self.page_oob_len[start:end] = _NO_OOB
        self._block_write_ptr_view[block_index] = 0
        self._block_erase_count_view[block_index] += 1

    def clone(self) -> "NandArray":
        """Deep-copy the array state (pages, OOB, wear).

        The crash-consistency sweep snapshots the NAND at each cut point
        and runs power-loss recovery against the copy while the original
        run continues — exactly what pulling the plug preserves: flash
        contents survive, RAM state does not.
        """
        # A shallow copy carries the geometry and every scalar; each state
        # array is copied once (no throwaway arrays from __init__).
        twin = copy.copy(self)
        for name in _STATE_ARRAYS:
            setattr(twin, name, getattr(self, name).copy())
        twin._bind_views()  # the copied views still alias self's arrays
        return twin

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------

    def wear_summary(self) -> dict[str, float]:
        """Aggregate wear figures over ``block_erase_count``: min, max,
        mean, population std and total erases."""
        erases = self.block_erase_count
        total = int(erases.sum())
        mean = total / len(erases)
        variance = (int((erases.astype(np.int64) ** 2).sum()) / len(erases)
                    - mean * mean)
        if variance < 0.0:  # floating-point guard for near-zero spread
            variance = 0.0
        return {
            "min": float(erases.min()),
            "max": float(erases.max()),
            "mean": float(mean),
            "std": float(np.sqrt(variance)),
            "total": float(total),
        }
