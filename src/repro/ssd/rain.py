"""RAIN: redundant array of independent NAND.

Micron-class drives (the Crucial MX500 among them) protect against die
failure by grouping every ``k`` data page programs with one parity page
program.  The paper's Fig 4a attributes the measured "~30 KB of host data
per NAND page write" on the MX500 to exactly this: with 32 KB NAND pages
and a 15+1 stripe, each page write carries on average
``32 KB * 15/16 = 30 KB`` of host data.

The accountant is deliberately simple: it counts data-page programs per
open stripe and says when a parity page is due.  Parity pages are treated
as immediately-invalid overhead (they are reconstructible and are never
migrated by GC), which matches their write-amplification role.
"""

from __future__ import annotations


class RainAccountant:
    """Tracks stripe fill; one parity page per ``stripe`` data pages.

    When callers pass page numbers, the accountant additionally remembers
    stripe membership so the degraded read path can name the peer pages
    it must read to reconstruct an uncorrectable page
    (:meth:`peers_of`).  Membership is kept for the life of the run;
    stripes whose members were since erased still resolve (the
    reconstruction model charges the reads regardless — real parity maps
    are rebuilt lazily too).
    """

    def __init__(self, stripe: int) -> None:
        if stripe != 0 and stripe < 2:
            raise ValueError("stripe must be 0 (disabled) or >= 2")
        self.stripe = stripe
        self._fill = 0
        self.parity_pages = 0
        self.data_pages = 0
        #: data PPNs of the stripe currently being filled.
        self._open_members: list[int] = []
        #: closed stripes awaiting their parity page (LIFO: a nested
        #: parity program — GC triggered by parity allocation — closes
        #: and finalizes the inner stripe first).
        self._pending: list[list[int]] = []
        #: data PPN -> its stripe's ``(members, parity_ppn)`` record; one
        #: record object per stripe, shared by all its members.
        self._stripe_of: dict[int, tuple[list[int], int]] = {}

    @property
    def enabled(self) -> bool:
        return self.stripe > 0

    def on_data_page(self, ppn: int = -1) -> bool:
        """Record one data-page program; True when a parity page is due."""
        self.data_pages += 1
        if not self.enabled:
            return False
        if ppn >= 0:
            self._open_members.append(ppn)
        self._fill += 1
        if self._fill >= self.stripe:
            self._fill = 0
            self.parity_pages += 1
            self._pending.append(self._open_members)
            self._open_members = []
            return True
        return False

    def flush(self) -> bool:
        """Close a partial stripe (power-down path); True if parity due."""
        if self.enabled and self._fill > 0:
            self._fill = 0
            self.parity_pages += 1
            self._pending.append(self._open_members)
            self._open_members = []
            return True
        return False

    def note_parity(self, parity_ppn: int) -> None:
        """Record the parity page of the most recently closed stripe,
        finalizing peer lookups for its members."""
        if not self._pending:
            return
        members = self._pending.pop()
        stripe = (members, parity_ppn)
        for member in members:
            self._stripe_of[member] = stripe

    def peers_of(self, ppn: int) -> tuple[int, ...]:
        """Pages to read to reconstruct *ppn* (stripe peers + parity);
        empty when the stripe is unknown (page predates tracking or is
        itself parity)."""
        stripe = self._stripe_of.get(ppn)
        if stripe is None:
            return ()
        members, parity_ppn = stripe
        return tuple(p for p in (*members, parity_ppn) if p != ppn)

    def overhead_ratio(self) -> float:
        """Parity pages per data page so far."""
        if not self.data_pages:
            return 0.0
        return self.parity_pages / self.data_pages
