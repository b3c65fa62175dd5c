"""Flash operation records emitted by the FTL.

The FTL mutates the NAND array directly as it makes decisions, and emits
one :class:`FlashOp` per physical operation.  Executors consume the
stream: the counter-mode device tallies ops into SMART statistics; the
timed simulator schedules them onto channel and die resources; the probe
substrate renders those on a watched channel to ONFI signals.

``reason`` explains *why* the FTL issued the op — exactly the attribution
a black-box observer lacks, and which our transparency tooling tries to
recover.
"""

from __future__ import annotations

import enum
from typing import NamedTuple


class OpKind(enum.Enum):
    READ = "read"
    PROGRAM = "program"
    ERASE = "erase"


class OpReason(enum.Enum):
    """Who caused a flash operation."""

    HOST = "host"  #: direct host data
    GC = "gc"  #: garbage-collection migration
    META = "meta"  #: mapping/translation metadata
    PARITY = "parity"  #: RAIN parity page
    PSLC = "pslc"  #: pSLC buffer fill or drain
    WEAR = "wear"  #: static wear-leveling migration
    REFRESH = "refresh"  #: retention refresh rewrite


#: Reasons whose program ops count as "FTL Program Pages" in SMART
#: (everything the host did not directly write).
FTL_REASONS = frozenset(
    {OpReason.GC, OpReason.META, OpReason.PARITY, OpReason.PSLC,
     OpReason.WEAR, OpReason.REFRESH}
)


class FlashOp(NamedTuple):
    """One physical flash operation.

    ``target`` is a PPN for reads/programs and a global block index for
    erases.  ``nbytes`` is the data moved over the bus (0 for erase).

    A NamedTuple rather than a frozen dataclass: the FTL constructs one
    per physical op on the hot path, and tuple construction is several
    times cheaper than a frozen dataclass ``__init__``.
    """

    kind: OpKind
    target: int
    reason: OpReason
    nbytes: int = 0

    def __str__(self) -> str:  # compact form for logs and test failures
        return f"{self.kind.value}[{self.reason.value}]@{self.target}({self.nbytes}B)"


#: Builds a NamedTuple without its generated Python-level ``__new__``:
#: ``new_tuple(FlashOp, (kind, target, reason, nbytes))`` equals
#: ``FlashOp(kind, target, reason, nbytes)``.  Every field must be given
#: (defaults are not applied).  The FTL's per-request and migration
#: paths use it.
new_tuple = tuple.__new__
