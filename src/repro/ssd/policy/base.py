"""Protocol classes for the pluggable FTL policy seams.

These are the contracts the FTL's collaborators (victim selector, page
allocator, write cache, wear leveler) program against.  Implementations
live next door (:mod:`repro.ssd.policy.victim` and friends) and are
looked up by name through the registries in
:mod:`repro.ssd.policy.registry`; nothing in the write path ever
compares policy *strings* — resolution happens once at device build
time and the hot path calls bound methods.

The ``view`` argument of the decision methods is the consuming
component itself (a :class:`~repro.ssd.gc.VictimSelector`, a
:class:`~repro.ssd.wearlevel.WearLeveler`, …): policies read shared
per-run state — RNG stream, sample size, valid-sector counts — from the
component instead of capturing copies, so mutating e.g.
``selector.sample_size`` mid-run behaves exactly as it did before the
policy extraction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Protocol, runtime_checkable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from collections import OrderedDict

    from repro.flash.geometry import Geometry
    from repro.ssd.cache import WriteCache
    from repro.ssd.gc import VictimSelector
    from repro.ssd.wearlevel import WearLeveler


@runtime_checkable
class VictimPolicy(Protocol):
    """Chooses which sealed block GC reclaims next."""

    name: str

    def choose(self, pool: list[int], view: "VictimSelector") -> int:
        """Pick one block from the non-empty candidate *pool*.

        *view* exposes ``valid_sectors``, ``geometry``, ``nand``,
        ``allocator`` (for allocation stamps), ``sample_size`` and the
        seeded ``rng`` stream shared by randomized policies."""
        ...


@runtime_checkable
class AllocationPolicy(Protocol):
    """Orders physical-page allocation over the parallelism dimensions
    and (optionally) routes host data into separate write streams."""

    name: str
    #: write streams this policy adds beyond the FTL's builtin
    #: ``host`` / ``gc`` / ``meta`` trio.
    extra_streams: tuple[str, ...]

    def bind(self, geometry: "Geometry") -> None:
        """Attach the device geometry (called once by the allocator)."""
        ...

    def plane_for_index(self, index: int) -> int:
        """Plane targeted by the *index*-th allocation of a stream.

        Called once per programmed page, so keep it cheap:
        ``SchemeAllocation`` serves it from a table of one period of
        the order, built at :meth:`bind`."""
        ...

    def route(self, stream: str, lpns: list[int]) -> str:
        """Final stream for a data-page program of *lpns* (identity for
        scheme-only policies; stream-separating policies may redirect
        ``host`` traffic into one of their ``extra_streams``)."""
        ...


@runtime_checkable
class CacheAdmissionPolicy(Protocol):
    """Decides whether a host sector enters the RAM write cache or
    bypasses it into a direct page-packing staging buffer."""

    name: str
    #: True when the policy admits unconditionally — lets the FTL skip
    #: the per-sector call entirely on the default path.
    always: bool

    def admit(self, lpn: int, cache: "WriteCache") -> bool:
        ...


@runtime_checkable
class CacheEvictionPolicy(Protocol):
    """Orders the write cache's pending sectors for flushing.

    *pending* is the cache's insertion-ordered dict of pending LPNs; a
    policy may reorder it on a hit and decides which sectors a flush
    batch takes.  The cache calls :meth:`take` once per batch (one
    flash page), not once per sector."""

    name: str

    def on_hit(self, lpn: int, pending: "OrderedDict[int, None]") -> None:
        """A pending sector was overwritten (absorbed) in place."""
        ...

    def take(self, pending: "OrderedDict[int, None]", n: int) -> list[int]:
        """Remove and return the next *n* sectors to flush, in flush
        order (``1 <= n <= len(pending)``)."""
        ...


@dataclass(frozen=True)
class CachePlan:
    """How a cache designation splits the controller's RAM budget."""

    #: sectors the data write cache may buffer.
    cache_sectors: int
    #: extra dirty-translation-page slots granted to the mapping layer.
    extra_dirty_tps: int


@runtime_checkable
class CacheDesignationPolicy(Protocol):
    """Designates the controller RAM budget: host data buffering vs.
    mapping metadata (the Fig 3 "write cache designation" knob)."""

    name: str

    def plan(self, cache_sectors: int, geometry: "Geometry") -> CachePlan:
        ...


@runtime_checkable
class WearPolicy(Protocol):
    """Chooses which populated block static wear leveling rotates."""

    name: str

    def pick(self, view: "WearLeveler") -> int | None:
        """The block to migrate, or None if nothing is eligible.
        *view* exposes ``eligible_blocks()``, ``nand`` and ``rng``."""
        ...
