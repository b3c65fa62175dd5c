"""Write-cache policies: RAM designation, admission, and eviction.

One of the three design knobs the paper varies in its Fig 3 experiment
is "write cache designation (data or mapping metadata)": the same RAM
can buffer host *data* (absorbing overwrites and packing sectors into
full flash pages) or be given to the mapping layer (holding more dirty
translation pages, reducing metadata writes).  The designation policies
here encode exactly that split as a :class:`~repro.ssd.policy.base.CachePlan`.

Admission and eviction are the two remaining cache seams: admission
decides whether a host sector enters the cache at all (or bypasses into
a direct page-packing staging buffer), eviction orders the pending set
for flushing.
"""

from __future__ import annotations

from itertools import islice
from typing import TYPE_CHECKING

from repro.ssd.policy.base import CachePlan
from repro.ssd.policy.registry import PolicyRegistry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from collections import OrderedDict

    from repro.flash.geometry import Geometry
    from repro.ssd.cache import WriteCache

#: registry behind ``SsdConfig.cache_designation``.
cache_designations = PolicyRegistry("cache_designation")
#: registry behind ``SsdConfig.cache_admission``.
cache_admission_policies = PolicyRegistry("cache_admission")
#: registry behind ``SsdConfig.cache_eviction``.
cache_eviction_policies = PolicyRegistry("cache_eviction")


# ----------------------------------------------------------------------
# Designation (the Fig 3 knob)
# ----------------------------------------------------------------------


@cache_designations.register(
    "data", schema={"cache_sectors": "RAM budget buffers host sectors"})
class DataDesignation:
    """RAM buffers host data: absorb overwrites, pack full pages."""

    name = "data"

    def plan(self, cache_sectors: int, geometry: "Geometry") -> CachePlan:
        return CachePlan(
            cache_sectors=max(cache_sectors, geometry.sectors_per_page),
            extra_dirty_tps=0,
        )


@cache_designations.register(
    "mapping",
    schema={"cache_sectors": "RAM budget converts to dirty-TP slots"})
class MappingDesignation:
    """RAM buys dirty translation-page slots; data path keeps a minimal
    one-page staging buffer (sectors still pack into whole pages, but
    nothing is absorbed)."""

    name = "mapping"

    def plan(self, cache_sectors: int, geometry: "Geometry") -> CachePlan:
        # One translation page occupies one flash page of RAM.
        extra = cache_sectors * geometry.sector_size // geometry.page_size
        return CachePlan(
            cache_sectors=geometry.sectors_per_page,
            extra_dirty_tps=extra,
        )


# ----------------------------------------------------------------------
# Admission
# ----------------------------------------------------------------------


@cache_admission_policies.register("always")
class AlwaysAdmit:
    """Every host sector enters the cache (the classic write-back path)."""

    name = "always"
    always = True

    def admit(self, lpn: int, cache: "WriteCache") -> bool:
        return True


@cache_admission_policies.register("bypass")
class BypassAdmit:
    """No sector enters the cache: writes pack straight into pages via
    the FTL's direct staging buffer (write-through; no absorption)."""

    name = "bypass"
    always = False

    def admit(self, lpn: int, cache: "WriteCache") -> bool:
        return False


# ----------------------------------------------------------------------
# Eviction
# ----------------------------------------------------------------------


class _OldestFirst:
    """Flush the oldest pending sectors first: the pending dict keeps
    them in flush order, so a batch is its first *n* keys."""

    def take(self, pending: "OrderedDict[int, None]", n: int) -> list[int]:
        batch = list(islice(pending, n))
        for lpn in batch:
            del pending[lpn]
        return batch


@cache_eviction_policies.register("lru")
class LruEviction(_OldestFirst):
    """Flush least-recently-written sectors first (hits refresh age)."""

    name = "lru"

    def on_hit(self, lpn: int, pending: "OrderedDict[int, None]") -> None:
        pending.move_to_end(lpn)


@cache_eviction_policies.register("fifo")
class FifoEviction(_OldestFirst):
    """Flush in arrival order; overwrites do not refresh a sector's age."""

    name = "fifo"

    def on_hit(self, lpn: int, pending: "OrderedDict[int, None]") -> None:
        pass
