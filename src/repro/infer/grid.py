"""Policy grid points and the shared inference base configuration.

A :class:`PolicyPoint` pins the six policy knobs the harness tries to
recover; everything else about the device (geometry, timing, cache and
GC budgets) is fixed by :func:`infer_base` so that behavioral
differences between two devices can only come from the knobs.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from repro.flash.geometry import Geometry
from repro.ssd.config import SsdConfig
from repro.ssd.policy import POLICIES, check

#: Knob names as the harness reports them.  ``allocation`` maps onto the
#: config field ``allocation_scheme``; the rest match field names.
KNOBS = ("gc_policy", "allocation", "cache_designation",
         "cache_admission", "cache_eviction", "wear_policy")

_CONFIG_FIELD = {
    "gc_policy": "gc_policy",
    "allocation": "allocation_scheme",
    "cache_designation": "cache_designation",
    "cache_admission": "cache_admission",
    "cache_eviction": "cache_eviction",
    "wear_policy": "wear_policy",
}


@dataclass(frozen=True)
class PolicyPoint:
    """One point of the six-knob design grid (policy table names)."""

    gc_policy: str = "greedy"
    allocation: str = "CWDP"
    cache_designation: str = "data"
    cache_admission: str = "always"
    cache_eviction: str = "lru"
    wear_policy: str = "coldest"

    def __post_init__(self) -> None:
        for knob in KNOBS:
            check(_CONFIG_FIELD[knob], getattr(self, knob))

    def apply(self, base: SsdConfig) -> SsdConfig:
        """A copy of *base* with every knob set to this point."""
        return base.with_changes(**{
            _CONFIG_FIELD[knob]: getattr(self, knob) for knob in KNOBS
        })

    def astuple(self) -> tuple[str, ...]:
        return tuple(getattr(self, f.name) for f in fields(self))

    def label(self) -> str:
        return "/".join(self.astuple())


def registry_names(knob: str) -> tuple[str, ...]:
    """The policy names of one harness knob."""
    return tuple(POLICIES[_CONFIG_FIELD[knob]])


def random_points(n: int, seed: int = 0) -> list[PolicyPoint]:
    """*n* reproducible uniform draws from the full design grid."""
    rng = np.random.default_rng(seed)
    points = []
    for _ in range(n):
        points.append(PolicyPoint(**{
            knob: registry_names(knob)[rng.integers(len(registry_names(knob)))]
            for knob in KNOBS
        }))
    return points


def infer_base() -> SsdConfig:
    """The fixed non-knob configuration every inference run uses.

    Small enough that a full round trip stays interactive, single
    die/chip per channel so :class:`~repro.ssd.timed.BusTap` can probe
    channel 0, and a cache large enough (256 sectors ≫ 4 sectors/page)
    that designation and eviction probes have room to work.
    """
    geometry = Geometry(channels=4, chips_per_channel=1, dies_per_chip=1,
                        planes_per_die=2, blocks_per_plane=16,
                        pages_per_block=8, page_size=16384,
                        sector_size=4096)
    return SsdConfig(geometry=geometry, timing_name="mlc", op_ratio=0.10,
                     gc_low_water_blocks=2, gc_high_water_blocks=3,
                     cache_sectors=256, mapping_tp_lpns=2048,
                     mapping_dirty_tp_limit=96, mapping_sync_interval=8192)
