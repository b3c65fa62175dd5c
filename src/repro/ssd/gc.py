"""Garbage-collection victim selection.

Van Houdt's mean-field analysis (SIGMETRICS '13) showed that the family a
GC victim-selection policy belongs to changes write amplification in
first-order ways; the paper varies "randomized-greedy algorithm or greedy"
as one of its three Fig 3 knobs.

The actual selection algorithms live in
:mod:`repro.ssd.policy.victim`; the :class:`VictimSelector` here owns
the per-run state they share (candidate pool, seeded RNG stream, sample
size) and acts as their decision *view*.  All randomness is seeded for
reproducibility.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.flash.geometry import Geometry
from repro.flash.nand import NandArray
from repro.obs.events import GcVictimSelected
from repro.obs.sinks import NULL_SINK, TraceSink
from repro.ssd.allocation import PageAllocator
from repro.ssd.policy.base import VictimPolicy
from repro.ssd.policy.victim import victim_policies


class VictimSelector:
    """Selects GC victim blocks within a plane.

    Parameters
    ----------
    policy:
        A registered policy name (see ``victim_policies.names()``, e.g.
        ``greedy``, ``randomized_greedy``, ``d_choices``) or an object
        satisfying :class:`~repro.ssd.policy.base.VictimPolicy`.
    valid_sectors:
        Device-wide per-block valid-sector counts, maintained by the FTL.
    """

    def __init__(
        self,
        policy: str | VictimPolicy,
        geometry: Geometry,
        nand: NandArray,
        allocator: PageAllocator,
        valid_sectors: np.ndarray,
        sample_size: int = 8,
        seed: int = 12345,
    ) -> None:
        if isinstance(policy, str):
            policy = victim_policies.resolve(policy)()
        self._policy: VictimPolicy = policy
        self.policy = policy.name
        self.geometry = geometry
        self.nand = nand
        self.allocator = allocator
        self.valid_sectors = valid_sectors
        self.sample_size = max(2, sample_size)
        self.obs: TraceSink = NULL_SINK
        #: seeded stream shared by every randomized policy; policies read
        #: it (and ``sample_size``) at choose() time, never capture it.
        self.rng = np.random.default_rng(seed)
        self._choose = policy.choose  # bound once: no per-GC dispatch

    # ------------------------------------------------------------------

    def candidates(self, plane: int, exclude: Iterable[int] = ()) -> list[int]:
        """Fully-written, non-active, non-retired blocks in *plane*.

        Served from the allocator's incrementally-maintained sealed
        index — O(pool) per call rather than a scan of every block in
        the plane.  Sorted ascending to match the scan order the
        randomized policies' sampling depends on.
        """
        sealed = self.allocator.sealed_blocks(plane)
        if not sealed:
            return []
        exclude = set(exclude)
        if exclude:
            return sorted(b for b in sealed if b not in exclude)
        return sorted(sealed)

    def select_victim(self, plane: int, exclude: Iterable[int] = ()) -> int | None:
        """Pick a victim block in *plane*, or None if nothing is reclaimable."""
        pool = self.candidates(plane, exclude)
        if not pool:
            return None
        victim = self._choose(pool, self)
        if self.obs.enabled:
            self.obs.emit(GcVictimSelected(
                plane=plane, victim=victim, pool_size=len(pool),
                valid_sectors=int(self.valid_sectors[victim]),
                policy=self.policy,
            ))
        return victim
