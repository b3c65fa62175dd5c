"""Geriatrix-style file-system aging.

Kadekodi et al. (ATC '18) showed that both the file system's free-space
state *and the SSD's internal state* ("what you see and what you don't
see") must be aged before benchmark numbers mean anything — that study is
the source of the paper's Fig 1.  An :class:`AgingProfile` replays a
create/delete churn with a target utilization and file-size distribution;
running it fragments the FS free map and, through the device, puts the
FTL into a realistic steady state (mixed-age blocks, high occupancy,
populated mapping).

:data:`PROFILES` holds the three aging conditions of Fig 1 — ``U``
(unaged), ``A`` (small-file churn) and ``M`` (mixed sizes, aged harder) —
exactly as :func:`~repro.workloads.fileserver.run_aging_study` runs them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.fs.vfs import FsError, FsModel


@dataclass(frozen=True)
class AgingProfile:
    """One aging recipe.

    ``phases`` is a list of ``(target_utilization, ops)`` pairs: each
    phase churns creates/deletes, biased toward creation below the target
    and deletion above it, for ``ops`` operations.  Oscillating targets
    (fill high, drain, re-fill) produce the fragmented free space that
    distinguishes aged images.
    """

    name: str
    phases: tuple[tuple[float, int], ...]
    #: lognormal file-size parameters (sectors).
    size_mu: float = 2.5
    size_sigma: float = 1.0
    max_file_sectors: int = 2048

    def __post_init__(self) -> None:
        for target, ops in self.phases:
            if not 0.0 <= target <= 1.0:
                raise ValueError(
                    f"phases: target utilization {target} not in [0, 1]")
            if ops < 0:
                raise ValueError(f"phases: op count {ops} is negative")
        if not math.isfinite(self.size_mu):
            raise ValueError(f"size_mu must be finite, not {self.size_mu}")
        if not 0 <= self.size_sigma < math.inf:
            raise ValueError(
                f"size_sigma must be finite and >= 0, not {self.size_sigma}")
        if self.max_file_sectors < 1:
            raise ValueError(
                f"max_file_sectors must be >= 1, not {self.max_file_sectors}")

    def sample_size(self, rng: np.random.Generator) -> int:
        size = int(np.exp(rng.normal(self.size_mu, self.size_sigma)))
        return max(1, min(size, self.max_file_sectors))


#: Fresh file system: no churn at all.
PROFILE_U = AgingProfile("U", phases=())

#: Fig 1's aging conditions: unaged, small-file churn (A), and mixed
#: sizes over deeper fill-drain-fill cycles (M).
PROFILES = {
    "U": PROFILE_U,
    "A": AgingProfile("A", phases=((0.55, 500), (0.40, 200), (0.58, 350)),
                      size_mu=2.0, size_sigma=0.8, max_file_sectors=64),
    "M": AgingProfile("M", phases=((0.65, 450), (0.40, 250), (0.68, 450)),
                      size_mu=2.6, size_sigma=1.1, max_file_sectors=256),
}


@dataclass
class AgingReport:
    """What the aging run did to the image."""

    profile: str
    operations: int
    files_created: int
    files_deleted: int
    final_utilization: float
    fragmentation: float


def age_filesystem(fs: FsModel, profile: AgingProfile, seed: int = 0) -> AgingReport:
    """Run one aging profile against a live file-system model."""
    rng = np.random.default_rng(seed)
    created = deleted = ops = 0
    serial = 0
    for target, phase_ops in profile.phases:
        for _ in range(phase_ops):
            ops += 1
            util = _utilization(fs)
            want_create = util < target
            # Small randomness so phases interleave creates and deletes.
            if rng.random() < 0.15:
                want_create = not want_create
            if want_create or not fs.files:
                size = profile.sample_size(rng)
                name = f"aged-{profile.name}-{serial}"
                serial += 1
                try:
                    fs.create(name, size)
                    created += 1
                except FsError:
                    if fs.files:
                        _delete_random(fs, rng)
                        deleted += 1
            else:
                _delete_random(fs, rng)
                deleted += 1
    return AgingReport(
        profile=profile.name,
        operations=ops,
        files_created=created,
        files_deleted=deleted,
        final_utilization=_utilization(fs),
        fragmentation=_fragmentation(fs),
    )


def _delete_random(fs: FsModel, rng: np.random.Generator) -> None:
    names = list(fs.files)
    fs.delete(names[int(rng.integers(len(names)))])


def _utilization(fs: FsModel) -> float:
    space = getattr(fs, "space", None)
    if space is not None:  # extent-allocating models (ext4)
        return space.utilization()
    return fs.utilization()  # segment models (f2fs)


def _fragmentation(fs: FsModel) -> float:
    space = getattr(fs, "space", None)
    if space is not None:
        return space.fragmentation()
    # Segment models: fragmentation shows up as partially-valid segments.
    segments = getattr(fs, "_segments", {})
    if not segments:
        return 0.0
    partial = sum(
        1 for s in segments.values() if 0 < s.valid < fs.segment_sectors
    )
    return partial / max(1, len(segments))
