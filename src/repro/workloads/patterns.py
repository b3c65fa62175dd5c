"""Address patterns: where requests land in the LBA space.

These mirror fio's ``random_distribution`` options.  Every pattern draws
sector addresses within a :class:`Region` — a private slice of the LBA
space — which is how the paper's Fig 4b workloads avoid stepping on each
other ("each workload managed its own separate section of the logical
address space").

Addresses are request-aligned: a pattern asked for a request of
``bs_sectors`` returns a start sector such that the whole request stays
inside the region, aligned to the request size (fio's default behaviour
for block-aligned random I/O).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Region:
    """A contiguous slice of the logical address space, in sectors."""

    start: int
    length: int

    def __post_init__(self) -> None:
        if self.start < 0 or self.length <= 0:
            raise ValueError("region must have start >= 0 and length > 0")

    @property
    def end(self) -> int:
        return self.start + self.length

    def slots(self, bs_sectors: int) -> int:
        """How many aligned requests of *bs_sectors* fit in the region."""
        return self.length // bs_sectors


class AddressPattern:
    """Base class: yields aligned start sectors for fixed-size requests.

    Two ways to draw, one stream: :meth:`next_lba` draws one address,
    :meth:`draw_block` draws *count* of them — returning exactly what
    *count* ``next_lba`` calls return and leaving *rng* and the pattern
    in exactly the state those calls would.  The base ``draw_block`` is
    that loop; a subclass overrides it only where one numpy array draw
    consumes the generator's stream the same way its scalar draws do
    (``tests/workloads/test_patterns.py`` holds every pattern to it,
    down to the final ``bit_generator.state``).
    """

    def __init__(self, region: Region, bs_sectors: int) -> None:
        if bs_sectors < 1:
            raise ValueError("bs_sectors must be >= 1")
        if region.slots(bs_sectors) < 1:
            raise ValueError("region smaller than one request")
        self.region = region
        self.bs_sectors = bs_sectors

    def next_lba(self, rng: np.random.Generator) -> int:
        raise NotImplementedError

    def draw_block(self, rng: np.random.Generator, count: int) -> list[int]:
        """The next *count* addresses, as *count* ``next_lba`` calls."""
        next_lba = self.next_lba
        return [next_lba(rng) for _ in range(count)]

    def _slot_to_lba(self, slot: int) -> int:
        return self.region.start + slot * self.bs_sectors

    def _slots_to_lbas(self, slots: np.ndarray) -> list[int]:
        return (self.region.start + slots * self.bs_sectors).tolist()


class Sequential(AddressPattern):
    """Wrapping sequential writes (fio ``rw=write``)."""

    def __init__(self, region: Region, bs_sectors: int) -> None:
        super().__init__(region, bs_sectors)
        self._cursor = 0

    def next_lba(self, rng: np.random.Generator) -> int:
        lba = self._slot_to_lba(self._cursor)
        self._cursor = (self._cursor + 1) % self.region.slots(self.bs_sectors)
        return lba

    def draw_block(self, rng: np.random.Generator, count: int) -> list[int]:
        slots = self.region.slots(self.bs_sectors)
        block = (self._cursor + np.arange(count)) % slots
        self._cursor = (self._cursor + count) % slots
        return self._slots_to_lbas(block)


class Uniform(AddressPattern):
    """Uniformly random aligned addresses (fio ``random_distribution=random``)."""

    def next_lba(self, rng: np.random.Generator) -> int:
        return self._slot_to_lba(int(rng.integers(self.region.slots(self.bs_sectors))))

    def draw_block(self, rng: np.random.Generator, count: int) -> list[int]:
        return self._slots_to_lbas(
            rng.integers(self.region.slots(self.bs_sectors), size=count))


class HotCold(AddressPattern):
    """An 80/20-style skew: ``traffic_fraction`` of requests go to the
    first ``space_fraction`` of the region (fio ``random_distribution=zoned``).

    A one-slot region has no cold slot: every request goes to the hot set.
    Blocks use the base per-address loop — the second draw's bound
    depends on the first draw's outcome.
    """

    def __init__(
        self,
        region: Region,
        bs_sectors: int,
        space_fraction: float = 0.2,
        traffic_fraction: float = 0.8,
    ) -> None:
        super().__init__(region, bs_sectors)
        if not 0 < space_fraction < 1 or not 0 < traffic_fraction < 1:
            raise ValueError("fractions must be in (0, 1)")
        self.space_fraction = space_fraction
        self.traffic_fraction = traffic_fraction
        slots = region.slots(bs_sectors)
        self._hot_slots = max(1, int(slots * space_fraction))
        self._cold_slots = slots - self._hot_slots

    def next_lba(self, rng: np.random.Generator) -> int:
        if rng.random() < self.traffic_fraction or not self._cold_slots:
            slot = int(rng.integers(self._hot_slots))
        else:
            slot = self._hot_slots + int(rng.integers(self._cold_slots))
        return self._slot_to_lba(slot)


class Zipf(AddressPattern):
    """Zipfian skew over slots (fio ``random_distribution=zipf:theta``).

    Slot ranks are shuffled so popularity is not correlated with address,
    as fio does.
    """

    def __init__(self, region: Region, bs_sectors: int, theta: float = 1.1,
                 seed: int = 0) -> None:
        super().__init__(region, bs_sectors)
        if theta <= 0:
            raise ValueError("theta must be positive")
        slots = region.slots(bs_sectors)
        ranks = np.arange(1, slots + 1, dtype=np.float64)
        weights = 1.0 / np.power(ranks, theta)
        self._cdf = np.cumsum(weights / weights.sum())
        self._slot_order = np.random.default_rng(seed).permutation(slots)

    def next_lba(self, rng: np.random.Generator) -> int:
        rank = int(np.searchsorted(self._cdf, rng.random()))
        rank = min(rank, len(self._slot_order) - 1)
        return self._slot_to_lba(int(self._slot_order[rank]))

    def draw_block(self, rng: np.random.Generator, count: int) -> list[int]:
        ranks = np.searchsorted(self._cdf, rng.random(count))
        np.minimum(ranks, len(self._slot_order) - 1, out=ranks)
        return self._slots_to_lbas(self._slot_order[ranks])


PATTERNS = {
    "sequential": Sequential,
    "uniform": Uniform,
    "hotcold": HotCold,
    "zipf": Zipf,
}


def make_pattern(name: str, region: Region, bs_sectors: int, **kwargs) -> AddressPattern:
    """Instantiate a pattern by fio-ish name."""
    try:
        cls = PATTERNS[name]
    except KeyError:
        known = ", ".join(sorted(PATTERNS))
        raise KeyError(f"unknown pattern {name!r}; known: {known}") from None
    return cls(region, bs_sectors, **kwargs)
