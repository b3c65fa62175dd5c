"""The FTL's policy knobs: one plain table per knob.

The paper's Fig 3 point is that *basic* FTL design choices — invisible
from outside the device — swing tail latency by an order of magnitude.
Each :class:`~repro.ssd.config.SsdConfig` knob names one entry of its
table here; the FTL looks the entry up once at construction and its
components call it directly.

==================  ===================  ==============================
``SsdConfig`` knob  table                entry
==================  ===================  ==============================
gc_policy           :data:`VICTIM`       ``choose(pool, selector)``
allocation_scheme   :data:`ALLOCATION`   allocation object factory
cache_designation   :data:`DESIGNATION`  description (:func:`designate`)
cache_admission     :data:`ADMISSION`    description
cache_eviction      :data:`EVICTION`     ``on_hit(lpn, pending)``
wear_policy         :data:`WEAR`         ``pick(leveler)``
==================  ===================  ==============================

To add a policy, write one function and add it to its table: configs,
presets, sweeps and ``repro-ssd policies`` (which prints the first line
of each docstring) pick it up.

Victim and wear functions read shared per-run state — RNG stream,
sample size, valid-sector counts — from the consuming component (the
``selector`` or ``leveler``) at decision time, so mutating e.g.
``selector.sample_size`` mid-run takes effect at the next decision.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from collections import OrderedDict

    from repro.flash.geometry import Geometry
    from repro.ssd.config import SsdConfig
    from repro.ssd.gc import VictimSelector
    from repro.ssd.wearlevel import WearLeveler


# ----------------------------------------------------------------------
# GC victim selection (Van Houdt, SIGMETRICS '13: the policy family
# changes write amplification in first-order ways).  Each function picks
# one block from the non-empty sealed *pool*; the FTL migrates and
# erases it.
# ----------------------------------------------------------------------


def greedy(pool: list[int], selector: "VictimSelector") -> int:
    """Reclaim the block with the fewest valid sectors (min migration)."""
    valid = selector.valid_sectors
    return min(pool, key=lambda b: int(valid[b]))


def randomized_greedy(pool: list[int], selector: "VictimSelector") -> int:
    """Greedy over a random sample of d candidates (windowed greedy).

    The sample of ``selector.sample_size`` is drawn without replacement."""
    if len(pool) <= selector.sample_size:
        sample = pool
    else:
        index = selector.rng.choice(len(pool), size=selector.sample_size,
                                    replace=False)
        sample = [pool[i] for i in index]
    valid = selector.valid_sectors
    return min(sample, key=lambda b: int(valid[b]))


def random(pool: list[int], selector: "VictimSelector") -> int:
    """Uniformly random reclaimable block (the WAF worst case)."""
    return pool[int(selector.rng.integers(len(pool)))]


def fifo(pool: list[int], selector: "VictimSelector") -> int:
    """Oldest-allocated block first (log-structured round-robin)."""
    seq = selector.allocator.block_alloc_seq
    return min(pool, key=lambda b: seq.get(b, 0))


def cost_benefit(pool: list[int], selector: "VictimSelector") -> int:
    """Rosenblum/Ousterhout cost-benefit: maximize age*(1-u)/(2u)."""
    seq = selector.allocator.block_alloc_seq
    now = max(seq.values(), default=0) + 1
    geometry = selector.geometry
    sectors_per_block = geometry.pages_per_block * geometry.sectors_per_page
    valid = selector.valid_sectors

    def score(block: int) -> float:
        u = int(valid[block]) / sectors_per_block
        age = now - seq.get(block, 0)
        if u >= 1.0:
            return -1.0
        return age * (1.0 - u) / (2.0 * u + 1e-9)

    return max(pool, key=score)


def d_choices(pool: list[int], selector: "VictimSelector") -> int:
    """Van Houdt d-choices: d uniform draws WITH replacement, pick the
    emptiest — candidate cost is O(d) regardless of pool size."""
    if len(pool) == 1:
        return pool[0]
    index = selector.rng.integers(len(pool), size=selector.sample_size)
    sample = {pool[int(i)] for i in index}
    valid = selector.valid_sectors
    # Block-id tiebreak keeps the pick deterministic across the set's
    # (insertion-ordered but draw-dependent) iteration order.
    return min(sample, key=lambda b: (int(valid[b]), b))


def cat(pool: list[int], selector: "VictimSelector") -> int:
    """Cost-Age-Times (Chiang/Chang): minimize u/(1-u) * cleans / age —
    utilization weighted by how often the block was already erased, so
    worn blocks get reclaimed less eagerly."""
    seq = selector.allocator.block_alloc_seq
    now = max(seq.values(), default=0) + 1
    geometry = selector.geometry
    sectors_per_block = geometry.pages_per_block * geometry.sectors_per_page
    valid = selector.valid_sectors
    erases = selector.nand.block_erase_count

    def cost(block: int) -> tuple[float, int]:
        u = int(valid[block]) / sectors_per_block
        age = now - seq.get(block, 0)
        score = (u / (1.0 - u + 1e-9)) * (int(erases[block]) + 1) / age
        return (score, block)

    return min(pool, key=cost)


#: ``SsdConfig.gc_policy``.  Each key is its function's ``__name__``,
#: which trace events carry as the policy label.
VICTIM = {
    "greedy": greedy,
    "randomized_greedy": randomized_greedy,
    "random": random,
    "fifo": fifo,
    "cost_benefit": cost_benefit,
    "d_choices": d_choices,
    "cat": cat,
}


# ----------------------------------------------------------------------
# Page allocation (Tavakkol et al., TOPMECS '16: the order consecutive
# writes spread over Channel/Way/Die/Plane changes performance).  A
# scheme string lists dimensions from fastest-varying to slowest.
# Allocation policies are objects, one per device, because ``hotcold``
# keeps per-device heat state.
# ----------------------------------------------------------------------

#: the dimension-order schemes :data:`ALLOCATION` accepts.
SCHEME_NAMES = (
    "CWDP", "CWPD", "CDWP", "CDPW", "CPWD", "CPDW",
    "WCDP", "WDCP", "DWCP", "DCWP", "PDWC", "PWDC", "DPWC",
)

_DIM_NAMES = {"C": "channel", "W": "chip", "D": "die", "P": "plane"}


def parse_scheme(scheme: str, geometry: "Geometry") -> list[tuple[str, int]]:
    """``(letter, size)`` per dimension of *scheme*, fastest first;
    dimensions the scheme leaves out follow in C/W/D/P order."""
    sizes = {
        "C": geometry.channels,
        "W": geometry.chips_per_channel,
        "D": geometry.dies_per_chip,
        "P": geometry.planes_per_die,
    }
    seen: list[tuple[str, int]] = []
    for letter in scheme:
        if letter not in sizes:
            raise ValueError(f"allocation scheme letter {letter!r} invalid")
        if letter in (l for l, _ in seen):
            raise ValueError(f"allocation scheme repeats {letter!r}")
        seen.append((letter, sizes[letter]))
    for letter, size in sizes.items():
        if letter not in (l for l, _ in seen):
            seen.append((letter, size))
    return seen


class SchemeAllocation:
    """Dimension-order page allocation over C/W/D/P (no stream routing)."""

    #: write streams beyond the FTL's builtin ``host``/``gc``/``meta``.
    extra_streams: tuple[str, ...] = ()

    def __init__(self, scheme: str) -> None:
        #: the dimension ordering (``hotcold`` orders planes as CWDP).
        self.scheme = scheme.upper()
        self.name = self.scheme
        #: plane of allocation index ``i`` for ``i < planes_total``; the
        #: order repeats from there (filled by :meth:`bind`).
        self._plane_order: list[int] = []

    def bind(self, geometry: "Geometry") -> None:
        """Attach the device geometry (called once by the allocator)."""
        dims = parse_scheme(self.scheme, geometry)
        order = self._plane_order = []
        for index in range(geometry.planes_total):
            coords = {}
            rest = index
            for letter, size in dims:
                coords[letter] = rest % size
                rest //= size
            order.append(
                ((coords["C"] * geometry.chips_per_channel + coords["W"])
                 * geometry.dies_per_chip + coords["D"])
                * geometry.planes_per_die + coords["P"]
            )

    def plane_for_index(self, index: int) -> int:
        """Plane targeted by the *index*-th allocation of a stream."""
        # The mixed-radix decomposition discards everything above
        # C*W*D*P, so one period of it is the whole function.
        order = self._plane_order
        return order[index % len(order)]

    def route(self, stream: str, lpns: list[int]) -> str:
        """Final stream for a data-page program of *lpns*."""
        return stream


class HotColdAllocation(SchemeAllocation):
    """Hot/cold stream separation over a CWDP base order: previously
    written (hot) batches share the ``host`` active block; first-touch
    (cold) batches open a separate ``cold`` stream so short-lived and
    long-lived data stop sharing erase blocks."""

    extra_streams = ("cold",)

    def __init__(self) -> None:
        super().__init__("CWDP")
        self.name = "hotcold"
        #: lpn -> host data-page programs observed (heat estimate).
        self.heat: dict[int, int] = {}

    def route(self, stream: str, lpns: list[int]) -> str:
        if stream != "host":
            return stream
        heat = self.heat
        hot = sum(1 for lpn in lpns if heat.get(lpn, 0) > 0)
        for lpn in lpns:
            heat[lpn] = heat.get(lpn, 0) + 1
        # Majority vote: a batch packed mostly from re-written sectors
        # is hot, first-touch-dominated batches go to the cold stream.
        return "host" if 2 * hot >= len(lpns) else "cold"


#: ``SsdConfig.allocation_scheme``: name -> factory of a fresh object.
ALLOCATION = {
    **{scheme: partial(SchemeAllocation, scheme) for scheme in SCHEME_NAMES},
    "hotcold": HotColdAllocation,
}


# ----------------------------------------------------------------------
# Write cache.  Designation is the Fig 3 "write cache designation (data
# or mapping metadata)" knob: the same RAM buffers host data (absorbing
# overwrites, packing full pages) or buys the mapping layer dirty
# translation-page slots.  Admission is a build-time choice: ``bypass``
# packs every sector straight into pages through the FTL's staging
# buffer.  Eviction decides what a write hit does to the pending
# sector's age; flush batches always drain the oldest pending first.
# ----------------------------------------------------------------------

#: ``SsdConfig.cache_designation``: name -> description;
#: :func:`designate` implements them.
DESIGNATION = {
    "data": "RAM buffers host data: absorb overwrites, pack full pages.",
    "mapping": """RAM buys dirty translation-page slots; the data path keeps a
        one-page write cache (``sectors_per_page`` sectors).""",
}


def designate(config: "SsdConfig") -> tuple[int, int]:
    """Split the controller's RAM budget per ``config.cache_designation``:
    ``(cache_sectors, extra_dirty_tps)`` — the sectors the data write
    cache may buffer and the dirty-translation-page slots added to the
    mapping layer's allowance."""
    geometry = config.geometry
    if config.cache_designation == "mapping":
        # One translation page occupies one flash page of RAM; the data
        # path keeps a one-page cache, which still packs whole pages and
        # absorbs rewrites of the sectors pending in it.
        return (geometry.sectors_per_page,
                config.cache_sectors * geometry.sector_size
                // geometry.page_size)
    return max(config.cache_sectors, geometry.sectors_per_page), 0


#: ``SsdConfig.cache_admission``: name -> description; the FTL bypasses
#: its write cache exactly when the knob is ``"bypass"``.
ADMISSION = {
    "always": "Every host sector enters the cache (the classic "
              "write-back path).",
    "bypass": """No sector enters the cache: writes pack straight into pages via
        the FTL's direct staging buffer (write-through; no absorption).""",
}


def lru_hit(lpn: int, pending: "OrderedDict[int, None]") -> None:
    """Flush least-recently-written sectors first (hits refresh age)."""
    pending.move_to_end(lpn)


def fifo_hit(lpn: int, pending: "OrderedDict[int, None]") -> None:
    """Flush in arrival order; overwrites do not refresh a sector's age."""


#: ``SsdConfig.cache_eviction``: name -> what a write hit does.
EVICTION = {"lru": lru_hit, "fifo": fifo_hit}


# ----------------------------------------------------------------------
# Static wear leveling: which populated block the leveler rotates back
# into circulation once the erase-count spread exceeds its delta.
# ----------------------------------------------------------------------


def coldest(leveler: "WearLeveler") -> int | None:
    """Migrate the fully-written block with the lowest erase count (the
    coldest data pins the least-worn block)."""
    erases = leveler.nand.block_erase_count
    best: tuple[int, int] | None = None
    for block in leveler.eligible_blocks():
        count = int(erases[block])
        if best is None or count < best[0]:
            best = (count, block)
    return None if best is None else best[1]


def sampled_cold(leveler: "WearLeveler") -> int | None:
    """Coldest of a seeded random sample of eligible blocks — bounds the
    per-decision scan on large arrays at some leveling precision cost."""
    eligible = list(leveler.eligible_blocks())
    if not eligible:
        return None
    d = min(len(eligible), max(2, leveler.sample_size))
    index = leveler.rng.choice(len(eligible), size=d, replace=False)
    erases = leveler.nand.block_erase_count
    return min((eligible[int(i)] for i in index),
               key=lambda b: (int(erases[b]), b))


#: ``SsdConfig.wear_policy``.  Keys are the functions' ``__name__``s,
#: the label trace events carry.
WEAR = {"coldest": coldest, "sampled_cold": sampled_cold}


# ----------------------------------------------------------------------
# The catalogue
# ----------------------------------------------------------------------

#: ``SsdConfig`` knob -> its table, in field order.
POLICIES = {
    "gc_policy": VICTIM,
    "allocation_scheme": ALLOCATION,
    "cache_designation": DESIGNATION,
    "cache_admission": ADMISSION,
    "cache_eviction": EVICTION,
    "wear_policy": WEAR,
}

#: ``(knob, policy)`` -> the other ``SsdConfig`` field the policy reads.
CONFIG_FIELDS = {
    ("gc_policy", "randomized_greedy"): "gc_sample_size",
    ("gc_policy", "d_choices"): "gc_sample_size",
    ("cache_designation", "data"): "cache_sectors",
    ("cache_designation", "mapping"): "cache_sectors",
    ("wear_policy", "sampled_cold"): "gc_sample_size",
}


def check(knob: str, name: str) -> None:
    """Raise ``ValueError`` listing every valid choice unless *name* is
    in *knob*'s table."""
    table = POLICIES[knob]
    if name not in table:
        raise ValueError(f"unknown {knob} {name!r}; valid choices: "
                         f"{', '.join(sorted(table))}")


def summary(knob: str, name: str) -> str:
    """The first line of a policy's description (its docstring)."""
    if knob == "allocation_scheme" and name in SCHEME_NAMES:
        return (f"{_DIM_NAMES[name[0]]}-first dimension order "
                + "/".join(_DIM_NAMES[c] for c in name))
    entry = POLICIES[knob][name]
    doc = entry if isinstance(entry, str) else entry.__doc__
    return doc.strip().splitlines()[0]
