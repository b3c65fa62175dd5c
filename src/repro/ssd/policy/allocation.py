"""Page-allocation policies: plane ordering and stream separation.

Tavakkol et al. (TOPMECS '16) showed that the *order* in which an FTL
spreads consecutive writes over its parallelism dimensions — Channel,
Way (chip), Die, Plane — changes performance substantially; the paper
varies CWDP vs. PDWC as one of its three "basic design features".

Scheme policies (``"CWDP"`` … ``"DPWC"``) are pure orderings: a scheme
string lists dimensions from fastest-varying to slowest.  The
``hotcold`` policy layers *stream separation* on top: host batches
whose sectors were mostly written before are routed to the regular
``host`` stream while first-touch (cold) batches open their own active
block, keeping lifetimes apart the way multi-stream FTLs do.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.ssd.policy.registry import PolicyRegistry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.flash.geometry import Geometry

#: registry behind ``SsdConfig.allocation_scheme``.
allocation_policies = PolicyRegistry("allocation_scheme")

#: the scheme permutations the pre-registry config accepted.
SCHEME_NAMES = (
    "CWDP", "CWPD", "CDWP", "CDPW", "CPWD", "CPDW",
    "WCDP", "WDCP", "DWCP", "DCWP", "PDWC", "PWDC", "DPWC",
)


class SchemeAllocation:
    """Dimension-order page allocation over C/W/D/P (no stream routing)."""

    extra_streams: tuple[str, ...] = ()

    def __init__(self, scheme: str) -> None:
        #: the dimension ordering (may differ from ``name`` in subclasses).
        self.scheme = scheme.upper()
        self.name = self.scheme
        #: plane of allocation index ``i`` for ``i < planes_total``; the
        #: order repeats from there (filled by :meth:`bind`).
        self._plane_order: list[int] = []

    # -- AllocationPolicy -------------------------------------------------

    def bind(self, geometry: "Geometry") -> None:
        dims = self._parse_scheme(self.scheme, geometry)
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
        # The mixed-radix decomposition discards everything above
        # C*W*D*P, so one period of it is the whole function.
        order = self._plane_order
        return order[index % len(order)]

    def route(self, stream: str, lpns: list[int]) -> str:
        return stream

    # -- scheme machinery -------------------------------------------------

    @staticmethod
    def _parse_scheme(scheme: str, geometry: "Geometry") -> list[tuple[str, int]]:
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


_DIM_NAMES = {"C": "channel", "W": "chip", "D": "die", "P": "plane"}

for _scheme in SCHEME_NAMES:
    allocation_policies.register(
        _scheme,
        (lambda s: (lambda: SchemeAllocation(s)))(_scheme),  # bind per iteration
        summary=(_DIM_NAMES[_scheme[0]] + "-first dimension order "
                 + "/".join(_DIM_NAMES[c] for c in _scheme)),
    )


@allocation_policies.register("hotcold")
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
        self._writes: dict[int, int] = {}

    def route(self, stream: str, lpns: list[int]) -> str:
        if stream != "host":
            return stream
        writes = self._writes
        hot = sum(1 for lpn in lpns if writes.get(lpn, 0) > 0)
        for lpn in lpns:
            writes[lpn] = writes.get(lpn, 0) + 1
        # Majority vote: a batch packed mostly from re-written sectors
        # is hot, first-touch-dominated batches go to the cold stream.
        return "host" if 2 * hot >= len(lpns) else "cold"
