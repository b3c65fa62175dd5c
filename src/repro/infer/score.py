"""The transparency score: per-knob recovery rates over random points.

The paper argues SSDs should be performance-transparent; this module
quantifies how transparent the simulated drive actually is, per policy
knob and per access level.  N random grid points are built into
firmware, round-tripped through both tool loops, and each knob scores
the fraction of points whose setting was recovered — black-box
(host interface + bus probe) versus gray-box (firmware image + JTAG).

Sweeps run as :mod:`repro.exp` cells: one cell per grid point, so the
content-addressed cache makes re-scoring after a code change
incremental, and ``REPRO_JOBS`` parallelizes the fan-out.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exp import Cell, Runner
from repro.infer.grid import KNOBS, PolicyPoint, random_points
from repro.infer.harness import RoundTrip, run_round_trip


def run_transparency_cell(config: tuple[str, ...], seed: int) -> RoundTrip:
    """Exp-cell entry point: one full round trip for one grid point."""
    del seed  # the round trip is deterministic in the point itself
    return run_round_trip(PolicyPoint(*config))


@dataclass(frozen=True)
class KnobScore:
    """Recovery tallies for one knob across a sweep."""

    knob: str
    points: int
    blackbox_recovered: int
    graybox_recovered: int

    @property
    def blackbox_rate(self) -> float:
        return self.blackbox_recovered / self.points if self.points else 0.0

    @property
    def graybox_rate(self) -> float:
        return self.graybox_recovered / self.points if self.points else 0.0


@dataclass(frozen=True)
class TransparencyScore:
    """Aggregate of one scored sweep."""

    trips: tuple[RoundTrip, ...]

    def knob_score(self, knob: str) -> KnobScore:
        blackbox = sum(t.blackbox.recovery(knob).correct for t in self.trips)
        graybox = sum(t.graybox.recovery(knob).correct for t in self.trips)
        return KnobScore(knob, len(self.trips), blackbox, graybox)

    def scores(self) -> list[KnobScore]:
        return [self.knob_score(knob) for knob in KNOBS]

    @property
    def blackbox_total(self) -> int:
        return sum(s.blackbox_recovered for s in self.scores())

    @property
    def graybox_total(self) -> int:
        return sum(s.graybox_recovered for s in self.scores())

    def rows(self) -> list[list]:
        """CSV rows for ``fig_transparency_score.csv``."""
        return [
            [s.knob, s.points, s.blackbox_recovered, s.graybox_recovered,
             round(s.blackbox_rate, 4), round(s.graybox_rate, 4)]
            for s in self.scores()
        ]

    def render(self) -> str:
        lines = [
            f"transparency score over {len(self.trips)} random grid points",
            f"{'knob':<18}{'black-box':>12}{'gray-box':>12}",
        ]
        for s in self.scores():
            lines.append(f"{s.knob:<18}"
                         f"{s.blackbox_recovered:>7}/{s.points:<4}"
                         f"{s.graybox_recovered:>7}/{s.points:<4}")
        total = len(self.trips) * len(KNOBS)
        lines.append(f"{'all knobs':<18}"
                     f"{self.blackbox_total:>7}/{total:<4}"
                     f"{self.graybox_total:>7}/{total:<4}")
        return "\n".join(lines)


def transparency_cells(points: list[PolicyPoint], seed: int = 0) -> list[Cell]:
    return [
        Cell(run_transparency_cell, point.astuple(), seed=seed,
             label=f"infer:{point.label()}")
        for point in points
    ]


def run_transparency_sweep(n_points: int, seed: int = 0,
                           runner: Runner | None = None) -> TransparencyScore:
    """Score *n_points* seeded random grid points through both loops."""
    points = random_points(n_points, seed=seed)
    trips = (runner or Runner(jobs=1)).run(
        transparency_cells(points, seed=seed))
    return TransparencyScore(tuple(trips))
