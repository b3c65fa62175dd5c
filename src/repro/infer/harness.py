"""Round-trip orchestration: build firmware, infer, compare to truth.

One round trip takes a :class:`~repro.infer.grid.PolicyPoint`, builds a
device whose firmware and FTL embody it, runs the black-box and
gray-box tool loops, and scores each recovered knob against the ground
truth the firmware was built from.  Everything is deterministic in
``(point, seed)`` — same inputs, byte-identical transcripts.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.infer.blackbox import run_blackbox
from repro.infer.graybox import run_graybox
from repro.infer.grid import KNOBS, PolicyPoint, infer_base
from repro.infer.toolloop import ToolLoop
from repro.ssd.config import SsdConfig
from repro.ssd.firmware.device import HackableSSD


@dataclass(frozen=True)
class KnobRecovery:
    """One knob's verdict from one inference run."""

    knob: str
    truth: str
    recovered: str | None
    confirmed: bool

    @property
    def correct(self) -> bool:
        return self.recovered == self.truth


@dataclass(frozen=True)
class InferenceResult:
    """One tool-loop run: per-knob verdicts plus the full transcript."""

    mode: str
    recoveries: tuple[KnobRecovery, ...]
    transcript: str

    def recovery(self, knob: str) -> KnobRecovery:
        for r in self.recoveries:
            if r.knob == knob:
                return r
        raise KeyError(knob)


@dataclass(frozen=True)
class RoundTrip:
    """Built → inferred → compared, both modes, for one grid point."""

    point: PolicyPoint
    blackbox: InferenceResult
    graybox: InferenceResult


def _verdicts(point: PolicyPoint, recovered: dict[str, str | None],
              confirmed: dict[str, bool] | None) -> tuple[KnobRecovery, ...]:
    confirmed = confirmed or {}
    return tuple(
        KnobRecovery(knob, getattr(point, knob), recovered.get(knob),
                     bool(confirmed.get(knob)))
        for knob in KNOBS
    )


def run_graybox_trip(point: PolicyPoint,
                     base: SsdConfig | None = None) -> InferenceResult:
    config = point.apply(base or infer_base())
    device = HackableSSD(config, policy_firmware=True)
    loop = ToolLoop("graybox")
    recovered, confirmed = run_graybox(device, loop)
    return InferenceResult("graybox", _verdicts(point, recovered, confirmed),
                           loop.render())


def run_blackbox_trip(point: PolicyPoint,
                      base: SsdConfig | None = None) -> InferenceResult:
    config = point.apply(base or infer_base())
    loop = ToolLoop("blackbox")
    recovered = run_blackbox(config, loop)
    return InferenceResult("blackbox", _verdicts(point, recovered, None),
                           loop.render())


def run_round_trip(point: PolicyPoint,
                   base: SsdConfig | None = None) -> RoundTrip:
    base = base or infer_base()
    return RoundTrip(point,
                     blackbox=run_blackbox_trip(point, base),
                     graybox=run_graybox_trip(point, base))
