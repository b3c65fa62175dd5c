"""Fleet-level fault campaigns: population chaos as a pure function.

PR 4 made per-device faults reproducible (:class:`~repro.faults.plan.FaultPlan`
frozen schedules); the fleet layer made thousand-device populations
reproducible (per-device seeds derived from ``(fleet seed, index)``).
This module joins them: a :class:`CampaignSpec` describes *population*
failure statistics — an annualized failure rate, a hazard-curve shape,
a per-kind fault mix — and :func:`device_fault_plan` lowers it to each
device's concrete :class:`FaultPlan` as a pure function of
``(fleet seed, campaign, device index)``.

Determinism contract (the load-bearing property, same as tenant seeds):
whether device #617 of a 1000-device campaign dies, when, and how, is
decided by hashing its identity — never by shard layout, worker count,
or execution order.  ``--jobs 8 --shards 4`` and a serial run produce
byte-identical fault schedules, which is what lets campaign results
ride the content-addressed result cache.

Hazard shapes map a uniform draw ``u`` to a life fraction:

* ``constant`` — ``u`` (memoryless, the steady-state bathtub floor);
* ``infant`` — ``u**3`` (mass at the start of life: infant mortality);
* ``wearout`` — ``u**(1/3)`` (mass at end of life: wear-out failures).

The zero-AFR campaign plans nothing for any device, and callers treat
"no specs" as "no injector", so ``--campaign default --afr 0`` runs the
literal fault-free fleet code path byte-for-byte (pinned by
``benchmarks/bench_fleet_chaos.py`` against PR 8's goldens).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.faults.plan import (
    DIE_OFFLINE,
    ERASE_FAIL,
    FAULT_KINDS,
    POWER_CUT,
    PROGRAM_FAIL,
    UNCORRECTABLE_READ,
    FaultPlan,
    FaultSpec,
)
from repro.flash.errors import FailureInjector
from repro.flash.geometry import Geometry
from repro.fleet.spec import FleetSpec, derive_seed

#: RNG stream constant for campaign draws — dedicated, so campaign
#: decisions can never perturb workload or fault-plan streams.
CHAOS_STREAM = 0xC7A05

#: hazard-curve shapes: life-fraction exponent applied to a uniform draw.
HAZARD_SHAPES = {"constant": 1.0, "infant": 3.0, "wearout": 1.0 / 3.0}

#: onset cap as a fraction of the run's host ops: a fault armed at 85%
#: of life still has candidate operations left to fire on.
_ONSET_CAP = 0.85


@dataclass(frozen=True)
class CampaignSpec:
    """Population-level fault statistics for one fleet campaign.

    ``afr`` is the annualized failure rate; ``duty_days`` is the slice
    of device life one simulated run represents, so the per-device
    failure probability is ``1 - exp(-afr * duty_days / 365)`` (the
    exponential survival model the Li/Lee/Lui fleet analysis uses).
    ``mix`` weights the fault kind drawn for a failing device;
    ``hazard`` shapes *when* in the run the fault arms.

    ``spare_blocks_min`` is pushed into every device config while a
    campaign is active so retirement storms reach the FTL's read-only
    degraded mode instead of running the spare pool to exhaustion;
    ``retire_margin`` adds extra program/erase firings past the
    degradation threshold so the ladder is crossed decisively.
    """

    name: str = "default"
    afr: float = 0.35
    duty_days: float = 30.0
    hazard: str = "constant"
    mix: tuple[tuple[str, float], ...] = (
        (PROGRAM_FAIL, 0.30),
        (ERASE_FAIL, 0.10),
        (UNCORRECTABLE_READ, 0.25),
        (DIE_OFFLINE, 0.20),
        (POWER_CUT, 0.15),
    )
    spare_blocks_min: int = 4
    retire_margin: int = 2

    def __post_init__(self) -> None:
        # ``not 0 <= x < inf`` rejects NaN too.
        if not 0 <= self.afr < math.inf:
            raise ValueError(f"afr must be finite and >= 0, got {self.afr}")
        if not 0 < self.duty_days < math.inf:
            raise ValueError(
                f"duty_days must be finite and > 0, got {self.duty_days}")
        if self.hazard not in HAZARD_SHAPES:
            known = ", ".join(sorted(HAZARD_SHAPES))
            raise ValueError(f"unknown hazard {self.hazard!r}; known: {known}")
        if not self.mix:
            raise ValueError("campaign needs a non-empty fault mix")
        for kind, weight in self.mix:
            if kind not in FAULT_KINDS:
                raise ValueError(f"unknown fault kind {kind!r} in mix")
            if weight < 0:
                raise ValueError(f"negative mix weight for {kind!r}")
        if sum(w for _, w in self.mix) <= 0:
            raise ValueError("fault mix weights sum to zero")
        if self.spare_blocks_min < 1:
            raise ValueError("spare_blocks_min must be >= 1")
        if self.retire_margin < 0:
            raise ValueError("retire_margin must be >= 0")

    @property
    def active(self) -> bool:
        """Does this campaign plan any faults at all?"""
        return self.afr > 0

    def failure_probability(self) -> float:
        """Per-device probability of one fault event in the duty window."""
        return 1.0 - math.exp(-self.afr * self.duty_days / 365.0)


#: The CLI's named campaigns.
CAMPAIGNS = {
    "default": CampaignSpec(name="default"),
    "infant": CampaignSpec(
        name="infant", afr=0.6, hazard="infant",
        # Infant mortality skews to hard, immediate faults.
        mix=(
            (PROGRAM_FAIL, 0.35),
            (DIE_OFFLINE, 0.30),
            (POWER_CUT, 0.20),
            (UNCORRECTABLE_READ, 0.15),
        ),
    ),
    "wearout": CampaignSpec(
        name="wearout", afr=0.5, hazard="wearout",
        # Worn flash fails on program/erase and grows uncorrectable pages.
        mix=(
            (PROGRAM_FAIL, 0.40),
            (ERASE_FAIL, 0.25),
            (UNCORRECTABLE_READ, 0.30),
            (DIE_OFFLINE, 0.05),
        ),
    ),
}


def device_fault_plan(spec: FleetSpec, device_index: int) -> FaultPlan:
    """Lower the fleet's campaign to one device's frozen fault plan.

    Pure function of ``(spec.seed, campaign, device_index)``: three RNG
    draws (fail?, when?, which kind?) plus a die pick come from a
    dedicated ``default_rng([seed, CHAOS_STREAM])`` stream, where
    ``seed`` hashes the device identity.  Devices that survive the duty
    window get the empty plan.
    """
    campaign = spec.campaign
    if campaign is None or not campaign.active:
        return FaultPlan(seed=spec.device_seed(device_index), specs=())
    seed = derive_seed(spec.seed, "chaos", campaign.name, device_index)
    rng = np.random.default_rng([seed, CHAOS_STREAM])
    u_fail, u_when, u_kind = rng.random(3)
    if u_fail >= campaign.failure_probability():
        return FaultPlan(seed=seed, specs=())

    # When in the run the fault arms: hazard-shaped fraction of life.
    total_ops = sum(t.io_count for t in spec.tenants)
    life = u_when ** HAZARD_SHAPES[campaign.hazard]
    at_op = max(1, int(life * _ONSET_CAP * total_ops))

    # Which kind: cumulative-weight draw over the campaign mix.
    weights = [w for _, w in campaign.mix]
    total_weight = sum(weights)
    threshold = u_kind * total_weight
    kind = campaign.mix[-1][0]
    for mix_kind, weight in campaign.mix:
        threshold -= weight
        if threshold < 0:
            kind = mix_kind
            break

    config = spec.device_config()
    if kind == DIE_OFFLINE:
        die = int(rng.integers(0, config.geometry.dies_total))
        spec_ = FaultSpec(DIE_OFFLINE, at_op=at_op, die=die)
    elif kind == POWER_CUT:
        spec_ = FaultSpec(POWER_CUT, at_op=at_op)
    elif kind == UNCORRECTABLE_READ:
        # Media going bad: every read after onset is uncorrectable and
        # pays the retry ladder — a latency fault, not a capacity one.
        spec_ = FaultSpec(UNCORRECTABLE_READ, at_op=at_op, count=0)
    else:
        # program/erase failures retire blocks; bound the firings so the
        # spare pool crosses the read-only threshold without being run
        # all the way to OutOfSpace mid-write.
        spares = config.spare_blocks_at_birth
        count = max(1, spares - campaign.spare_blocks_min + 1
                    + campaign.retire_margin)
        spec_ = FaultSpec(kind, at_op=at_op, count=count)
    return FaultPlan(seed=seed, specs=(spec_,))


def campaign_device_plans(spec: FleetSpec) -> dict[int, FaultPlan]:
    """Every device's non-empty fault plan — the campaign's planning-side
    firing log, the ground truth device-level accounting reconciles
    against (``benchmarks/bench_fleet_chaos.py``)."""
    plans: dict[int, FaultPlan] = {}
    for device_index in range(spec.devices):
        plan = device_fault_plan(spec, device_index)
        if plan.specs:
            plans[device_index] = plan
    return plans


class OfflineDieInjector(FailureInjector):
    """Recovery-scan injector modeling dies that stayed dead across the
    reboot: pages on an offline die are permanently unreadable (the
    durability audit's honest model of die loss), while transient
    program/erase/read faults from the live run do not replay."""

    def __init__(self, offline: frozenset[int], geometry: Geometry) -> None:
        super().__init__()
        self._offline = frozenset(offline)
        self._geometry = geometry

    def read_uncorrectable(self, ppn: int, lpn: int = -1) -> bool:
        return self._geometry.die_of_ppn(ppn) in self._offline

    @property
    def offline_dies(self) -> frozenset[int]:
        return self._offline
