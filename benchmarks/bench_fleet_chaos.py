"""Fleet chaos campaign: zero-AFR identity and degraded-tail pins.

Runs the 256-device reference fleet (three tenants, ``tiny`` preset,
seed 42) fault-free, then under the ``default`` fault campaign, and
asserts the chaos layer's three load-bearing properties:

* **zero-AFR identity** — the campaign at AFR 0 produces exactly the
  fault-free fleet's SLO table: wiring the chaos machinery in must
  cost the fault-free path nothing;
* **campaign reproducibility** — the nonzero-AFR campaign's per-device
  results are byte-identical across worker counts (jobs 1 vs 2) and
  shard plans (1 vs 8): which devices fail, when, and how is a pure
  function of (fleet seed, device index), never of execution layout;
* **exact accounting** — the devices that recorded fault firings are
  exactly the devices the campaign planner armed, availability drops
  below 1.0, and the fleet tail (p99.9 and p99.99) degrades relative
  to the fault-free baseline — chaos must be *visible* in the merged
  distribution, not averaged away.

Persists ``fleet_slo.csv`` (the fault-free fleet's merged per-tenant
SLO table — the golden checked at quarter scale by
``tests/regression/test_fleet_goldens.py``) and ``fleet_chaos.csv``
(campaign summary + healthy/faulted tail split).
"""

import pickle
from dataclasses import replace

import pytest

from benchmarks.conftest import run_once
from repro.exp import Runner
from repro.fleet import (
    CAMPAIGNS,
    CampaignSpec,
    FleetSpec,
    aggregate_fleet,
    campaign_device_plans,
    default_tenants,
    run_fleet_devices,
)

DEVICES = 256
IO_COUNT = 150
SEED = 42


def fleet_spec(campaign: CampaignSpec | None = None) -> FleetSpec:
    return FleetSpec(tenants=default_tenants(io_count=IO_COUNT),
                     devices=DEVICES, preset="tiny", seed=SEED,
                     campaign=campaign)


def campaign_spec(afr: float | None = None) -> FleetSpec:
    campaign = CAMPAIGNS["default"]
    if afr is not None:
        campaign = replace(campaign, afr=afr)
    return fleet_spec(campaign)


def _fleet(spec: FleetSpec, jobs: int, shards: int | None):
    devices = run_fleet_devices(spec, Runner(jobs=jobs, cache=None),
                                shards=shards)
    return devices, aggregate_fleet(spec, devices)


@pytest.mark.benchmark(group="fleet-chaos")
def test_fleet_chaos(benchmark, figure_output):
    def experiment():
        _, fault_free = _fleet(fleet_spec(), 1, None)
        zero = _fleet(campaign_spec(afr=0.0), 1, None)
        chaos = {
            (jobs, shards): _fleet(campaign_spec(), jobs, shards)
            for jobs, shards in ((1, None), (2, None), (1, 1), (1, 8))
        }
        return fault_free, zero, chaos

    fault_free, (zero_devices, zero_report), chaos = run_once(
        benchmark, experiment)

    headers, rows = fault_free.slo_table()
    figure_output(
        "fleet_slo",
        f"Fleet SLO table — {DEVICES} x tiny, default mix, seed {SEED}",
        headers, rows,
    )
    assert fault_free.ok, fault_free.violations

    # Zero-AFR identity: the campaign at rest reproduces the fault-free
    # SLO table exactly.
    assert zero_report.slo_table() == (headers, rows)
    assert zero_report.availability == 1.0
    assert zero_report.durability_ok

    # Campaign reproducibility: jobs and shard plans are invisible.
    ref_devices, ref_report = chaos[(1, None)]
    ref_bytes = [pickle.dumps(d) for d in ref_devices]
    for layout, (devices, _) in chaos.items():
        assert [pickle.dumps(d) for d in devices] == ref_bytes, layout

    # Exact device-level accounting: the firing log names exactly the
    # devices the planner armed, and the totals line up.
    plans = campaign_device_plans(campaign_spec())
    fired = {d.index for d in ref_devices if d.fault_events}
    assert fired == set(plans)
    assert ref_report.devices_faulted == len(plans)
    manual = {}
    for device in ref_devices:
        for kind, _, _ in device.fault_events:
            manual[kind] = manual.get(kind, 0) + 1
    assert ref_report.events_by_kind == tuple(sorted(manual.items()))

    # Chaos must be visible: availability below 1.0, degraded devices,
    # and a fatter fleet tail than the fault-free baseline.
    assert ref_report.availability < 1.0
    assert ref_report.devices_degraded > 0
    zero_p999 = zero_report.fleet_sketch.quantile(0.999)
    zero_p9999 = zero_report.fleet_sketch.quantile(0.9999)
    assert ref_report.fleet_sketch.quantile(0.999) > zero_p999
    assert ref_report.fleet_sketch.quantile(0.9999) > 2 * zero_p9999

    table = [
        ["availability", round(ref_report.availability, 6)],
        ["devices faulted", ref_report.devices_faulted],
        ["devices degraded", ref_report.devices_degraded],
        ["failed requests", ref_report.failed_requests],
        ["sectors lost", ref_report.sectors_lost],
        ["durability", "PASS" if ref_report.durability_ok else "FAIL"],
        ["p99.9 (us) zero-AFR", round(float(zero_p999), 1)],
        ["p99.9 (us) campaign",
         round(float(ref_report.fleet_sketch.quantile(0.999)), 1)],
        ["p99.99 (us) zero-AFR", round(float(zero_p9999), 1)],
        ["p99.99 (us) campaign",
         round(float(ref_report.fleet_sketch.quantile(0.9999)), 1)],
    ]
    for kind, count in ref_report.events_by_kind:
        table.append([f"firings: {kind}", count])
    figure_output(
        "fleet_chaos",
        f"Fleet chaos — {DEVICES} x tiny, default campaign "
        f"(AFR {CAMPAIGNS['default'].afr:g}), seed {SEED}",
        ["metric", "value"], table,
    )
