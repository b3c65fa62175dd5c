"""Fleet-scale sharded simulation (the "millions of users" layer).

One invocation simulates thousands of SSDs serving multi-tenant
open-loop traffic and folds them into fleet-level SLO verdicts:

* :class:`FleetSpec` / :class:`TenantSpec` — the fleet description:
  per-tenant arrival processes (Poisson, diurnal, bursty) on the
  JobSpec path, deterministic per-device seed derivation
  (:mod:`repro.fleet.spec`);
* :func:`plan_shards` / :func:`fleet_cells` /
  :func:`run_fleet_devices` — the shard scheduler packing devices into
  chunked :class:`~repro.exp.cell.Cell` units so worker spin-up is
  amortized and the result cache works at shard granularity
  (:mod:`repro.fleet.shard`);
* :class:`QuantileSketch` / :func:`merge_sketches` — mergeable
  fixed-size latency sketches, the O(centroids) transport format
  (:mod:`repro.fleet.sketch`);
* :func:`aggregate_fleet` / :class:`FleetReport` — merged per-tenant
  SLO accounting, fleet WAF, and wear/capacity forecasting
  (:mod:`repro.fleet.aggregate`).

Wall-clock scales with cores (shards fan out over the
:class:`~repro.exp.runner.Runner`); transport cost scales with sketch
size, not op count; and fleet output is byte-identical across shard
and worker counts (pinned by ``tests/fleet/test_shard.py`` and
``benchmarks/bench_fleet_chaos.py``).
"""

from repro.exp import Runner
from repro.fleet.aggregate import (
    REPORT_QUANTILES,
    FleetReport,
    TenantVerdict,
    aggregate_fleet,
)
from repro.fleet.chaos import (
    CAMPAIGNS,
    CHAOS_STREAM,
    HAZARD_SHAPES,
    CampaignSpec,
    campaign_device_plans,
    device_fault_plan,
)
from repro.fleet.shard import (
    DEVICES_PER_SHARD,
    DeviceResult,
    FailedDevice,
    FleetDeviceError,
    FleetShardCell,
    TenantSlice,
    cached_shard_count,
    device_repro_command,
    fleet_cells,
    fleet_manifest,
    load_fleet_manifest,
    plan_shards,
    run_fleet_devices,
    run_fleet_shard_cell,
    simulate_device,
    write_fleet_manifest,
)
from repro.fleet.sketch import (
    DEFAULT_COMPRESSION,
    QuantileSketch,
    merge_sketches,
    rank_error_bound,
    sketch_of,
)
from repro.fleet.spec import (
    TENANT_MIXES,
    FleetSpec,
    TenantSpec,
    default_tenants,
    derive_seed,
    noisy_tenants,
    steady_tenants,
)

__all__ = [
    "CAMPAIGNS",
    "CHAOS_STREAM",
    "CampaignSpec",
    "DEFAULT_COMPRESSION",
    "DEVICES_PER_SHARD",
    "DeviceResult",
    "FailedDevice",
    "FleetDeviceError",
    "FleetReport",
    "FleetShardCell",
    "FleetSpec",
    "HAZARD_SHAPES",
    "QuantileSketch",
    "REPORT_QUANTILES",
    "TENANT_MIXES",
    "TenantSlice",
    "TenantSpec",
    "TenantVerdict",
    "aggregate_fleet",
    "cached_shard_count",
    "campaign_device_plans",
    "default_tenants",
    "derive_seed",
    "device_fault_plan",
    "device_repro_command",
    "fleet_cells",
    "fleet_manifest",
    "load_fleet_manifest",
    "merge_sketches",
    "noisy_tenants",
    "plan_shards",
    "rank_error_bound",
    "run_fleet_devices",
    "run_fleet_shard_cell",
    "simulate_device",
    "sketch_of",
    "steady_tenants",
    "write_fleet_manifest",
]


def run_fleet(spec: FleetSpec, runner: Runner | None = None,
              shards: int | None = None,
              keep_going: bool = False) -> FleetReport:
    """Run a whole fleet and aggregate it — the one-call entry point."""
    return aggregate_fleet(
        spec, run_fleet_devices(spec, runner, shards, keep_going=keep_going))


__all__.append("run_fleet")
