"""Fleet and tenant specifications.

A :class:`FleetSpec` describes thousands of identical SSDs, each
serving the same multi-tenant traffic mix from different random
streams: per-tenant open-loop arrival processes (Poisson rate mixes,
diurnal load curves, noisy-neighbor bursts) on the existing
:class:`~repro.workloads.spec.JobSpec` path, with tenant lifetimes kept
apart inside the device by the stream-separating ``hotcold`` allocation
policy.

Determinism is the load-bearing property: every per-device RNG seed is
derived by hashing ``(fleet seed, device index, tenant name)`` — never
from shard or worker layout — so a device's simulation is a pure
function of the fleet spec and its index.  That is what makes
``--shards 1`` and ``--shards 8`` byte-identical, and what keeps the
content-addressed result cache valid when the shard plan changes.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

from repro.ssd.config import SsdConfig
from repro.ssd.presets import PRESETS
from repro.workloads.patterns import Region
from repro.workloads.spec import (
    ARRIVAL_MODES,
    RW_MODES,
    JobSpec,
    check_arrival_shape,
)

#: derivation-domain tag so fleet seeds can never collide with another
#: subsystem hashing similar tuples.
_SEED_DOMAIN = "repro.fleet.seed"


def derive_seed(*parts) -> int:
    """Deterministic 63-bit seed from a tuple of identity parts.

    SHA-256 over the stringified parts: stable across processes,
    platforms, and ``PYTHONHASHSEED``, and independent of everything
    except the identities themselves (in particular: shard layout).
    """
    text = _SEED_DOMAIN + ":" + ":".join(str(p) for p in parts)
    digest = hashlib.sha256(text.encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


@dataclass(frozen=True)
class TenantSpec:
    """One tenant's traffic on every device of the fleet.

    ``rate_iops`` is the tenant's open-loop arrival rate per device;
    ``io_count`` its requests per device.  ``share`` weights how much
    of each device's LBA space the tenant owns (tenants get private,
    contiguous regions, Fig 4b style).  ``slo_p99_us`` /
    ``slo_p999_us`` are the fleet-level SLO thresholds checked against
    the *merged* distribution across all devices (0 disables that
    threshold).
    """

    name: str
    rate_iops: float
    rw: str = "randwrite"
    bs_sectors: int = 1
    io_count: int = 150
    arrival: str = "poisson"
    pattern: str | None = None
    pattern_kwargs: dict = field(default_factory=dict)
    read_fraction: float = 0.5
    share: float = 1.0
    #: recorded block trace to replay instead of a synthetic stream: a
    #: path to a ``BlockTrace`` CSV.  The trace replays open-loop at its
    #: recorded timeline (scaled by ``time_scale``), relocated into the
    #: tenant's private share region; the synthetic knobs (``rw``,
    #: ``arrival``, ``rate_iops``, ...) are ignored.
    trace: str | None = None
    time_scale: float = 1.0
    #: diurnal/bursty shape knobs, forwarded to the JobSpec.
    diurnal_amplitude: float = 0.5
    diurnal_period_s: float = 0.01
    burst_multiplier: float = 8.0
    burst_len: int = 32
    burst_fraction: float = 0.05
    #: fleet-level SLO thresholds in microseconds (0 = unconstrained).
    slo_p99_us: float = 0.0
    slo_p999_us: float = 0.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("tenant needs a name")
        if self.rw not in RW_MODES:
            raise ValueError(f"unknown rw mode {self.rw!r}; known: {RW_MODES}")
        if self.arrival not in ARRIVAL_MODES:
            raise ValueError(
                f"unknown arrival mode {self.arrival!r}; known: {ARRIVAL_MODES}")
        # ``not 0 < x < inf`` rejects NaN too.
        if self.trace is None and not 0 < self.rate_iops < math.inf:
            raise ValueError("rate_iops must be finite and > 0 (tenants "
                             f"are open-loop), got {self.rate_iops}")
        if not 0 < self.time_scale < math.inf:
            raise ValueError(
                f"time_scale must be finite and > 0, got {self.time_scale}")
        if self.io_count < 1:
            raise ValueError("io_count must be >= 1")
        if not 0 < self.share < math.inf:
            raise ValueError(f"share must be finite and > 0, got {self.share}")
        for slo in (self.slo_p99_us, self.slo_p999_us):
            if not 0 <= slo < math.inf:
                raise ValueError(
                    f"SLO thresholds must be finite and >= 0, got {slo}")
        check_arrival_shape(self)


@dataclass(frozen=True)
class FleetSpec:
    """A fleet of identical devices serving a shared tenant mix."""

    tenants: tuple[TenantSpec, ...]
    devices: int = 64
    preset: str = "tiny"
    scale: int = 1
    seed: int = 42
    #: allocation knob applied to every device; ``hotcold`` routes each
    #: tenant's first-touch vs rewrite traffic to separate streams, the
    #: fleet's tenant-isolation story.
    allocation: str = "hotcold"
    #: sketch size parameter for per-(device, tenant) latency sketches.
    compression: int = 128
    #: optional fault campaign (:class:`~repro.fleet.chaos.CampaignSpec`);
    #: ``None`` — and a zero-AFR campaign — run the fault-free path.
    campaign: "CampaignSpec | None" = None

    def __post_init__(self) -> None:
        if not self.tenants:
            raise ValueError("fleet needs at least one tenant")
        names = [t.name for t in self.tenants]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate tenant names: {names}")
        if self.devices < 1:
            raise ValueError("devices must be >= 1")
        if not self.scale >= 1:
            # The presets would clamp it to 1, under another digest.
            raise ValueError(f"scale must be >= 1, got {self.scale}")
        if self.preset not in PRESETS:
            known = ", ".join(sorted(PRESETS))
            raise ValueError(f"unknown preset {self.preset!r}; known: {known}")
        if self.campaign is not None:
            from repro.fleet.chaos import CampaignSpec
            if not isinstance(self.campaign, CampaignSpec):
                raise ValueError("campaign must be a CampaignSpec or None")

    def device_config(self) -> SsdConfig:
        """The (shared, immutable) per-device configuration.

        An *active* campaign lowers ``spare_blocks_min`` into the config
        so retirement storms reach the FTL's read-only degraded mode;
        without one — or at AFR 0 — the config is byte-identical to the
        campaign-free fleet's (the zero-AFR identity guarantee)."""
        config = PRESETS[self.preset](scale=self.scale).with_changes(
            allocation_scheme=self.allocation)
        if self.campaign is not None and self.campaign.active:
            config = config.with_changes(
                spare_blocks_min=self.campaign.spare_blocks_min)
        return config

    def device_seed(self, device_index: int) -> int:
        """Root seed of one device (stable across shard plans)."""
        return derive_seed(self.seed, device_index)

    def tenant_seed(self, device_index: int, tenant: str) -> int:
        """Seed of one tenant's job on one device."""
        return derive_seed(self.seed, device_index, tenant)

    def tenant_regions(self, num_sectors: int) -> list[tuple[TenantSpec, int, int]]:
        """Contiguous private ``(tenant, start, length)`` LBA regions
        sized by ``share`` (the last tenant absorbs rounding slack)."""
        total_share = sum(t.share for t in self.tenants)
        regions: list[tuple[TenantSpec, int, int]] = []
        start = 0
        for position, tenant in enumerate(self.tenants):
            if position == len(self.tenants) - 1:
                end = num_sectors  # last tenant absorbs rounding slack
            else:
                end = start + int(num_sectors * (tenant.share / total_share))
            regions.append((tenant, start, max(end - start, tenant.bs_sectors)))
            start = end
        return regions

    def _tenant_job(self, tenant: TenantSpec, device_index: int,
                    start: int, length: int) -> JobSpec:
        return JobSpec(
            name=tenant.name,
            rw=tenant.rw,
            region=Region(start, length),
            bs_sectors=tenant.bs_sectors,
            io_count=tenant.io_count,
            read_fraction=tenant.read_fraction,
            pattern=tenant.pattern,
            pattern_kwargs=dict(tenant.pattern_kwargs),
            seed=self.tenant_seed(device_index, tenant.name),
            submission="open",
            rate_iops=tenant.rate_iops,
            arrival=tenant.arrival,
            diurnal_amplitude=tenant.diurnal_amplitude,
            diurnal_period_s=tenant.diurnal_period_s,
            burst_multiplier=tenant.burst_multiplier,
            burst_len=tenant.burst_len,
            burst_fraction=tenant.burst_fraction,
        )

    def device_sources(self, device_index: int, num_sectors: int):
        """The per-tenant request sources device *device_index* runs.

        Tenants get contiguous private LBA regions sized by ``share``;
        every job seed comes from :meth:`tenant_seed`, so the sources
        are a pure function of (spec, device index, device capacity).
        Synthetic tenants wrap their ``JobSpec`` into
        :class:`~repro.workloads.source.JobSource`, trace tenants become
        :class:`~repro.workloads.source.TraceSource` replays relocated
        into their share region.  Trace contents are identical across
        devices — determinism rests on the trace file plus the spec.
        """
        from repro.workloads.source import JobSource, TraceSource
        from repro.workloads.trace import BlockTrace

        sources = []
        for tenant, start, length in self.tenant_regions(num_sectors):
            if tenant.trace is None:
                sources.append(JobSource(
                    self._tenant_job(tenant, device_index, start, length)))
            else:
                trace = BlockTrace.load(tenant.trace)
                sources.append(TraceSource(
                    trace, name=tenant.name, time_scale=tenant.time_scale,
                    lba_offset=start, lba_modulo=length))
        return sources


# ----------------------------------------------------------------------
# Built-in tenant mixes (the CLI's --mix choices)
# ----------------------------------------------------------------------


def default_tenants(rate_scale: float = 1.0, io_count: int = 150) -> tuple[TenantSpec, ...]:
    """The standard three-tenant mix: a latency-sensitive OLTP tenant,
    a diurnal analytics tenant, and a bursty backup tenant sharing
    every device.

    Rates are calibrated to the ``tiny`` preset's capacity (~550 IOPS
    sustained) so the mix runs at moderate utilization and passes its
    SLOs; crank ``rate_scale`` past ~2 and queueing delay takes over.
    """
    return (
        TenantSpec(
            name="oltp",
            rate_iops=240.0 * rate_scale,
            rw="randwrite",
            bs_sectors=1,
            io_count=io_count,
            arrival="poisson",
            share=1.0,
            slo_p99_us=2_000.0,
            slo_p999_us=8_000.0,
        ),
        TenantSpec(
            name="analytics",
            rate_iops=120.0 * rate_scale,
            rw="randrw",
            bs_sectors=2,
            io_count=io_count,
            arrival="diurnal",
            diurnal_amplitude=0.6,
            diurnal_period_s=0.01,
            read_fraction=0.7,
            share=1.0,
            slo_p99_us=4_000.0,
            slo_p999_us=0.0,
        ),
        TenantSpec(
            name="backup",
            rate_iops=80.0 * rate_scale,
            rw="write",
            bs_sectors=2,
            io_count=io_count,
            arrival="bursty",
            burst_multiplier=12.0,
            burst_len=48,
            burst_fraction=0.08,
            share=1.0,
            slo_p99_us=0.0,
            slo_p999_us=0.0,
        ),
    )


def steady_tenants(rate_scale: float = 1.0, io_count: int = 150) -> tuple[TenantSpec, ...]:
    """Two well-behaved Poisson tenants — the no-noisy-neighbor baseline."""
    return (
        TenantSpec(name="oltp", rate_iops=240.0 * rate_scale,
                   rw="randwrite", io_count=io_count, arrival="poisson",
                   slo_p99_us=2_000.0, slo_p999_us=8_000.0),
        TenantSpec(name="batch", rate_iops=100.0 * rate_scale,
                   rw="randrw", bs_sectors=2, io_count=io_count,
                   arrival="poisson", read_fraction=0.5,
                   slo_p99_us=4_000.0),
    )


def noisy_tenants(rate_scale: float = 1.0, io_count: int = 150) -> tuple[TenantSpec, ...]:
    """The default mix with an aggressive neighbor: heavier bursts at
    4x the multiplier — the mix that should trip SLO verdicts first."""
    quiet = default_tenants(rate_scale, io_count)
    loud = TenantSpec(
        name="backup",
        rate_iops=160.0 * rate_scale,
        rw="write",
        bs_sectors=4,
        io_count=io_count,
        arrival="bursty",
        burst_multiplier=32.0,
        burst_len=96,
        burst_fraction=0.25,
        share=1.0,
    )
    return (quiet[0], quiet[1], loud)


#: named mixes for the CLI.
TENANT_MIXES = {
    "default": default_tenants,
    "steady": steady_tenants,
    "noisy": noisy_tenants,
}
