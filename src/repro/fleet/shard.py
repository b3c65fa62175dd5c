"""Shard scheduler: pack fleet devices into experiment cells.

One :class:`~repro.exp.cell.Cell` per device would work, but at fleet
scale the per-cell overheads (submission, pickling a config per device,
one cache entry per device) dominate.  Instead the scheduler packs
contiguous *chunks* of device indexes into :class:`FleetShardCell`
cells:

* shard size is a function of the fleet alone (``DEVICES_PER_SHARD``),
  never of ``--jobs``, so cache keys stay stable whatever the worker
  count;
* workers are reused across shards — all shards go through one
  :meth:`Runner.run` call, so the process pool amortizes interpreter
  spin-up over ``devices / shards`` simulations per task;
* each worker returns O(centroids) sketch payloads per device, not raw
  latency lists (see :mod:`repro.fleet.sketch`);
* a failure inside a shard raises :class:`FleetDeviceError` naming the
  exact device; shards simulate their devices in ascending index order
  and the runner fails fast on the lowest-indexed failing cell, so the
  reported device is the lowest failing one.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path

from repro.exp import Cell, ResultCache, Runner
from repro.exp.hashing import stable_digest
from repro.fleet.sketch import QuantileSketch
from repro.fleet.spec import FleetSpec

#: devices per shard when the caller does not pick a shard count.
#: Chosen so a shard is a few hundred ms of work — big enough to
#: amortize worker dispatch, small enough to load-balance a pool.
DEVICES_PER_SHARD = 32


@dataclass(frozen=True)
class FleetShardCell:
    """One contiguous chunk of device indexes ``[lo, hi)`` of a fleet.

    ``keep_going=True`` isolates per-device failures inside the shard:
    a crashed device becomes a :class:`FailedDevice` entry in the shard
    result instead of aborting the whole cell.  The flag is part of the
    cell config, and therefore of the cache key — fail-fast and
    keep-going results are different outcomes.
    """

    spec: FleetSpec
    lo: int
    hi: int
    keep_going: bool = False

    def __post_init__(self) -> None:
        if not 0 <= self.lo < self.hi <= self.spec.devices:
            raise ValueError(f"bad shard bounds [{self.lo}, {self.hi}) "
                             f"for {self.spec.devices} devices")


@dataclass(frozen=True)
class TenantSlice:
    """One tenant's outcome on one device."""

    tenant: str
    requests: int
    sketch: QuantileSketch
    elapsed_ns: int


@dataclass(frozen=True)
class DeviceResult:
    """One device's complete, transport-sized outcome."""

    index: int
    seed: int
    tenants: tuple[TenantSlice, ...]
    elapsed_ns: int
    host_program_pages: int
    ftl_program_pages: int
    erase_count: int
    host_sectors_written: int
    #: chaos accounting (all zero / empty on a fault-free run, so the
    #: pickled bytes differ from PR 8's only by the defaulted fields).
    degraded_kind: str = ""
    degraded_at_ns: int = -1
    ops_before_degraded: int = -1
    failed_requests: int = 0
    #: the device injector's firing log: (kind, target, op_index).
    fault_events: tuple[tuple[str, int, int], ...] = ()
    #: acknowledged-flushed sectors the durability audit could not
    #: recover (die loss without RAIN is the honest way to lose data).
    sectors_lost: int = 0

    @property
    def degraded(self) -> bool:
        return bool(self.degraded_kind)

    @property
    def faulted(self) -> bool:
        """Did the campaign touch this device at all?"""
        return bool(self.fault_events) or self.degraded

    @property
    def waf(self) -> float:
        if self.host_program_pages == 0:
            return 0.0
        return self.ftl_program_pages / self.host_program_pages


@dataclass(frozen=True)
class FailedDevice:
    """A device whose simulation crashed, kept in the report by
    ``--keep-going`` instead of aborting the fleet."""

    index: int
    seed: int
    error: str
    #: one-line standalone repro command for this exact device.
    repro: str = ""


def device_digest(spec: FleetSpec, device_index: int) -> str:
    """Content address of one device's simulation (spec + index)."""
    return stable_digest(("repro.fleet.device", spec, device_index))


def device_repro_command(spec: FleetSpec, device_index: int) -> str:
    """Best-effort one-liner rerunning *device_index* standalone.

    Exact for CLI-built specs (built-in mixes and campaigns); a spec
    with hand-rolled tenants reruns via ``simulate_device`` instead.
    """
    parts = [
        "repro-ssd fleet",
        f"--preset {spec.preset}", f"--scale {spec.scale}",
        f"--seed {spec.seed}", f"--devices {spec.devices}",
    ]
    campaign = spec.campaign
    if campaign is not None:
        parts.append(f"--campaign {campaign.name} --afr {campaign.afr:g}")
    parts.append(f"--only {device_index} --jobs 1 --no-cache")
    return " ".join(parts)


class FleetDeviceError(RuntimeError):
    """A device simulation failed; carries the exact device identity,
    its content-address hash, and a one-line repro command."""

    def __init__(self, device_index: int, cause: BaseException,
                 spec: FleetSpec | None = None) -> None:
        self.device_index = device_index
        message = (f"fleet device #{device_index} failed: "
                   f"{type(cause).__name__}: {cause}")
        if spec is not None:
            try:
                message += f"\n  device key {device_digest(spec, device_index)[:12]}"
            except TypeError:
                pass  # an unhashable spec still gets the plain message
            message += f"\n  rerun standalone: {device_repro_command(spec, device_index)}"
        super().__init__(message)


def simulate_device(spec: FleetSpec, device_index: int) -> DeviceResult:
    """Simulate one device of the fleet (pure function of spec+index).

    With an active campaign, the device's derived
    :class:`~repro.faults.plan.FaultPlan` rides in as a planned
    injector; a device that degrades mid-run (read-only, die-offline
    cascade, power cut) yields a partial result with its
    time-to-degraded and failure accounting, and the PR 4 durability
    oracle audits what acknowledged-flushed data survived recovery.
    An empty plan — every device at AFR 0 — takes the literal
    injector-free code path, which is what pins zero-AFR byte-identity.
    """
    from repro.ssd.timed import TimedSSD
    from repro.workloads.engine import run_timed

    config = spec.device_config()
    injector = None
    campaign = spec.campaign
    if campaign is not None and campaign.active:
        from repro.faults.injection import PlannedFaultInjector
        from repro.fleet.chaos import device_fault_plan

        plan = device_fault_plan(spec, device_index)
        if plan.specs:
            injector = PlannedFaultInjector(plan, config.geometry)
    device = TimedSSD(config, injector=injector)
    sources = spec.device_sources(device_index, device.num_sectors)
    result = run_timed(device, sources)
    slices = []
    failed_requests = 0
    for source in sources:
        outcome = result.jobs[source.name]
        failed_requests += outcome.failed_requests
        sketch = QuantileSketch(spec.compression)
        if outcome.latencies_us is not None:
            sketch.extend(outcome.latencies_us)
        slices.append(TenantSlice(
            tenant=source.name,
            requests=outcome.requests,
            sketch=sketch.compact(),  # O(centroids) before transport
            elapsed_ns=outcome.elapsed_ns,
        ))
    fault_events: tuple = ()
    sectors_lost = 0
    if injector is not None:
        # Snapshot the firing log before the durability audit: recovery
        # reads consult the injector and must not pollute the run's log.
        fault_events = tuple(injector.log)
        sectors_lost = _audit_durability(device, result, injector)
    delta = result.smart_delta
    return DeviceResult(
        index=device_index,
        seed=spec.device_seed(device_index),
        tenants=tuple(slices),
        elapsed_ns=result.elapsed_ns,
        host_program_pages=delta.host_program_pages,
        ftl_program_pages=delta.ftl_program_pages,
        erase_count=delta.erase_count,
        host_sectors_written=delta.host_sectors_written,
        degraded_kind=result.degraded_kind,
        degraded_at_ns=result.degraded_at_ns,
        ops_before_degraded=result.ops_before_degraded,
        failed_requests=failed_requests,
        fault_events=fault_events,
        sectors_lost=sectors_lost,
    )


def _audit_durability(device, result, injector) -> int:
    """PR 4's durability oracle at fleet scale: how many acknowledged
    sectors mapped on this device did recovery fail to bring back?

    The live mapped set (L2P plus the pSLC index) is compared against
    the set recovered by an OOB scan of a flash snapshot.  Power-cut
    devices are audited as-is (RAM contents are gone — and were never
    flush-acknowledged); every other device drains its cache first.
    Dies the campaign took offline stay dead across the reboot — an
    unprotected die loss is real data loss — while transient
    program/erase/read faults do not replay into the scan.
    """
    import numpy as np

    from repro.fleet.chaos import OfflineDieInjector
    from repro.ssd.mapping import UNMAPPED
    from repro.ssd.recovery import recover_ftl

    ftl = device.ftl
    if result.degraded_kind != "power_cut":
        try:
            device.flush()
        except Exception:
            pass  # a drive that cannot drain loses nothing acknowledged
    live = {int(l) for l in np.nonzero(ftl.mapping.l2p != UNMAPPED)[0]}
    live |= set(ftl.pslc.index)
    recovery_injector = None
    if injector.offline_dies:
        recovery_injector = OfflineDieInjector(injector.offline_dies,
                                               device.geometry)
    recovered, _ = recover_ftl(device.config, ftl.nand.clone(),
                               injector=recovery_injector)
    mapped = {int(l) for l in np.nonzero(recovered.mapping.l2p != UNMAPPED)[0]}
    mapped |= set(recovered.pslc.index)
    return len(live - mapped)


def run_fleet_shard_cell(
    cell: FleetShardCell, seed: int = 0
) -> list[DeviceResult | FailedDevice]:
    """Worker entry point: simulate the shard's devices in index order.

    Ascending order matters for fail-fast reporting: the first failure
    raised is the shard's lowest device index, and the runner picks the
    lowest-indexed failing *cell*, so the error the study surfaces
    names the lowest failing device of the whole fleet.  Keep-going
    shards never raise: crashed devices ride back as
    :class:`FailedDevice` entries in index position.
    """
    results: list[DeviceResult | FailedDevice] = []
    for device_index in range(cell.lo, cell.hi):
        try:
            results.append(simulate_device(cell.spec, device_index))
        except Exception as exc:
            if not cell.keep_going:
                raise FleetDeviceError(device_index, exc,
                                       spec=cell.spec) from exc
            results.append(FailedDevice(
                index=device_index,
                seed=cell.spec.device_seed(device_index),
                error=f"{type(exc).__name__}: {exc}",
                repro=device_repro_command(cell.spec, device_index),
            ))
    return results


def plan_shards(devices: int, shards: int | None = None) -> list[tuple[int, int]]:
    """Split ``range(devices)`` into contiguous, balanced shards.

    ``shards=None`` targets :data:`DEVICES_PER_SHARD` devices per shard
    — a pure function of the fleet size, so the shard plan (and with it
    every cache key) is independent of worker count.  Shard sizes never
    differ by more than one device.
    """
    if devices < 1:
        raise ValueError("devices must be >= 1")
    if shards is None:
        shards = -(-devices // DEVICES_PER_SHARD)
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    shards = min(shards, devices)
    base, extra = divmod(devices, shards)
    bounds = []
    lo = 0
    for index in range(shards):
        hi = lo + base + (1 if index < extra else 0)
        bounds.append((lo, hi))
        lo = hi
    return bounds


def fleet_cells(spec: FleetSpec, shards: int | None = None,
                keep_going: bool = False) -> list[Cell]:
    """The fleet as a list of cacheable experiment cells."""
    return [
        Cell(
            run_fleet_shard_cell,
            FleetShardCell(spec, lo, hi, keep_going=keep_going),
            seed=spec.seed,
            label=f"fleet:{spec.preset}:[{lo},{hi})",
            repro=device_repro_command(spec, lo).replace(
                f"--only {lo} ", f"--only {lo}:{hi} "),
        )
        for lo, hi in plan_shards(spec.devices, shards)
    ]


def run_fleet_devices(
    spec: FleetSpec, runner: Runner | None = None,
    shards: int | None = None, keep_going: bool = False,
) -> list[DeviceResult | FailedDevice]:
    """Run the whole fleet, returning per-device results in index order.

    ``keep_going`` composes two isolation layers: shard cells catch
    per-device crashes (:class:`FailedDevice` entries), and a
    keep-going / watchdog runner that quarantines a whole cell yields a
    ``None`` shard result — every device of that shard is reported
    failed rather than silently missing.
    """
    cells = fleet_cells(spec, shards, keep_going=keep_going)
    shard_results = (runner or Runner(jobs=1)).run(cells)
    devices: list[DeviceResult | FailedDevice] = []
    for cell, shard in zip(cells, shard_results):
        if shard is None:
            bounds = cell.config
            devices.extend(
                FailedDevice(
                    index=i,
                    seed=spec.device_seed(i),
                    error="shard cell quarantined by the runner "
                          "(watchdog timeout or isolated failure)",
                    repro=device_repro_command(spec, i),
                )
                for i in range(bounds.lo, bounds.hi)
            )
        else:
            devices.extend(shard)
    return devices


# ----------------------------------------------------------------------
# Run manifests (the --resume handshake)
# ----------------------------------------------------------------------


def fleet_manifest(spec: FleetSpec, cache: ResultCache,
                   shards: int | None = None,
                   keep_going: bool = False) -> dict:
    """The run's identity card: one entry per shard cell with its
    content-address key.  Everything is derived (spec digest, cell
    keys), so writing it before a run and reading it after an interrupt
    agree byte-for-byte."""
    cells = fleet_cells(spec, shards, keep_going=keep_going)
    return {
        "kind": "repro-ssd fleet manifest",
        "digest": stable_digest(
            ("repro.fleet.manifest", spec, shards, keep_going, cache.salt)),
        "salt": cache.salt,
        "devices": spec.devices,
        "cells": [
            {"label": cell.label, "key": cell.key(cache.salt),
             "lo": cell.config.lo, "hi": cell.config.hi}
            for cell in cells
        ],
    }


def manifest_path(cache: ResultCache, manifest: dict) -> Path:
    return cache.root / "fleet-manifests" / f"{manifest['digest'][:16]}.json"


def write_fleet_manifest(spec: FleetSpec, cache: ResultCache,
                         shards: int | None = None,
                         keep_going: bool = False) -> Path:
    """Persist the run manifest (atomically) before executing shards."""
    manifest = fleet_manifest(spec, cache, shards, keep_going)
    path = manifest_path(cache, manifest)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(manifest, fh, indent=1)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return path


def load_fleet_manifest(spec: FleetSpec, cache: ResultCache,
                        shards: int | None = None,
                        keep_going: bool = False) -> dict | None:
    """The previously written manifest for this exact run, or ``None``."""
    manifest = fleet_manifest(spec, cache, shards, keep_going)
    path = manifest_path(cache, manifest)
    try:
        with open(path) as fh:
            stored = json.load(fh)
    except (OSError, ValueError):
        return None
    if stored.get("digest") != manifest["digest"]:
        return None  # foreign or stale file under our name
    return stored


def cached_shard_count(cache: ResultCache, manifest: dict) -> int:
    """How many of the manifest's shard results already sit in the
    cache — the shards ``--resume`` will skip."""
    return sum(
        1 for entry in manifest["cells"]
        if cache.path_for(entry["key"]).exists()
    )
