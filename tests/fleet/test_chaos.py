"""Fleet fault campaigns: deterministic plans, degraded-mode fleet
semantics, durability accounting, and the result cache as the record
of a fleet run."""

import pickle
from dataclasses import replace

import pytest

from repro.exp import ResultCache, Runner, code_salt
from repro.faults.plan import (
    DIE_OFFLINE,
    ERASE_FAIL,
    POWER_CUT,
    PROGRAM_FAIL,
    UNCORRECTABLE_READ,
)
from repro.fleet import (
    CAMPAIGNS,
    CampaignSpec,
    DeviceResult,
    FailedDevice,
    FleetDeviceError,
    FleetShardCell,
    FleetSpec,
    aggregate_fleet,
    campaign_device_plans,
    default_tenants,
    device_fault_plan,
    fleet_cells,
    run_fleet_devices,
    run_fleet_shard_cell,
    simulate_device,
)


def small_spec(campaign=None, devices=8, seed=7, io_count=50) -> FleetSpec:
    return FleetSpec(tenants=default_tenants(io_count=io_count),
                     devices=devices, preset="tiny", seed=seed,
                     campaign=campaign)


def forced(kind: str, afr: float = 50.0, **kwargs) -> CampaignSpec:
    """A campaign where (nearly) every device fails, with one kind."""
    return replace(CAMPAIGNS["default"], afr=afr, mix=((kind, 1.0),), **kwargs)


class TestCampaignSpec:
    def test_validation(self):
        for afr in (-0.1, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="afr"):
                CampaignSpec(afr=afr)
        for duty_days in (0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="duty_days"):
                CampaignSpec(duty_days=duty_days)
        with pytest.raises(ValueError):
            CampaignSpec(hazard="sideways")
        with pytest.raises(ValueError):
            CampaignSpec(mix=(("gamma_ray", 1.0),))
        with pytest.raises(ValueError):
            CampaignSpec(mix=((PROGRAM_FAIL, 0.0),))
        with pytest.raises(ValueError):
            CampaignSpec(spare_blocks_min=0)

    def test_zero_afr_is_inactive(self):
        assert not replace(CAMPAIGNS["default"], afr=0.0).active
        assert CAMPAIGNS["default"].active

    def test_failure_probability_monotone_in_afr(self):
        probabilities = [replace(CAMPAIGNS["default"], afr=a)
                         .failure_probability() for a in (0.1, 1.0, 10.0)]
        assert probabilities == sorted(probabilities)
        assert 0 < probabilities[0] < probabilities[-1] < 1

    def test_named_campaigns_are_valid(self):
        for name, campaign in CAMPAIGNS.items():
            assert campaign.name == name
            assert campaign.active

    def test_spec_rejects_non_campaign(self):
        with pytest.raises(ValueError, match="CampaignSpec"):
            FleetSpec(tenants=default_tenants(), campaign="default")


class TestDeviceFaultPlan:
    def test_no_campaign_plans_nothing(self):
        spec = small_spec()
        assert device_fault_plan(spec, 0).specs == ()

    def test_zero_afr_plans_nothing(self):
        spec = small_spec(replace(CAMPAIGNS["default"], afr=0.0))
        for index in range(spec.devices):
            assert device_fault_plan(spec, index).specs == ()

    def test_pure_function_of_identity(self):
        spec = small_spec(CAMPAIGNS["default"], devices=64)
        wider = replace(spec, devices=256)
        for index in range(64):
            assert device_fault_plan(spec, index) == \
                device_fault_plan(wider, index)

    def test_forced_mix_draws_that_kind(self):
        for kind in (PROGRAM_FAIL, ERASE_FAIL, UNCORRECTABLE_READ,
                     DIE_OFFLINE, POWER_CUT):
            spec = small_spec(forced(kind))
            plans = campaign_device_plans(spec)
            assert plans, kind
            assert all(p.specs[0].kind == kind for p in plans.values())

    def test_hazard_shapes_order_onset(self):
        # Infant mortality arms earlier in life than wear-out.
        onsets = {}
        for hazard in ("infant", "constant", "wearout"):
            spec = small_spec(forced(POWER_CUT, hazard=hazard), devices=64)
            plans = campaign_device_plans(spec)
            onsets[hazard] = sum(p.specs[0].at_op for p in plans.values()) \
                / len(plans)
        assert onsets["infant"] < onsets["constant"] < onsets["wearout"]

    def test_die_offline_picks_a_real_die(self):
        spec = small_spec(forced(DIE_OFFLINE), devices=16)
        dies = spec.device_config().geometry.dies_total
        for plan in campaign_device_plans(spec).values():
            assert 0 <= plan.specs[0].die < dies

    def test_campaign_config_lowers_spare_floor(self):
        spec = small_spec(CAMPAIGNS["default"])
        assert spec.device_config().spare_blocks_min == \
            CAMPAIGNS["default"].spare_blocks_min
        assert small_spec().device_config().spare_blocks_min == 0


class TestZeroAfrIdentity:
    def test_zero_afr_matches_campaign_free_bytes(self):
        base = small_spec()
        zero = small_spec(replace(CAMPAIGNS["default"], afr=0.0))
        plain = run_fleet_devices(base, None, shards=2)
        chaos = run_fleet_devices(zero, None, shards=2)
        assert [pickle.dumps(d) for d in plain] == \
            [pickle.dumps(d) for d in chaos]
        assert aggregate_fleet(base, plain).slo_table() == \
            aggregate_fleet(zero, chaos).slo_table()


class TestCampaignReproducibility:
    def test_jobs_and_shards_invisible(self):
        spec = small_spec(CAMPAIGNS["default"], devices=12)
        reference = run_fleet_devices(spec, None, shards=1)
        assert any(d.faulted for d in reference) or True  # layout only
        for runner, shards in ((Runner(jobs=2, cache=None), 1),
                               (None, 4), (Runner(jobs=2, cache=None), 4)):
            devices = run_fleet_devices(spec, runner, shards=shards)
            assert [pickle.dumps(d) for d in devices] == \
                [pickle.dumps(d) for d in reference]


class TestDegradedDevices:
    def test_program_fail_storm_goes_read_only(self):
        spec = small_spec(forced(PROGRAM_FAIL), devices=6)
        results = run_fleet_devices(spec, None, shards=1)
        degraded = [d for d in results if d.degraded]
        assert degraded
        for device in degraded:
            assert device.degraded_kind == "read_only"
            assert device.degraded_at_ns >= 0
            assert device.ops_before_degraded >= 0
            assert device.failed_requests > 0

    def test_power_cut_partial_result(self):
        spec = small_spec(forced(POWER_CUT), devices=4)
        for index in range(spec.devices):
            device = simulate_device(spec, index)
            assert device.degraded_kind == "power_cut"
            assert device.failed_requests > 0
            # Acked data survives a power cut: the cache was never
            # flush-acknowledged, so nothing acknowledged is lost.
            assert device.sectors_lost == 0

    def test_firing_log_matches_plans(self):
        spec = small_spec(forced(PROGRAM_FAIL), devices=10)
        plans = campaign_device_plans(spec)
        results = run_fleet_devices(spec, None, shards=2)
        fired = {d.index for d in results if d.fault_events}
        assert fired == set(plans)
        for device in results:
            for kind, _, _ in device.fault_events:
                assert kind == PROGRAM_FAIL


class TestAggregateChaos:
    def test_availability_and_splits(self):
        spec = small_spec(forced(POWER_CUT), devices=6, io_count=40)
        report = aggregate_fleet(spec, run_fleet_devices(spec, None))
        assert 0 < report.availability < 1
        assert report.devices_degraded == 6
        assert report.faulted_sketch is not None
        assert report.healthy_sketch is None  # everyone faulted
        headers, rows = report.chaos_table()
        assert rows[0][0] == "healthy" and rows[1][0] == "faulted"

    def test_fault_free_report_keeps_defaults(self):
        spec = small_spec()
        report = aggregate_fleet(spec, run_fleet_devices(spec, None))
        assert report.availability == 1.0
        assert report.healthy_sketch is None
        assert report.durability_ok

    def test_die_loss_fails_durability(self):
        spec = small_spec(forced(DIE_OFFLINE, afr=200.0), devices=8,
                          io_count=80)
        report = aggregate_fleet(spec, run_fleet_devices(spec, None))
        assert report.sectors_lost == sum(
            d.sectors_lost for d in run_fleet_devices(spec, None))
        if report.sectors_lost:
            assert not report.durability_ok

    def test_failed_devices_fold_into_report(self):
        spec = small_spec()
        devices = list(run_fleet_devices(spec, None))
        devices[3] = FailedDevice(index=3, seed=spec.device_seed(3),
                                  error="boom")
        report = aggregate_fleet(spec, devices)
        assert report.devices == spec.devices
        assert len(report.failed_devices) == 1
        assert not report.durability_ok
        assert report.availability < 1.0


class TestKeepGoingShards:
    def test_crashed_device_isolated(self, monkeypatch):
        import repro.fleet.shard as shard_module

        spec = small_spec(devices=4)
        real = shard_module.simulate_device

        def flaky(spec_, index):
            if index == 2:
                raise RuntimeError("injected crash")
            return real(spec_, index)

        monkeypatch.setattr(shard_module, "simulate_device", flaky)
        cell = FleetShardCell(spec, 0, 4, keep_going=True)
        results = run_fleet_shard_cell(cell)
        assert isinstance(results[2], FailedDevice)
        assert "injected crash" in results[2].error
        assert "--only 2" in results[2].repro
        assert all(isinstance(r, DeviceResult)
                   for i, r in enumerate(results) if i != 2)

    def test_fail_fast_names_device(self, monkeypatch):
        import repro.fleet.shard as shard_module

        spec = small_spec(devices=4)
        monkeypatch.setattr(
            shard_module, "simulate_device",
            lambda s, i: (_ for _ in ()).throw(RuntimeError("boom")))
        with pytest.raises(FleetDeviceError) as excinfo:
            run_fleet_shard_cell(FleetShardCell(spec, 0, 4))
        message = str(excinfo.value)
        assert "device #0" in message
        assert "device key" in message
        assert "rerun standalone" in message and "--only 0" in message

    def test_keep_going_is_part_of_the_cache_key(self):
        spec = small_spec()
        [plain] = fleet_cells(spec, shards=1)
        [isolating] = fleet_cells(spec, shards=1, keep_going=True)
        assert plain.key("s") != isolating.key("s")


class TestManifest:
    """The result cache is the one record of a fleet run: it knows which
    shards a run banked, and a re-run executes none of them."""

    def test_roundtrip_and_cached_counts(self, tmp_path):
        spec = small_spec(devices=4, io_count=20)
        cache = ResultCache(tmp_path)
        cells = fleet_cells(spec, shards=2)
        assert len(cells) == 2
        assert not any(cache.get(c.key(code_salt()))[0] for c in cells)

        first = Runner(jobs=1, cache=cache)
        devices = run_fleet_devices(spec, first, shards=2)
        assert (first.stats.executed, first.stats.cache_hits) == (2, 0)
        assert all(cache.get(c.key(code_salt()))[0] for c in cells)

        rerun = Runner(jobs=1, cache=cache)
        again = run_fleet_devices(spec, rerun, shards=2)
        assert [pickle.dumps(d) for d in again] == \
            [pickle.dumps(d) for d in devices]
        assert (rerun.stats.executed, rerun.stats.cache_hits) == (0, 2)

    def test_manifest_is_run_specific(self, tmp_path):
        cache = ResultCache(tmp_path)
        run_fleet_devices(small_spec(devices=4, io_count=20),
                          Runner(jobs=1, cache=cache), shards=2)
        for spec, shards in ((small_spec(devices=4, io_count=20), 4),
                             (small_spec(devices=6, io_count=20), 2)):
            assert not any(cache.get(c.key(code_salt()))[0]
                           for c in fleet_cells(spec, shards=shards))
