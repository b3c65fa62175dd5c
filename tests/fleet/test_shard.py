"""Shard scheduler: planning, determinism across shard plans, fail-fast."""

import pickle

import pytest

from repro.exp import CellError, Runner
from repro.fleet import shard as shard_mod
from repro.fleet.shard import (
    DEVICES_PER_SHARD,
    FleetDeviceError,
    FleetShardCell,
    fleet_cells,
    plan_shards,
    run_fleet_devices,
    run_fleet_shard_cell,
    simulate_device,
)
from repro.fleet.spec import FleetSpec, TenantSpec, default_tenants


def small_fleet(devices: int = 8, **overrides) -> FleetSpec:
    defaults = dict(tenants=default_tenants(io_count=20), devices=devices,
                    preset="tiny", seed=11)
    defaults.update(overrides)
    return FleetSpec(**defaults)


class TestPlanShards:
    def test_default_targets_devices_per_shard(self):
        bounds = plan_shards(100)
        assert len(bounds) == -(-100 // DEVICES_PER_SHARD)

    def test_covers_range_contiguously(self):
        bounds = plan_shards(100, shards=7)
        assert bounds[0][0] == 0
        assert bounds[-1][1] == 100
        for (_, hi), (lo, _) in zip(bounds, bounds[1:]):
            assert hi == lo

    def test_balanced_within_one(self):
        sizes = {hi - lo for lo, hi in plan_shards(100, shards=7)}
        assert max(sizes) - min(sizes) <= 1

    def test_clamps_shards_to_devices(self):
        assert len(plan_shards(3, shards=16)) == 3

    @pytest.mark.parametrize("devices,shards", [(0, None), (4, 0), (4, -1)])
    def test_rejects_bad_counts(self, devices, shards):
        with pytest.raises(ValueError):
            plan_shards(devices, shards)


class TestShardCell:
    def test_rejects_bad_bounds(self):
        spec = small_fleet(devices=4)
        for lo, hi in [(-1, 2), (2, 2), (3, 1), (0, 5)]:
            with pytest.raises(ValueError, match="bad shard bounds"):
                FleetShardCell(spec, lo, hi)

    def test_cells_carry_fleet_seed_and_label(self):
        spec = small_fleet(devices=8)
        cells = fleet_cells(spec, shards=2)
        assert [c.config.lo for c in cells] == [0, 4]
        assert all(c.seed == spec.seed for c in cells)
        assert cells[0].label == "fleet:tiny:[0,4)"

    def test_shard_plan_ignores_worker_count(self):
        # Cache keys are built from cell configs; the plan must be a pure
        # function of the fleet, never of --jobs.
        spec = small_fleet(devices=70)
        keys = [c.key("s") for c in fleet_cells(spec)]
        assert keys == [c.key("s") for c in fleet_cells(spec)]
        assert len(keys) == -(-70 // DEVICES_PER_SHARD)


class TestSimulateDevice:
    def test_pure_function_of_spec_and_index(self):
        spec = small_fleet()
        a = simulate_device(spec, 3)
        b = simulate_device(spec, 3)
        assert pickle.dumps(a) == pickle.dumps(b)

    def test_distinct_devices_distinct_outcomes(self):
        spec = small_fleet()
        a = simulate_device(spec, 0)
        b = simulate_device(spec, 1)
        assert a.seed != b.seed
        assert pickle.dumps(a.tenants) != pickle.dumps(b.tenants)

    def test_transport_payload_is_sketch_sized(self):
        # The whole point: a device's payload is O(centroids), not O(ops).
        spec = small_fleet(tenants=(
            TenantSpec(name="hot", rate_iops=200.0, io_count=2000),))
        result = simulate_device(spec, 0)
        assert result.tenants[0].requests == 2000
        assert len(pickle.dumps(result)) < 8192

    def test_counters_accumulate(self):
        result = simulate_device(small_fleet(), 0)
        assert result.host_sectors_written > 0
        assert result.elapsed_ns > 0
        names = [t.tenant for t in result.tenants]
        assert names == ["oltp", "analytics", "backup"]


class TestShardInvariance:
    """Same fleet seed => byte-identical per-device results, any shard plan."""

    def test_shards_1_vs_8_byte_identical(self):
        spec = small_fleet(devices=8)
        serial = run_fleet_devices(spec, shards=1)
        sharded = run_fleet_devices(spec, shards=8)
        assert pickle.dumps(serial) == pickle.dumps(sharded)

    def test_uneven_shards_byte_identical(self):
        spec = small_fleet(devices=7)
        assert pickle.dumps(run_fleet_devices(spec, shards=1)) == \
            pickle.dumps(run_fleet_devices(spec, shards=3))

    def test_results_in_device_index_order(self):
        spec = small_fleet(devices=6)
        results = run_fleet_devices(spec, shards=3)
        assert [r.index for r in results] == list(range(6))

    def test_worker_count_invisible_in_results(self):
        # Compare per device: list-level pickle bytes can differ by memo
        # structure (string interning after worker transport) even when
        # every device's content is identical.
        spec = small_fleet(devices=6)
        one = run_fleet_devices(spec, Runner(jobs=1, cache=None), shards=3)
        two = run_fleet_devices(spec, Runner(jobs=2, cache=None), shards=3)
        assert [pickle.dumps(d) for d in one] == [pickle.dumps(d) for d in two]

    def test_no_runner_runs_in_process_whatever_repro_jobs(self, monkeypatch):
        """Without a runner a study runs through ``Runner(jobs=1)``: in
        process, with no pool, even when REPRO_JOBS asks for workers."""
        import repro.exp.runner as runner_mod

        pools = []

        def no_pool(*args, **kwargs):
            pools.append(kwargs)
            raise OSError("no pool expected")

        monkeypatch.setenv("REPRO_JOBS", "4")
        monkeypatch.setattr(runner_mod, "ProcessPoolExecutor", no_pool)
        results = run_fleet_devices(small_fleet(devices=4), shards=2)
        assert [r.index for r in results] == list(range(4))
        assert pools == []


class TestFailFast:
    def test_error_names_exact_device(self, monkeypatch):
        spec = small_fleet(devices=8)
        real = simulate_device

        def failing(spec_, index):
            if index >= 5:
                raise RuntimeError("flash caught fire")
            return real(spec_, index)

        monkeypatch.setattr(shard_mod, "simulate_device", failing)
        with pytest.raises(FleetDeviceError) as excinfo:
            run_fleet_shard_cell(FleetShardCell(spec, 4, 8))
        assert excinfo.value.device_index == 5
        assert "device #5" in str(excinfo.value)
        assert "flash caught fire" in str(excinfo.value)

    def test_runner_surfaces_lowest_failing_device(self, monkeypatch):
        # Failures in devices 5 and 6 across different shards: the runner
        # fails fast on the lowest-indexed failing cell, so the surfaced
        # error names device 5.
        spec = small_fleet(devices=8)
        real = simulate_device

        def failing(spec_, index):
            if index in (5, 6):
                raise RuntimeError("boom")
            return real(spec_, index)

        monkeypatch.setattr(shard_mod, "simulate_device", failing)
        with pytest.raises(CellError) as excinfo:
            run_fleet_devices(spec, Runner(jobs=1, cache=None), shards=4)
        cause = excinfo.value.__cause__
        assert isinstance(cause, FleetDeviceError)
        assert cause.device_index == 5
        assert "device #5" in str(excinfo.value)
