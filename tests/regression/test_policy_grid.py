"""Policy-grid sweeps are runner-invariant and cover every policy.

This is the file CI's policy-grid smoke job runs (with ``REPRO_JOBS=2``):
a tiny-geometry grid must produce byte-identical results serial and
parallel, every registered policy must instantiate, and the variant
names must parse back into their axes.
"""

import numpy as np

from repro.core.modeling.policy_grid import (
    grid_rows,
    grid_variants,
    run_policy_grid,
    variant_name,
)
from repro.exp import ResultCache, Runner
from repro.ssd.ftl import Ftl
from repro.ssd.policy import POLICIES
from repro.ssd.presets import mqsim_baseline, tiny

#: A fast sub-grid: one legacy and one registry-era value per axis.
GC = ("greedy", "d_choices")
CACHE = ("data", "mapping")
ALLOC = ("CWDP", "hotcold")


class TestGridEquivalence:
    def test_serial_matches_parallel(self, tmp_path):
        base = mqsim_baseline(scale=8)
        kwargs = dict(block_sizes_sectors=(1,), io_count=150,
                      gc_policies=GC, designations=CACHE, allocations=ALLOC)
        serial = run_policy_grid(base, **kwargs)
        runner = Runner(jobs=2, cache=ResultCache(tmp_path))
        parallel = run_policy_grid(base, runner=runner, **kwargs)
        assert len(serial.results) == len(parallel.results) == 8
        for a, b in zip(serial.results, parallel.results):
            assert (a.variant, a.bs_sectors) == (b.variant, b.bs_sectors)
            assert a.summary == b.summary
            assert a.iops == b.iops
            assert np.array_equal(a.tail_values_us, b.tail_values_us)

    def test_warm_cache_rerun_executes_nothing(self, tmp_path):
        base = mqsim_baseline(scale=8)
        kwargs = dict(block_sizes_sectors=(1,), io_count=150,
                      gc_policies=("greedy",), designations=("data",),
                      allocations=ALLOC)
        cold_runner = Runner(jobs=None, cache=ResultCache(tmp_path))
        cold = run_policy_grid(base, runner=cold_runner, **kwargs)
        warm_runner = Runner(jobs=None, cache=ResultCache(tmp_path))
        warm = run_policy_grid(base, runner=warm_runner, **kwargs)
        assert warm_runner.stats.executed == 0  # every cell a cache hit
        for a, b in zip(cold.results, warm.results):
            assert a.summary == b.summary


class TestGridShape:
    def test_variant_names_round_trip_through_grid_rows(self):
        base = tiny()
        variants = grid_variants(base, GC, CACHE, ALLOC)
        assert len(variants) == 8
        assert variants[0].name == variant_name("greedy", "data", "CWDP")
        study = run_policy_grid(base, block_sizes_sectors=(1,), io_count=120,
                                gc_policies=("greedy",),
                                designations=("data",),
                                allocations=("CWDP", "hotcold"))
        rows = grid_rows(study)
        assert {tuple(r[:3]) for r in rows} == {("greedy", "data", "CWDP"),
                                                ("greedy", "data", "hotcold")}

    def test_every_registered_policy_builds_a_device(self):
        """Every entry of every policy table can run inside a real FTL
        — not just the default-grid subset."""
        base = tiny()
        for knob, table in POLICIES.items():
            for name in table:
                Ftl(base.with_changes(**{knob: name}))
