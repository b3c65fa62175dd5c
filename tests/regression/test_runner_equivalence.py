"""Where a cell runs never changes what it computes.

A study run serially, over a process pool, or from a warm result cache
gives byte-identical results, and the WAF and churn cells equal the
hand-written device loops they stand for.  CI runs this module with
``REPRO_JOBS=2``.  The studies are scaled down, but they run the same
cell functions as the figure benches, so equality here means the golden
CSVs do not depend on the runner.
"""

import numpy as np

from repro.core.blackbox.waf import (
    WafCellSpec,
    default_jobs,
    measure_waf_cell,
    run_waf_study,
)
from repro.core.modeling.fidelity import run_fidelity_study
from repro.exp import Cell, ChurnCell, ResultCache, Runner, run_churn_cell
from repro.ssd.device import SimulatedSSD
from repro.ssd.presets import tiny
from repro.workloads.engine import precondition, run_counter


class TestFidelityEquivalence:
    def test_parallel_study_identical_to_serial(self, tmp_path):
        base = tiny()
        serial = run_fidelity_study(base, block_sizes_sectors=(1, 2),
                                    io_count=300)
        runner = Runner(jobs=None, cache=ResultCache(tmp_path))
        parallel = run_fidelity_study(base, block_sizes_sectors=(1, 2),
                                      io_count=300, runner=runner)
        assert len(serial.results) == len(parallel.results)
        for a, b in zip(serial.results, parallel.results):
            assert (a.variant, a.bs_sectors) == (b.variant, b.bs_sectors)
            assert a.summary == b.summary
            assert a.iops == b.iops
            assert np.array_equal(a.tail_percentiles, b.tail_percentiles)
            assert np.array_equal(a.tail_values_us, b.tail_values_us)

    def test_warm_cache_rerun_identical(self, tmp_path):
        base = tiny()
        cold_runner = Runner(jobs=None, cache=ResultCache(tmp_path))
        cold = run_fidelity_study(base, block_sizes_sectors=(1,),
                                  io_count=300, runner=cold_runner)
        warm_runner = Runner(jobs=None, cache=ResultCache(tmp_path))
        warm = run_fidelity_study(base, block_sizes_sectors=(1,),
                                  io_count=300, runner=warm_runner)
        assert warm_runner.stats.executed == 0  # every cell a cache hit
        for a, b in zip(cold.results, warm.results):
            assert a.summary == b.summary
            assert np.array_equal(a.tail_values_us, b.tail_values_us)


class TestWafEquivalence:
    def test_parallel_study_identical_to_serial(self):
        config = tiny()
        serial = run_waf_study(config, io_count=500)
        runner = Runner(jobs=None, cache=None)
        parallel = run_waf_study(config, io_count=500, runner=runner)
        assert serial == parallel

    def test_cell_matches_a_hand_primed_device(self):
        """A WAF cell is the paper's protocol on one fresh device:
        prime (a sequential fill and a flush), snapshot SMART, run the
        jobs, take the delta."""
        config = tiny()
        job = default_jobs(config.logical_sectors, io_count=500)[0]
        device = SimulatedSSD(config)
        precondition(device, 0.6)
        device.flush()
        before = device.smart_snapshot()
        run_counter(device, [job])
        delta = device.smart.delta(before)
        cell = measure_waf_cell(WafCellSpec(config, (job,), 0.6))
        assert (cell.waf, cell.host_pages, cell.ftl_pages) == (
            delta.waf(), delta.host_program_pages, delta.ftl_program_pages)


class TestChurnEquivalence:
    def test_churn_cell_matches_inline_loop(self):
        """A churn cell makes exactly the inline hot/cold loop's RNG
        draws; the ablation benches and the GC-policy golden test run
        the cell."""
        config = tiny().with_changes(gc_policy="greedy")
        device = SimulatedSSD(config)
        rng = np.random.default_rng(3)
        hot = max(1, device.num_sectors // 5)
        for _ in range(2000):
            if rng.random() < 0.8:
                lba = int(rng.integers(hot))
            else:
                lba = hot + int(rng.integers(device.num_sectors - hot))
            device.write_sectors(lba, 1)
        device.flush()

        result = run_churn_cell(ChurnCell(config=config, writes=2000), seed=3)
        assert result.waf == device.smart.waf()
        assert result.erase_count == device.smart.erase_count
        assert result.gc_migrated_sectors == device.ftl.stats.gc_migrated_sectors

    def test_parallel_churn_identical(self, tmp_path):
        cells = [
            Cell(run_churn_cell,
                 ChurnCell(config=tiny().with_changes(gc_policy=p),
                           writes=1200),
                 seed=3, label=f"gc:{p}")
            for p in ("greedy", "random", "fifo")
        ]
        assert Runner(jobs=1).run(cells) == Runner(jobs=2).run(cells)
