"""Ablation: storage-engine structure × device allocation policy.

The paper's cross-layer claim, measured: rank the allocation policies
by tail latency / WAF under the standard synthetic random-write
workload, then rank them again under a real engine structure (LSM
compaction, B-tree page churn).  The orderings disagree — the policy a
synthetic benchmark would pick is not the policy the application
actually wants — because engine maintenance traffic (sequential SSTable
writes + whole-extent trims, or cache-absorbed in-place page rewrites)
lands on the FTL nothing like uniform random writes do.

Grid: {synthetic, lsm, btree} × {CWDP, PDWC, hotcold}, one cached cell
per point, identical seeds.
"""

from repro.engines import EngineRunCell, YcsbSpec, run_engine_cell
from repro.exp import Cell, Runner, TimedJobCell, run_timed_job_cell
from repro.ssd.presets import tiny
from repro.workloads.patterns import Region
from repro.workloads.spec import JobSpec

ALLOCATIONS = ("CWDP", "PDWC", "hotcold")
WORKLOADS = ("synthetic", "lsm", "btree")
SEED = 11
IODEPTH = 4
SYNTHETIC_IO = 3_000


def _cells():
    cells = []
    for alloc in ALLOCATIONS:
        config = tiny().with_changes(allocation_scheme=alloc)
        n = config.logical_sectors
        job = JobSpec("syn", "randwrite", Region(0, n),
                      io_count=SYNTHETIC_IO, iodepth=IODEPTH, seed=SEED)
        cells.append(Cell(run_timed_job_cell, TimedJobCell(config, job),
                          seed=SEED, label=f"engines:synthetic:{alloc}"))
        spec = YcsbSpec(mix="a", records=max(16, n // 8),
                        operations=max(16, n // 8) * 10)
        for engine in ("lsm", "btree"):
            cells.append(Cell(
                run_engine_cell,
                EngineRunCell(config, engine, spec, iodepth=IODEPTH),
                seed=SEED, label=f"engines:{engine}:{alloc}"))
    return cells


def _rows(results):
    """One row per grid point: (workload, alloc, metrics...)."""
    rows = {}
    index = 0
    for alloc in ALLOCATIONS:
        run = results[index]
        job = run.jobs["syn"]
        rows[("synthetic", alloc)] = {
            "requests": job.requests,
            "p50_us": job.percentile_us(50),
            "p99_us": job.percentile_us(99),
            "iops": job.iops,
            "device_waf": run.waf,
            "engine_waf": 0.0,
            "maintenance_ops": 0,
        }
        for offset, engine in enumerate(("lsm", "btree")):
            r = results[index + 1 + offset]
            rows[(engine, alloc)] = {
                "requests": r.requests,
                "p50_us": r.p50_us,
                "p99_us": r.p99_us,
                "iops": r.iops,
                "device_waf": r.device_waf,
                "engine_waf": r.engine_waf,
                "maintenance_ops": r.maintenance_ops,
            }
            assert r.read_errors == 0, (engine, alloc, r.read_errors)
        index += 3
    return rows


def _ranks(rows, workload, metric):
    """Allocation -> rank (0 = best) under one workload and metric.
    Ties share the rank (count of strictly better policies)."""
    values = {a: round(rows[(workload, a)][metric], 3) for a in ALLOCATIONS}
    return {a: sum(1 for other in ALLOCATIONS if values[other] < values[a])
            for a in ALLOCATIONS}


def test_ablation_storage_engines(figure_output):
    rows = _rows(Runner().run(_cells()))

    baseline_p99 = _ranks(rows, "synthetic", "p99_us")
    baseline_waf = _ranks(rows, "synthetic", "device_waf")
    table = []
    flipped = 0
    for workload in WORKLOADS:
        rank_p99 = _ranks(rows, workload, "p99_us")
        rank_waf = _ranks(rows, workload, "device_waf")
        for alloc in ALLOCATIONS:
            r = rows[(workload, alloc)]
            differs = (workload != "synthetic"
                       and (rank_p99[alloc] != baseline_p99[alloc]
                            or rank_waf[alloc] != baseline_waf[alloc]))
            flipped += bool(differs)
            table.append([
                workload, alloc, r["requests"],
                round(r["p50_us"], 1), round(r["p99_us"], 1),
                round(r["iops"], 1), round(r["device_waf"], 3),
                round(r["engine_waf"], 3), r["maintenance_ops"],
                rank_p99[alloc], rank_waf[alloc],
                "yes" if differs else "no",
            ])

    figure_output(
        "ablation_storage_engines",
        "Ablation — storage-engine structure x allocation policy",
        ["workload", "allocation", "requests", "p50_us", "p99_us", "iops",
         "device_waf", "engine_waf", "maintenance_ops",
         "p99_rank", "waf_rank", "ordering_differs"],
        table,
    )

    # The acceptance claim: at least two engine x allocation cells rank
    # differently than the synthetic baseline ranks the same policy —
    # the interaction a synthetic-only evaluation cannot see.
    assert flipped >= 2, f"only {flipped} cells flipped ordering"

    # And the flip is not noise: under the synthetic baseline hotcold is
    # the worst p99 of the three, under the LSM it is not.
    lsm_rank = _ranks(rows, "lsm", "p99_us")
    assert baseline_p99["hotcold"] == max(baseline_p99.values())
    assert lsm_rank["hotcold"] < max(lsm_rank.values())
