"""Full design-grid sweep over the FTL policy tables.

The Fig 3 experiment flips one knob at a time; named policy knobs make
the *cross product* cheap to express.  This module sweeps GC victim policy
× cache designation × allocation policy — roughly 3× the paper's
original design space once the d-choices, CAT, and hot/cold policies
are included — through the same cell machinery as the fidelity study,
so grids run through the parallel :class:`~repro.exp.runner.Runner`
and land in the content-addressed result cache.
"""

from __future__ import annotations

from repro.core.modeling.fidelity import (
    FidelityStudy,
    FtlVariant,
    run_fidelity_study,
)
from repro.exp.runner import Runner
from repro.ssd.config import SsdConfig

#: default grid axes: the paper's original knob values plus three later
#: additions (d_choices, cat victim policies; hotcold stream-separating
#: allocation).
GRID_GC_POLICIES = ("greedy", "randomized_greedy", "cost_benefit",
                    "d_choices", "cat")
GRID_CACHE_DESIGNATIONS = ("data", "mapping")
GRID_ALLOCATION_POLICIES = ("CWDP", "PDWC", "hotcold")


def variant_name(gc: str, cache: str, alloc: str) -> str:
    """Canonical grid-point name, e.g. ``gc=greedy+cache=data+alloc=CWDP``."""
    return f"gc={gc}+cache={cache}+alloc={alloc}"


def grid_variants(
    base: SsdConfig,
    gc_policies: tuple[str, ...] = GRID_GC_POLICIES,
    designations: tuple[str, ...] = GRID_CACHE_DESIGNATIONS,
    allocations: tuple[str, ...] = GRID_ALLOCATION_POLICIES,
) -> list[FtlVariant]:
    """Every combination of the three axes as an :class:`FtlVariant`.

    Constructing the variant validates each name against its policy
    table, so a typo in an axis fails here with the valid choices listed.
    """
    return [
        FtlVariant(
            variant_name(gc, cache, alloc),
            base.with_changes(gc_policy=gc, cache_designation=cache,
                              allocation_scheme=alloc),
        )
        for gc in gc_policies
        for cache in designations
        for alloc in allocations
    ]


def run_policy_grid(
    base: SsdConfig,
    block_sizes_sectors: tuple[int, ...] = (1, 4),
    io_count: int = 2000,
    precondition_fraction: float = 0.75,
    tail_points: int = 40,
    gc_policies: tuple[str, ...] = GRID_GC_POLICIES,
    designations: tuple[str, ...] = GRID_CACHE_DESIGNATIONS,
    allocations: tuple[str, ...] = GRID_ALLOCATION_POLICIES,
    runner: Runner | None = None,
) -> FidelityStudy:
    """Measure the full policy cross product at every request size.

    Each grid point is one cell: parallel runners fan the grid out and
    re-runs hit the result cache, exactly as for the fidelity study.
    """
    return run_fidelity_study(
        base,
        block_sizes_sectors=block_sizes_sectors,
        io_count=io_count,
        precondition_fraction=precondition_fraction,
        tail_points=tail_points,
        variants=grid_variants(base, gc_policies, designations, allocations),
        runner=runner,
    )


#: ``ablation_policy_grid.csv``'s columns: the order of a
#: :func:`grid_rows` row.
GRID_HEADERS = ("gc_policy", "cache_designation", "allocation", "bs_sectors",
                "mean_us", "p50_us", "p99_us", "p999_us", "max_us", "iops")


def grid_rows(study: FidelityStudy) -> list[list]:
    """Flatten a grid study into rounded rows in :data:`GRID_HEADERS`
    order, one per point × size."""
    rows = []
    for result in study.results:
        axes = dict(part.split("=", 1) for part in result.variant.split("+"))
        summary = result.summary
        rows.append([
            axes.get("gc", ""), axes.get("cache", ""), axes.get("alloc", ""),
            result.bs_sectors, round(summary.mean, 2), round(summary.p50, 2),
            round(summary.p99, 2), round(summary.p999, 2),
            round(summary.max, 2), round(result.iops, 1),
        ])
    return rows
