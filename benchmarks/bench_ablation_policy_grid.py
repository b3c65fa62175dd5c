"""Ablation: the full FTL policy design grid.

The registry turns the paper's three single-knob flips into a swept
cross product: GC victim policy × write-cache designation × allocation
policy — 30 design points, roughly 3× the original Fig 3 space once
the d-choices, CAT, and hot/cold stream-separation policies are
included.  Every point is an independent cell fanned out through
:class:`repro.exp.Runner`, so re-runs hit the content-addressed cache.
"""

from repro.core.modeling.policy_grid import (
    GRID_ALLOCATION_POLICIES,
    GRID_CACHE_DESIGNATIONS,
    GRID_GC_POLICIES,
    GRID_HEADERS,
    grid_rows,
    run_policy_grid,
    variant_name,
)
from repro.exp import Runner
from repro.ssd.presets import mqsim_baseline

BS_SECTORS = 1


def test_ablation_policy_grid(figure_output):
    study = run_policy_grid(
        mqsim_baseline(scale=4),
        block_sizes_sectors=(BS_SECTORS,),
        io_count=2_000,
        runner=Runner(),
    )
    rows = grid_rows(study)
    figure_output(
        "ablation_policy_grid",
        "Ablation — GC x cache x allocation policy grid (4K random writes)",
        GRID_HEADERS,
        rows,
    )

    # Full cross product, one row per point.
    expected = (len(GRID_GC_POLICIES) * len(GRID_CACHE_DESIGNATIONS)
                * len(GRID_ALLOCATION_POLICIES))
    assert len(rows) == expected

    def p99(gc, cache, alloc):
        return study.of(variant_name(gc, cache, alloc), BS_SECTORS).summary.p99

    # The registry-era policies are real design points, not aliases:
    # each lands at its own tail latency on the shared baseline axis.
    new_points = {
        "d_choices": p99("d_choices", "data", "CWDP"),
        "cat": p99("cat", "data", "CWDP"),
        "hotcold": p99("greedy", "data", "hotcold"),
    }
    assert len(set(new_points.values())) == len(new_points), new_points

    # The paper's headline survives the bigger grid: the design space
    # spreads p99 while every point would look "validated" on means.
    assert study.p99_spread(BS_SECTORS) > 1.5
