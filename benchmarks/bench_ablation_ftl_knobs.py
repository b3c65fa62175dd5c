"""Ablations: mapping RAM, RAIN stripe width, and pSLC buffering.

Each sweep isolates one mechanism DESIGN.md calls out and shows its
first-order effect — the kind of sensitivity a vendor datasheet never
reveals and the paper argues the community needs.

Every sweep point is an independent device, so each sweep fans its
points out through :class:`repro.exp.Runner` as picklable cells.
"""

import pytest

from repro.exp import (
    Cell,
    ChurnCell,
    NandPageSweepCell,
    PslcBurstCell,
    Runner,
    run_churn_cell,
    run_nand_page_sweep_cell,
    run_pslc_burst_cell,
)
from repro.ssd.presets import mx500_like, tiny


def test_ablation_mapping_dirty_budget(figure_output):
    """Less RAM for dirty translation pages -> more metadata writes.

    This is the mechanism behind the Fig 4b mixed-run surprise; the
    sweep shows it directly by shrinking the budget below the
    workload's dirty-TP working set.
    """
    limits = (2, 4, 8, 32)

    cells = [
        Cell(
            run_churn_cell,
            ChurnCell(
                config=tiny().with_changes(
                    mapping_tp_lpns=16,       # many small TPs
                    mapping_dirty_tp_limit=limit,
                    mapping_sync_interval=100_000,  # evictions only
                ),
                writes=8000,
                pattern="uniform",
            ),
            seed=9,
            label=f"mapping:limit={limit}",
        )
        for limit in limits
    ]
    results = {limit: r.meta_program_pages
               for limit, r in zip(limits, Runner().run(cells))}
    figure_output(
        "ablation_mapping_budget",
        "Ablation — dirty-TP RAM budget vs metadata page writes",
        ["dirty TP budget", "meta pages"],
        [[k, v] for k, v in results.items()],
    )
    assert results[2] > results[32]


def test_ablation_rain_stripe_width(figure_output):
    """Fig 4a's plateau moves with the stripe: k/(k+1) of the page."""
    stripes = (0, 3, 7, 15)

    sector = mx500_like(scale=4).geometry.sector_size
    sizes = tuple(sector * (1 << i) for i in range(5, 10))
    cells = [
        Cell(
            run_nand_page_sweep_cell,
            NandPageSweepCell(
                config=mx500_like(scale=4).with_changes(rain_stripe=stripe),
                sizes_bytes=sizes,
            ),
            label=f"rain:stripe={stripe}",
        )
        for stripe in stripes
    ]
    results = dict(zip(stripes, Runner().run(cells)))
    page = mx500_like(scale=4).geometry.page_size
    rows = []
    for stripe, measured in results.items():
        predicted = page if stripe == 0 else page * stripe / (stripe + 1)
        rows.append([stripe, round(measured), round(predicted)])
    figure_output(
        "ablation_rain_stripe",
        "Ablation — RAIN stripe width vs host-bytes-per-NAND-page plateau",
        ["stripe (k data : 1 parity)", "measured B/page", "k/(k+1) * page"],
        rows,
    )
    for stripe, measured in results.items():
        predicted = page if stripe == 0 else page * stripe / (stripe + 1)
        assert measured == pytest.approx(predicted, rel=0.1)


def test_ablation_pslc_burst_absorption(figure_output):
    """A pSLC buffer absorbs a write burst; the drain shows up later as
    FTL-attributed traffic (the 'unpredictable background operations'
    family)."""
    buffer_sizes = (0, 8)

    cells = [
        Cell(
            run_pslc_burst_cell,
            PslcBurstCell(
                config=tiny().with_changes(pslc_blocks=pslc_blocks,
                                           pslc_drain_threshold=0.95),
                burst_sectors=160,
            ),
            label=f"pslc:blocks={pslc_blocks}",
        )
        for pslc_blocks in buffer_sizes
    ]
    results = dict(zip(buffer_sizes, Runner().run(cells)))
    figure_output(
        "ablation_pslc",
        "Ablation — pSLC buffer vs burst write latency",
        ["pSLC blocks", "mean burst latency (us)", "pSLC drain pages"],
        [[k, round(v[0], 1), v[1]] for k, v in results.items()],
    )
    assert results[8][0] <= results[0][0] * 1.2
