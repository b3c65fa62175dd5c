"""Fig 3 / §2.1: 99th-percentile random-write latencies across FTL
variants, plus the MQSim-margin mean comparison.

Paper shape: flipping any of three basic FTL design knobs (GC victim
selection, write-cache designation, page allocation) moves mean
performance by an amount comparable to a simulator's validated error
margin (18 %), while 99th-percentile latencies spread by up to an order
of magnitude.
"""

import pytest

from repro.core.modeling.fidelity import run_fidelity_study
from repro.exp import Runner
from repro.ssd.presets import mqsim_baseline

BLOCK_SIZES = (1, 2, 4)  # 4, 8, 16 KB requests


@pytest.fixture(scope="module")
def study():
    return run_fidelity_study(
        mqsim_baseline(scale=2),
        block_sizes_sectors=BLOCK_SIZES,
        io_count=3000,
        precondition_fraction=0.75,
        runner=Runner(),
    )


def test_fig3_p99_latency_spread(figure_output, study):
    figure_output(
        "fig3_tail_latency",
        "Fig 3 — random-write latency percentiles by FTL variant",
        study.HEADERS,
        study.rows(),
    )
    spreads = [study.p99_spread(bs) for bs in BLOCK_SIZES]
    # Paper: up to an order of magnitude difference in p99.
    assert max(spreads) >= 2.0


def test_fig3_tail_curves(figure_output, study):
    """The figure's actual series: worst-percentile latency curves."""
    bs = 1
    rows = []
    for variant in study.variants():
        result = study.of(variant, bs)
        for q, value in zip(result.tail_percentiles, result.tail_values_us):
            rows.append([variant, round(float(q), 2), round(float(value), 1)])
    figure_output(
        "fig3_tail_curves",
        "Fig 3 — tail curves (4K requests), percentile vs latency",
        ["FTL variant", "percentile", "latency (us)"],
        rows,
    )
    assert rows


def test_fig3_means_near_mqsim_margin(figure_output, study):
    """§2.1's sting: FTL-variant mean differences sit near the 18%
    fidelity margin, so 'validated' simulators cannot distinguish
    fundamentally different FTLs."""
    rows = []
    for bs in BLOCK_SIZES:
        within = study.within_mqsim_margin(bs)
        for variant, diff in study.mean_divergence(bs).items():
            rows.append([f"{bs * 4}K", variant, round(diff, 3),
                         within[variant]])
    near_margin = sum(row[3] for row in rows)
    figure_output(
        "fig3_mean_divergence",
        "§2.1 — mean divergence vs baseline (MQSim margin = 0.18)",
        ["request", "FTL variant", "relative mean diff", "within ~margin"],
        rows,
    )
    # At least some fundamentally-different FTLs hide inside the margin.
    assert near_margin >= 2


def test_fig3_stall_attribution(figure_output, study):
    """Companion figure: *why* the tails differ.  Each variant's write
    latency splits into controller overhead plus cache-admission stall
    (time waiting for GC/flush programs to free cache space); the stall
    share per percentile bucket is the paper's missing explanation."""
    rows = []
    for bs in BLOCK_SIZES:
        for variant in study.variants():
            for bucket in study.of(variant, bs).stall_buckets:
                rows.append([f"{bs * 4}K", variant] + bucket.row())
    figure_output(
        "fig3_stall_attribution",
        "Fig 3 (companion) — write-tail stall attribution by percentile",
        ["request", "FTL variant", "bucket", "requests", "latency (ms)",
         "stall (ms)", "stall share"],
        rows,
    )
    assert rows
