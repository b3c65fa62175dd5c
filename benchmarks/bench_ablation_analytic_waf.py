"""Ablation: analytic WAF models vs. the simulator across spare factors.

§2.1 context: *average* write amplification under uniform random traffic
is one thing SSD models genuinely can predict (Desnoyers, Hu et al., Van
Houdt) — this sweep shows the classic closed forms tracking the
simulator — while everything the rest of this repository measures
(tails, mixed-workload interference, background ops) is what they miss.
"""

import pytest

from repro.core.modeling.analytic import (
    measure_steady_waf,
    waf_greedy_gc,
    waf_random_gc,
)

OP_RATIOS = (0.15, 0.25, 0.35)


def test_analytic_waf_validation(figure_output):
    measurements = {
        (op, policy): measure_steady_waf(op, policy, measure_writes=12_000)
        for op in OP_RATIOS
        for policy in ("greedy", "random")
    }
    rows = []
    for (op, policy), m in measurements.items():
        model = (waf_greedy_gc if policy == "greedy" else waf_random_gc)(
            m.utilization
        )
        rows.append([
            op, policy, round(m.utilization, 3),
            round(m.waf_gc, 2), round(model, 2),
            round(m.waf_gc / model, 2),
        ])
    figure_output(
        "ablation_analytic_waf",
        "Ablation — steady-state GC write amplification: simulator vs theory",
        ["OP ratio", "GC policy", "effective u", "simulated WA",
         "analytic WA", "sim/model"],
        rows,
    )
    for op in OP_RATIOS:
        greedy = measurements[(op, "greedy")]
        random_ = measurements[(op, "random")]
        # Theory's ordering holds everywhere.
        assert greedy.waf_gc < random_.waf_gc
        # Random-GC has an exact model; agreement within ~40 %.
        assert random_.waf_gc == pytest.approx(
            waf_random_gc(random_.utilization), rel=0.4
        )
        # Greedy's mean-field is an upper-ish bound for finite blocks.
        assert greedy.waf_gc <= waf_greedy_gc(greedy.utilization) * 1.15
