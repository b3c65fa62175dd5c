"""Ablation: GC victim-selection policy vs. write amplification.

DESIGN.md calls out victim selection as a first-order design choice
(after Van Houdt's mean-field results).  This bench sweeps every policy
on an identical aged workload and reports WAF and erase counts: greedy
should produce the least write amplification, random the most, with
randomized-greedy approaching greedy as d grows.

The per-policy runs are independent, so the sweep fans out through
:class:`repro.exp.Runner` — one :class:`repro.exp.ChurnCell` per policy.
"""

from repro.exp import Cell, ChurnCell, Runner, run_churn_cell
from repro.ssd.presets import tiny

#: Pinned to the policies in the golden ablation_gc_policy.csv; the
#: registry-era additions (d_choices, cat) are covered by
#: bench_ablation_policy_grid.py so re-running this bench never
#: rewrites the golden figure's row set.
GC_POLICIES = ("greedy", "randomized_greedy", "random", "fifo", "cost_benefit")


def test_ablation_gc_policy_waf(figure_output):
    cells = [
        Cell(run_churn_cell,
             ChurnCell(config=tiny().with_changes(gc_policy=policy),
                       writes=12_000, pattern="hotcold", hot_divisor=5,
                       hot_traffic=0.8),
             seed=3, label=f"gc:{policy}")
        for policy in GC_POLICIES
    ]
    outcomes = dict(zip(GC_POLICIES, Runner().run(cells)))
    rows = []
    waf = {}
    for policy, result in outcomes.items():
        waf[policy] = result.waf
        rows.append([
            policy,
            round(result.waf, 3),
            result.erase_count,
            result.gc_migrated_sectors,
        ])
    figure_output(
        "ablation_gc_policy",
        "Ablation — GC victim selection vs write amplification (80/20 churn)",
        ["policy", "WAF", "erases", "migrated sectors"],
        rows,
    )
    assert waf["greedy"] <= waf["random"]
    assert waf["randomized_greedy"] <= waf["random"] * 1.05


def test_ablation_randomized_greedy_sample_size(figure_output):
    """d-choices: larger d converges to greedy."""
    sample_sizes = (2, 4, 8, 16)

    cells = [
        Cell(
            run_churn_cell,
            ChurnCell(
                config=tiny().with_changes(gc_policy="randomized_greedy",
                                           gc_sample_size=d),
                writes=10_000,
                pattern="uniform",
            ),
            seed=5,
            label=f"gc:d={d}",
        )
        for d in sample_sizes
    ]
    results = {d: r.waf for d, r in zip(sample_sizes, Runner().run(cells))}
    figure_output(
        "ablation_gc_sample_size",
        "Ablation — randomized-greedy sample size d vs WAF",
        ["d", "WAF"],
        [[d, round(w, 3)] for d, w in results.items()],
    )
    assert results[16] <= results[2] * 1.1
