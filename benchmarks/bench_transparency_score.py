"""Transparency score: per-knob policy recovery, black-box vs gray-box.

The paper's quantitative bottom line for this reproduction: build
firmware from random six-knob policy points, recover the knobs from
outside the device, and tabulate per-knob recovery rates at the two
access levels the paper contrasts (§2 host-interface tooling vs §3
probing/JTAG).  Gray-box access must recover strictly more than the
host interface, and the structural knobs (``gc_policy``,
``allocation``) must be near-perfectly recoverable gray-box — the
paper's claim that the information exists and only access is missing.
"""

from repro.exp import Runner
from repro.infer import run_transparency_sweep

N_POINTS = 8
SEED = 42


def test_transparency_score(figure_output):
    score = run_transparency_sweep(
        N_POINTS, seed=SEED, runner=Runner(jobs=1, cache=None))
    print("\n" + score.render())
    figure_output(
        "fig_transparency_score",
        "Transparency score — per-knob recovery over "
        f"{N_POINTS} random policy points",
        ["knob", "points", "blackbox_recovered", "graybox_recovered",
         "blackbox_rate", "graybox_rate"],
        score.rows(),
    )
    # Gray-box access strictly dominates the host interface.
    assert score.graybox_total > score.blackbox_total
    # The structural knobs are near-perfectly recoverable gray-box.
    for knob in ("gc_policy", "allocation"):
        assert score.knob_score(knob).graybox_recovered >= N_POINTS - 1
    # Some knob must be invisible black-box (the transparency gap).
    assert any(s.blackbox_recovered == 0 for s in score.scores())
