"""Transparency-score aggregation and the exp-cell sweep plumbing."""

from repro.exp import Runner
from repro.infer import (
    KNOBS,
    PolicyPoint,
    run_transparency_cell,
    run_transparency_sweep,
    transparency_cells,
)
from repro.infer.score import TransparencyScore


def small_sweep(jobs):
    return run_transparency_sweep(2, seed=1,
                                  runner=Runner(jobs=jobs, cache=None))


def test_sweep_scores_and_parallel_equivalence():
    serial = small_sweep(jobs=1)
    parallel = small_sweep(jobs=2)
    assert serial.rows() == parallel.rows()
    assert [t.point for t in serial.trips] == [t.point for t in parallel.trips]
    assert serial.graybox_total > serial.blackbox_total
    for score in serial.scores():
        assert 0 <= score.blackbox_recovered <= score.points
        assert score.graybox_rate == 1.0


def test_rows_shape_matches_csv_contract():
    trip = run_transparency_cell(PolicyPoint().astuple(), seed=0)
    score = TransparencyScore((trip,))
    rows = score.rows()
    assert [r[0] for r in rows] == list(KNOBS)
    assert all(len(r) == 6 for r in rows)
    rendered = score.render()
    assert "transparency score" in rendered
    assert "gray-box" in rendered


def test_cells_are_labelled_and_cacheable():
    cells = transparency_cells([PolicyPoint()], seed=3)
    assert cells[0].label.startswith("infer:")
    assert cells[0].config == PolicyPoint().astuple()
