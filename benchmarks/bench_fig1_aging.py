"""Fig 1: file systems age variably for different SSD models.

Paper shape (from Kadekodi et al.'s reproduction of the F2FS file-server
experiment): the F2FS/EXT4 throughput ratio is not a constant ~2x — it
varies substantially across SSD models and aging states (U/A/M).
"""

from repro.workloads.fileserver import run_aging_study


def test_fig1_aging_ratio_varies(figure_output):
    study = run_aging_study()
    figure_output(
        "fig1_aging",
        "Fig 1 — file-server throughput: F2FS/EXT4 by SSD model and aging",
        study.HEADERS,
        study.rows(),
    )
    values = study.ratios()
    # Paper shape: the ratio is NOT uniform across models/aging states —
    # it varies significantly (Kadekodi et al. contradict the F2FS
    # paper's "2x across the board").
    assert max(values) / min(values) > 1.25
    # And the log-structured FS should still generally help on flash.
    assert sum(v > 1.0 for v in values) >= len(values) // 2
