#!/usr/bin/env python3
"""File-system aging vs. SSD internals (paper §2, Fig 1).

Reproduces the Geriatrix-style observation: the F2FS/EXT4 throughput
ratio on a file-server workload is not a constant of the file systems —
it depends on the SSD model and on how the image was aged.

Two simulated drives (a lean 'ssd64' and a generous 'ssd120') each run
the file-server benchmark under both file-system models, unaged (U) and
after two aging profiles (A, M).  The table is the one
``bench_results/fig1_aging.csv`` pins.

Run:  python examples/aging_filesystems.py
"""

from repro.analysis.report import format_table
from repro.workloads.fileserver import run_aging_study


def main() -> None:
    study = run_aging_study()
    print(format_table(
        study.HEADERS, study.rows(),
        title="Fig 1 — file-server throughput: F2FS/EXT4 by SSD model and aging",
    ))
    ratios = study.ratios()
    print(f"\nratio range: {min(ratios):.2f} .. {max(ratios):.2f} — "
          "not the uniform '2x across the board' a single-device study "
          "would conclude.")


if __name__ == "__main__":
    main()
