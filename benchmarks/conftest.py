"""Shared benchmark plumbing.

Every bench regenerates one of the paper's tables or figures: it runs the
experiment once as a plain test (these are experiments, not
microbenchmarks; host speed is perfbench's to measure), prints the
figure's rows, writes them to ``bench_results/<name>.csv``, and asserts
the paper's qualitative shape so the suite doubles as a regression check
on the reproduction.
"""

from __future__ import annotations

from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).resolve().parent.parent / "bench_results"


@pytest.fixture
def figure_output():
    """Print a figure table and persist it as CSV."""
    from repro.analysis.report import format_table, write_csv

    def emit(name: str, title: str, headers, rows):
        text = format_table(headers, rows, title=title)
        print("\n" + text)
        write_csv(RESULTS_DIR / f"{name}.csv", headers, rows)
        return text

    return emit

