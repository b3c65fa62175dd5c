#!/usr/bin/env python3
"""Intra-SSD compression under OLTP (paper §2, Fig 2).

Runs the same OLTP transaction stream through five intra-SSD compression
schemes and reports flash page writes per transaction, normalized to the
`re-bp32` baseline — for highly compressible, moderately compressible,
and incompressible data.

Run:  python examples/compression_study.py
"""

from repro.analysis.report import format_table
from repro.workloads.oltp import (
    COMPRESSION_HEADERS,
    compression_rates,
    compression_rows,
)

TRANSACTIONS = 3000


def main() -> None:
    for regime_name in ("high", "moderate", "incompressible"):
        rows = compression_rows(compression_rates(regime_name, TRANSACTIONS))
        print(format_table(
            [*COMPRESSION_HEADERS, "extra writes"],
            [[*row, f"{(row[2] - 1) * 100:+.1f}%"] for row in rows],
            title=f"\nFig 2 — {regime_name} compressibility "
                  f"({TRANSACTIONS} transactions)",
        ))
    print(
        "\nFor highly compressible data the worst scheme writes flash at a\n"
        "rate >150% above the best — an FTL-internal choice no datasheet\n"
        "mentions, directly moving device lifetime and performance."
    )


if __name__ == "__main__":
    main()
