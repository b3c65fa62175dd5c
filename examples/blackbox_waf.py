#!/usr/bin/env python3
"""Black-box SMART analysis of a drive (paper §2.2, Fig 4).

First estimates the NAND page size from a sequential-write sweep (the
host-bytes-per-page ratio converges at ~30 KB on the MX500 model because
of RAIN parity), then runs the WAF extrapolation experiment: three
random-write workloads measured separately, an IOPS-weighted prediction
for the mixed run, and the actual mixed measurement that blows past it.

Run:  python examples/blackbox_waf.py
"""

from repro.analysis.report import format_table
from repro.core.blackbox.nand_page import sequential_write_sweep
from repro.core.blackbox.waf import run_waf_study
from repro.ssd.device import SimulatedSSD
from repro.ssd.presets import mx500_like


def main() -> None:
    # ------------------------------------------------------------------
    # Fig 4a: what is a "NAND page", according to SMART?
    # ------------------------------------------------------------------
    device = SimulatedSSD(mx500_like(scale=2), model="MX500 (repro)")
    estimate = sequential_write_sweep(device)
    print(format_table(estimate.HEADERS, estimate.rows(),
                       title="Fig 4a — sequential write sweep"))
    print(f"\nconverged: {estimate.converged_bytes_per_page / 1024:.1f} KiB "
          "per NAND page  (32 KiB page x 15/16 RAIN stripe = 30 KiB)\n")

    # ------------------------------------------------------------------
    # Fig 4b: black-box WAF extrapolation.
    # ------------------------------------------------------------------
    print("running the three workloads separately, then concurrently "
          "(this takes a minute)...\n")
    study = run_waf_study(mx500_like(scale=2), io_count=12_000)
    print(format_table(study.HEADERS, study.rows(),
                       title="Fig 4b — separate runs, then the mixed run"))
    print(f"\nextrapolation error: {study.extrapolation_error:.2f}x")
    print(
        "\nThe additive model fails because the mixed run's dirty-mapping\n"
        "working set overflows the FTL's RAM budget — invisible from\n"
        "outside, exactly the paper's point about black-box analysis."
    )


if __name__ == "__main__":
    main()
