#!/usr/bin/env python3
"""The transparency upper bound: open-channel vs. black-box (paper §1).

"Open-channel SSDs expose the FTL logic to the host, yielding highly
predictable I/O performance with perfect scheduling decisions, presenting
an upper bound on the improvement potential for SSD transparency."

Same flash geometry and timing, same GC-steady-state random-overwrite
workload, two ways to manage it:

* a black-box firmware FTL (the host sees nothing, GC storms land on
  unlucky writes);
* a host FTL over an open-channel device (the host sees the geometry,
  stripes perfectly, and amortizes GC into bounded slices).

The table is the one ``bench_results/ablation_openchannel.csv`` pins.

Run:  python examples/openchannel_upper_bound.py
"""

from repro.analysis.report import format_table
from repro.flash.timing import profile
from repro.ssd.openchannel import run_upper_bound_study
from repro.ssd.presets import mqsim_baseline


def main() -> None:
    print("running both drives to GC steady state on identical flash...\n")
    study = run_upper_bound_study()
    print(format_table(study.HEADERS, study.rows(),
                       title="identical flash, identical workload"))
    timing = profile(mqsim_baseline().timing_name)
    budget_us = (3 * timing.program_ns + timing.erase_ns) / 1000
    print(f"\nhost FTL worst case is hard-bounded by its incremental-GC "
          f"budget (~{budget_us:.0f} us);\nthe firmware FTL's tail is "
          f"whatever its hidden GC decides it is — the paper's point.")


if __name__ == "__main__":
    main()
