"""Ablation: open-channel + host FTL vs. black-box firmware FTL.

The paper's §1 upper bound: "open-channel SSDs expose the FTL logic to
the host, yielding highly predictable I/O performance with perfect
scheduling decisions".  Same flash geometry, same timing, same random
overwrite workload at GC steady state:

* the black-box drive pays firmware-timed foreground GC storms in its
  tail;
* the host FTL — which can see the geometry and *choose when reclaim
  happens* — amortizes GC into bounded slices, collapsing the tail.
"""

import numpy as np

from repro.ssd.openchannel import run_upper_bound_study


def test_openchannel_transparency_bound(figure_output):
    study = run_upper_bound_study()
    figure_output(
        "ablation_openchannel",
        "Ablation — transparency upper bound (same flash, same workload)",
        study.HEADERS,
        study.rows(),
    )
    blackbox, openchannel = study.blackbox_us, study.openchannel_us
    assert study.host_erases > 0  # GC really ran on the host FTL
    bb999 = float(np.percentile(blackbox, 99.9))
    oc999 = float(np.percentile(openchannel, 99.9))
    # The host-managed device's worst cases are far tighter.
    assert oc999 < bb999 / 3
    assert float(openchannel.max()) < float(blackbox.max())
