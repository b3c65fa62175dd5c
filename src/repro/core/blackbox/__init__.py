"""Black-box SMART-statistics analysis (paper §2.2)."""

from repro.core.blackbox.nand_page import (
    NandPageEstimate,
    SweepPoint,
    sequential_write_sweep,
)
from repro.core.blackbox.waf import (
    WafStudy,
    WorkloadWaf,
    default_jobs,
    run_waf_study,
)

__all__ = [
    "sequential_write_sweep", "NandPageEstimate", "SweepPoint",
    "run_waf_study", "WafStudy", "WorkloadWaf", "default_jobs",
]

from repro.core.blackbox.ssdcheck import (  # noqa: E402
    detect_checkpoint_interval,
    detect_fast_buffer,
    detect_write_buffer,
)

__all__ += [
    "detect_write_buffer",
    "detect_checkpoint_interval",
    "detect_fast_buffer",
]
