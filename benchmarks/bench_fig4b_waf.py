"""Fig 4b: WAF of random-write workloads run separately vs. concurrently.

Paper shape: three workloads (4 KB uniform, 4 KB 80/20, 16 KB uniform)
measured separately predict — via IOPS-weighted averaging — a mixed-run
WAF of 0.56; the measured mixed run lands at ~0.9, i.e. the black-box
extrapolation is off by a factor approaching 2.
"""

from repro.core.blackbox.waf import run_waf_study
from repro.exp import Runner
from repro.ssd.presets import mx500_like


def test_fig4b_waf_extrapolation(figure_output):
    study = run_waf_study(
        config=mx500_like(scale=2),
        io_count=12_000,
        prime_fraction=0.5,
        runner=Runner(),
    )
    figure_output(
        "fig4b_waf",
        "Fig 4b — WAF separate vs. concurrent (MX500 model)",
        study.HEADERS,
        study.rows(),
    )
    # Paper shape: separately the workloads look similar and benign;
    # the measured mixed run exceeds the additive prediction by a
    # factor approaching 2 (paper: 0.9 measured vs 0.56 expected).
    wafs = [w.waf for w in study.separate]
    assert max(wafs) / min(wafs) < 1.5
    assert study.measured_mixed_waf > study.expected_mixed_waf
    assert 1.25 <= study.extrapolation_error <= 2.5
