"""Fig 4a: host bytes per NAND page vs. sequential write size (MX500).

Paper shape: the ratio climbs with write size and converges at ~30 KB —
a 32 KB NAND page carrying 15/16 host data under RAIN striping.
"""

import pytest

from repro.core.blackbox.nand_page import sequential_write_sweep
from repro.ssd.device import SimulatedSSD
from repro.ssd.presets import mx500_like


def test_fig4a_nand_page_convergence(figure_output):
    device = SimulatedSSD(mx500_like(scale=2), model="MX500 (repro)")
    sector = device.sector_size
    estimate = sequential_write_sweep(
        device, sizes_bytes=[sector * (1 << i) for i in range(1, 11)]
    )
    figure_output(
        "fig4a_nand_page",
        "Fig 4a — sequential write sweep (host bytes per NAND page)",
        estimate.HEADERS,
        estimate.rows(),
    )
    converged = estimate.converged_bytes_per_page
    # Paper: ~30 KB per NAND page (32 KiB * 15/16 = 30720 B).
    assert converged == pytest.approx(30720, rel=0.08)
    # Small writes sit below the asymptote.
    assert estimate.points[0].bytes_per_page < converged


def test_fig4a_rain_attribution(figure_output):
    """Ablation built into the figure: disable RAIN and the ratio
    converges at the raw page size instead — attributing the 30 KB
    plateau to parity, as the paper conjectures."""
    config = mx500_like(scale=2).with_changes(rain_stripe=0)
    device = SimulatedSSD(config)
    sector = device.sector_size
    estimate = sequential_write_sweep(
        device, sizes_bytes=[sector * (1 << i) for i in range(3, 11)]
    )
    figure_output(
        "fig4a_no_rain",
        "Fig 4a (ablation) — RAIN disabled",
        estimate.HEADERS,
        estimate.rows(),
    )
    assert estimate.converged_bytes_per_page == pytest.approx(32768, rel=0.08)
