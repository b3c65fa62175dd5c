"""Black-box analysis (Fig 4) and fidelity studies (Fig 3) at test scale."""

import numpy as np
import pytest

from repro.core.blackbox.nand_page import sequential_write_sweep
from repro.core.blackbox.waf import default_jobs, prime, run_waf_study
from repro.core.modeling.fidelity import (
    MQSIM_ERROR_MARGIN,
    FtlVariant,
    paper_variants,
    run_fidelity_study,
)
from repro.ssd.device import SimulatedSSD
from repro.ssd.presets import mqsim_baseline, mx500_like, tiny


def small_mx500():
    return SimulatedSSD(mx500_like(scale=4), model="mx500-test")


class TestNandPageSweep:
    def test_converges_to_30kb_with_rain(self):
        device = small_mx500()
        sector = device.sector_size
        estimate = sequential_write_sweep(
            device, sizes_bytes=[sector * (1 << i) for i in range(3, 10)]
        )
        # 32 KB pages, 15+1 RAIN: 32 KB * 15/16 = 30 KB per NAND page.
        assert estimate.converged_bytes_per_page == pytest.approx(30720, rel=0.08)

    def test_small_writes_below_asymptote(self):
        device = small_mx500()
        estimate = sequential_write_sweep(device)
        assert estimate.points[0].bytes_per_page < estimate.converged_bytes_per_page

    def test_without_rain_converges_to_page_size(self):
        config = mx500_like(scale=4).with_changes(rain_stripe=0)
        device = SimulatedSSD(config)
        sector = device.sector_size
        estimate = sequential_write_sweep(
            device, sizes_bytes=[sector * (1 << i) for i in range(3, 10)]
        )
        assert estimate.converged_bytes_per_page == pytest.approx(
            config.geometry.page_size, rel=0.08
        )

    def test_points_record_raw_counts(self):
        device = small_mx500()
        estimate = sequential_write_sweep(device, sizes_bytes=[device.sector_size * 64])
        point = estimate.points[0]
        assert point.nand_pages > 0
        assert point.write_bytes == device.sector_size * 64


class TestWafStudy:
    @pytest.fixture(scope="class")
    def study(self):
        return run_waf_study(
            mx500_like(scale=2),
            io_count=6000,
            prime_fraction=0.5,
        )

    def test_three_separate_workloads(self, study):
        assert [w.name for w in study.separate] == [
            "4k-uniform", "4k-8020", "16k-uniform",
        ]
        assert all(w.waf > 0 for w in study.separate)

    def test_separate_wafs_comparable(self, study):
        """Separately, in the priming stage, the three workloads look
        benign and similar — which is exactly what makes the additive
        prediction seem safe."""
        wafs = [w.waf for w in study.separate]
        assert max(wafs) / min(wafs) < 1.5

    def test_mixed_exceeds_expectation(self, study):
        """The paper's headline: the additive model under-predicts."""
        assert study.measured_mixed_waf > study.expected_mixed_waf
        assert study.extrapolation_error > 1.2

    def test_expected_is_weighted_average(self, study):
        weights = np.array([w.requests for w in study.separate], dtype=float)
        wafs = np.array([w.waf for w in study.separate])
        expected = float((weights * wafs).sum() / weights.sum())
        assert study.expected_mixed_waf == pytest.approx(expected)

    def test_prime_fills_address_space(self):
        device = SimulatedSSD(tiny())
        prime(device, fraction=0.5)
        mapped = device.ftl.mapping.mapped_count()
        assert mapped >= int(device.num_sectors * 0.45)


class TestFidelityStudy:
    @pytest.fixture(scope="class")
    def study(self):
        base = mqsim_baseline(scale=4)
        return run_fidelity_study(
            base, block_sizes_sectors=(1, 4), io_count=2000,
            precondition_fraction=0.75,
        )

    def test_all_variants_measured(self, study):
        assert set(study.variants()) == {
            "baseline", "gc=randomized_greedy", "cache=mapping", "alloc=PDWC",
        }
        assert study.block_sizes() == [1, 4]

    def test_p99_spread_substantial(self, study):
        """Fig 3's point: tails differ wildly across basic FTL variants."""
        spreads = [study.p99_spread(bs) for bs in study.block_sizes()]
        assert max(spreads) > 2.0

    def test_tail_curves_monotone(self, study):
        for result in study.results:
            assert np.all(np.diff(result.tail_values_us) >= 0)

    def test_mean_divergence_small_relative_to_tail(self, study):
        """Means cluster; tails spread — the §2.1 argument."""
        bs = study.block_sizes()[0]
        divergences = list(study.mean_divergence(bs).values())
        assert min(divergences) < 3 * MQSIM_ERROR_MARGIN
        assert study.p99_spread(bs) > 1.0 + max(min(divergences), 0.01)

    def test_within_margin_table(self, study):
        table = study.within_mqsim_margin(study.block_sizes()[0])
        assert set(table) == {
            "gc=randomized_greedy", "cache=mapping", "alloc=PDWC",
        }

    def test_custom_variant_list(self):
        base = tiny()
        study = run_fidelity_study(
            base,
            block_sizes_sectors=(1,),
            io_count=300,
            precondition_fraction=0.5,
            variants=[FtlVariant("only", base)],
        )
        assert study.variants() == ["only"]

    def test_unknown_lookup_raises(self, study):
        with pytest.raises(KeyError):
            study.of("nope", 1)


class TestPaperVariants:
    def test_knobs_flipped(self):
        base = mqsim_baseline(scale=4)
        variants = {v.name: v.config for v in paper_variants(base)}
        assert variants["baseline"] == base
        assert variants["gc=randomized_greedy"].gc_policy == "randomized_greedy"
        assert variants["cache=mapping"].cache_designation == "mapping"
        assert variants["alloc=PDWC"].allocation_scheme == "PDWC"
