"""Golden-figure regression tests.

The benchmarks under ``benchmarks/`` regenerate the paper's figures and
persist them to ``bench_results/*.csv``; those CSVs are the pinned
record of what this reproduction produces.  ROADMAP.md tells every PR to
"refactor freely" — these tests are what makes that safe: they re-run
the cheap, deterministic studies at reduced scale and assert the
headline numbers still agree with the pinned CSVs within stated
tolerances, so a fidelity regression fails tier-1 instead of silently
shifting a figure.

Scale notes: the reduced runs use smaller geometries / request counts
than the benchmarks, so scale-dependent magnitudes (absolute WAF, erase
counts) are compared through scale-invariant headlines — convergence
asymptotes, ratios, orderings — with tolerances stated at each assert.
"""

import csv
from pathlib import Path

import numpy as np
import pytest

RESULTS_DIR = Path(__file__).resolve().parent.parent.parent / "bench_results"


def golden_rows(name: str) -> list[dict]:
    path = RESULTS_DIR / f"{name}.csv"
    assert path.exists(), f"golden figure {path} missing"
    with open(path) as fh:
        return list(csv.DictReader(fh))


class TestFig3TailLatency:
    """Fig 3 headline: the timed device reproduces the pinned 4K rows of
    ``fig3_tail_latency.csv`` at the benchmark's own configuration
    (mqsim_baseline(scale=2), io_count=3000, precondition 0.75), not
    merely "close on a smaller config"."""

    @pytest.fixture(scope="class")
    def study(self):
        from repro.core.modeling.fidelity import run_fidelity_study
        from repro.ssd.presets import mqsim_baseline

        return run_fidelity_study(
            mqsim_baseline(scale=2),
            block_sizes_sectors=(1,),
            io_count=3000,
            precondition_fraction=0.75,
        )

    @pytest.fixture(scope="class")
    def golden_4k(self):
        rows = golden_rows("fig3_tail_latency")
        return {r["FTL variant"]: r for r in rows if r["request"] == "4K"}

    def test_every_variant_matches_golden(self, study, golden_4k):
        assert golden_4k, "no 4K rows in the golden CSV"
        for result in study.results:
            golden = golden_4k[result.variant]
            # Tolerance: the CSV rounds to 0.1 us / whole IOPS; 0.5%
            # covers rounding and nothing else — the runs are pinned
            # deterministic.
            assert result.summary.p50 == pytest.approx(
                float(golden["p50 (us)"]), rel=0.005), result.variant
            assert result.summary.p99 == pytest.approx(
                float(golden["p99 (us)"]), rel=0.005), result.variant
            assert result.summary.p999 == pytest.approx(
                float(golden["p99.9 (us)"]), rel=0.005), result.variant
            assert result.iops == pytest.approx(
                float(golden["IOPS"]), rel=0.005), result.variant

    def test_variant_ordering_preserved(self, study, golden_4k):
        """The figure's story — PDWC's p99 stands out from baseline —
        survives independent of absolute values."""
        by_variant = {r.variant: r for r in study.results}
        assert (by_variant["alloc=PDWC"].summary.p99
                > 1.5 * by_variant["baseline"].summary.p99)


class TestFig4aNandPageConvergence:
    """Fig 4a headline: host bytes per NAND page converge at the RAIN
    signature 32 KiB * 15/16 ≈ 30 KiB.  The asymptote is structural
    (page size and stripe width), so it is scale-invariant."""

    @pytest.fixture(scope="class")
    def estimate(self):
        from repro.core.blackbox.nand_page import sequential_write_sweep
        from repro.ssd.device import SimulatedSSD
        from repro.ssd.presets import mx500_like

        device = SimulatedSSD(mx500_like(scale=4))
        sector = device.sector_size
        return sequential_write_sweep(
            device, sizes_bytes=[sector * (1 << i) for i in range(1, 11)]
        )

    def test_converged_ratio_matches_golden(self, estimate):
        rows = golden_rows("fig4a_nand_page")
        golden_tail = [float(r["bytes/page"]) for r in rows[-3:]]
        golden_converged = sum(golden_tail) / len(golden_tail)
        # Tolerance: 2% — the asymptote depends only on page size and
        # RAIN stripe, not on geometry scale.
        assert estimate.converged_bytes_per_page == pytest.approx(
            golden_converged, rel=0.02
        )

    def test_curve_shape_matches_golden(self, estimate):
        rows = golden_rows("fig4a_nand_page")
        # Small writes sit below the asymptote in both runs, and the
        # curve is (weakly) increasing toward it.
        golden_first = float(rows[0]["bytes/page"])
        assert golden_first < float(rows[-1]["bytes/page"])
        ratios = [p.bytes_per_page for p in estimate.points]
        assert ratios[0] < estimate.converged_bytes_per_page
        assert ratios[-1] == pytest.approx(
            estimate.converged_bytes_per_page, rel=0.05
        )


class TestFig4bWafExtrapolationGap:
    """Fig 4b headline: the additive (IOPS-weighted) WAF prediction
    undershoots the measured mixed run.  The pinned gap is ~1.87x; at
    reduced scale the gap shrinks but must stay well above 1 and within
    a stated band of the golden ratio."""

    @pytest.fixture(scope="class")
    def study(self):
        from repro.core.blackbox.waf import run_waf_study
        from repro.ssd.presets import mx500_like

        return run_waf_study(
            mx500_like(scale=4),
            io_count=4000,
            prime_fraction=0.5,
        )

    @staticmethod
    def golden_error() -> float:
        rows = golden_rows("fig4b_waf")
        by_name = {r["workload"]: r for r in rows}
        expected = float(by_name["expected mixed (weighted)"]["WAF"])
        measured = float(by_name["measured mixed"]["WAF"])
        return measured / expected

    def test_measured_exceeds_additive_prediction(self, study):
        assert study.measured_mixed_waf > study.expected_mixed_waf

    def test_gap_within_band_of_golden(self, study):
        golden = self.golden_error()
        assert golden > 1.5  # the pinned figure itself shows the gap
        # Tolerance: reduced scale damps the interference, so accept
        # [0.55x, 1.45x] of the pinned 1.87x gap — still far from 1.0.
        assert 0.55 * golden <= study.extrapolation_error <= 1.45 * golden
        assert study.extrapolation_error >= 1.2

    def test_separate_runs_look_alike(self, study):
        # The trap the paper sets: separately, the workloads look
        # similar/benign (golden spread < 1.5x), which is what makes
        # the additive prediction tempting.
        rows = golden_rows("fig4b_waf")
        golden_wafs = [float(r["WAF"]) for r in rows
                       if r["workload"].endswith("uniform")
                       or r["workload"].endswith("8020")]
        assert max(golden_wafs) / min(golden_wafs) < 1.5
        wafs = [w.waf for w in study.separate]
        assert max(wafs) / min(wafs) < 1.5


class TestAblationGcPolicy:
    """GC-policy ablation headline: greedy-family policies beat random
    by a wide margin under 80/20 churn (Van Houdt's first-order
    effect).  The golden random/greedy ratio is ~2.9; the ordering and
    the ratio band must survive any refactor."""

    @pytest.fixture(scope="class")
    def wafs(self):
        from repro.exp import ChurnCell, run_churn_cell
        from repro.ssd.policy import VICTIM
        from repro.ssd.presets import tiny

        return {policy: run_churn_cell(ChurnCell(
                    tiny().with_changes(gc_policy=policy), writes=6000),
                    seed=3).waf
                for policy in VICTIM}

    @staticmethod
    def golden_wafs() -> dict[str, float]:
        return {r["policy"]: float(r["WAF"])
                for r in golden_rows("ablation_gc_policy")}

    def test_random_is_worst_in_both(self, wafs):
        golden = self.golden_wafs()
        assert max(golden, key=golden.get) == "random"
        assert max(wafs, key=wafs.get) == "random"

    def test_greedy_family_beats_random(self, wafs):
        # Greedy, randomized-greedy, and cost-benefit all clearly beat
        # random — with margin, so a subtly-broken victim policy fails.
        for policy in ("greedy", "randomized_greedy", "cost_benefit"):
            assert wafs[policy] <= 0.8 * wafs["random"], policy

    def test_random_over_greedy_ratio_within_band(self, wafs):
        golden = self.golden_wafs()
        golden_ratio = golden["random"] / golden["greedy"]
        ratio = wafs["random"] / wafs["greedy"]
        # Tolerance: ±45% of the pinned ratio (reduced write count
        # shrinks GC pressure and with it the spread).
        assert golden_ratio * 0.55 <= ratio <= golden_ratio * 1.45

    def test_greedy_near_cost_benefit(self, wafs):
        golden = self.golden_wafs()
        assert golden["cost_benefit"] == pytest.approx(golden["greedy"],
                                                       rel=0.1)
        assert wafs["cost_benefit"] == pytest.approx(wafs["greedy"], rel=0.15)


class TestWearLevelingAblation:
    """Wear-leveling ablation headline: static leveling narrows the
    erase-count spread (max - min, and stddev) at the cost of cold-block
    migrations.  Erase counts grow with the write count, so only the
    ordering is compared — in the reduced run and in the golden's rows."""

    @pytest.fixture(scope="class")
    def wear(self):
        from repro.ssd.device import SimulatedSSD
        from repro.ssd.presets import tiny

        def churn(leveling: bool, writes: int = 8000) -> dict[str, float]:
            device = SimulatedSSD(tiny().with_changes(
                wear_leveling=leveling, wear_leveling_delta=6))
            rng = np.random.default_rng(7)
            # Cold data pins blocks; hot churn wears the rest.
            for lpn in range(128):
                device.write_sectors(lpn, 1)
            device.flush()
            for i in range(writes):
                lba = 128 + int(rng.integers(device.num_sectors - 128))
                device.write_sectors(lba, 1)
                if i % 500 == 499:
                    device.idle(max_blocks=4)
            device.flush()
            summary = device.ftl.nand.wear_summary()
            return {"spread": summary["max"] - summary["min"],
                    "stddev": summary["std"],
                    "migrations": device.ftl.stats.wear_migrations}

        return {"off": churn(False), "on": churn(True)}

    @staticmethod
    def golden_wear() -> dict[str, dict[str, float]]:
        return {
            r["leveling"]: {
                "spread": float(r["max erases"]) - float(r["min erases"]),
                "stddev": float(r["stddev"]),
                "migrations": int(r["migrations"]),
            }
            for r in golden_rows("ablation_wear_leveling")
        }

    @pytest.mark.parametrize("source", ["reduced run", "golden"])
    def test_leveling_narrows_the_spread(self, wear, source):
        rows = wear if source == "reduced run" else self.golden_wear()
        assert rows["on"]["spread"] < rows["off"]["spread"]
        assert rows["on"]["stddev"] < rows["off"]["stddev"]
        assert rows["on"]["migrations"] >= 1
        assert rows["off"]["migrations"] == 0
