"""Fleet golden regression tests.

``benchmarks/bench_fleet_chaos.py`` persists ``fleet_slo.csv``, the
merged per-tenant SLO table of the fault-free 256-device reference
fleet.  These tests re-run the same fleet at quarter scale
(64 devices — same tenants, rates, and per-device request counts, just
fewer devices) and assert the merged tail quantiles still agree with
the pinned table within stated tolerances, so a simulator or sketch
regression fails tier-1 instead of silently shifting the golden.

Tolerance notes: merged quantiles are estimates over iid per-device
distributions, so they are stable under fleet-size changes — observed
quarter-scale deviation is ~5% at p99 and ~12% at p99.9.  Medians are
NOT pinned for the latency-sensitive tenant: its p50 sits on the cliff
between cache-hit (~10 us) and program (~1 ms) service times, where a
tiny mass shift moves the interpolated quantile by an order of
magnitude without anything regressing.
"""

import csv
from pathlib import Path

import pytest

from repro.fleet import FleetSpec, default_tenants, run_fleet

RESULTS_DIR = Path(__file__).resolve().parent.parent.parent / "bench_results"


def golden_rows(name: str) -> list[dict]:
    path = RESULTS_DIR / f"{name}.csv"
    assert path.exists(), f"golden figure {path} missing"
    with open(path) as fh:
        return list(csv.DictReader(fh))


@pytest.fixture(scope="module")
def report():
    spec = FleetSpec(tenants=default_tenants(io_count=150), devices=64,
                     preset="tiny", seed=42)
    return run_fleet(spec)


class TestFleetSloGolden:
    @staticmethod
    def golden() -> dict[str, dict]:
        return {r["tenant"]: r for r in golden_rows("fleet_slo")}

    def test_tenants_match(self, report):
        golden = self.golden()
        assert set(golden) == {v.tenant for v in report.verdicts} | {"fleet"}

    def test_slo_verdict_still_pass(self, report):
        golden = self.golden()
        for verdict in report.verdicts:
            assert verdict.ok, verdict
            for column in ("SLO p99", "SLO p99.9"):
                assert "VIOLATED" not in golden[verdict.tenant][column]

    def test_tail_quantiles_within_band(self, report):
        golden = self.golden()
        for verdict in report.verdicts:
            g = golden[verdict.tenant]
            # p99 within 25%, p99.9 within 35% of the pinned run (see
            # module docstring for the observed quarter-scale deviation).
            assert verdict.p99_us == pytest.approx(
                float(g["p99 (us)"]), rel=0.25), verdict.tenant
            assert verdict.p999_us == pytest.approx(
                float(g["p99.9 (us)"]), rel=0.35), verdict.tenant

    def test_fleet_row_tracks_merge(self, report):
        g = self.golden()["fleet"]
        assert report.fleet_sketch.quantile(0.99) == pytest.approx(
            float(g["p99 (us)"]), rel=0.25)

    def test_stable_medians_match_exactly_shaped(self, report):
        # backup (always ~1 program) and analytics (read-dominated) have
        # stable medians; pin them loosely, and pin the golden ordering.
        golden = self.golden()
        by_name = {v.tenant: v for v in report.verdicts}
        assert by_name["backup"].p50_us == pytest.approx(
            float(golden["backup"]["p50 (us)"]), rel=0.2)
        assert by_name["analytics"].p50_us == pytest.approx(
            float(golden["analytics"]["p50 (us)"]), rel=0.2)
        assert float(golden["backup"]["p50 (us)"]) > \
            float(golden["analytics"]["p50 (us)"])

