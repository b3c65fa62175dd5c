"""The acceptance check behind the Fig 3 companion figure: a timed
trace's per-event GC-stall record must reconcile exactly with the
latency distribution the run reports.

In the timed model a write's latency is, by construction,
``controller_overhead + admission_stall`` — the stall being the time
the cache waited for flush programs (driven by foreground GC) to
release space.  So the trace must satisfy:

* per-request ``stall_ns`` sums to the same total as the standalone
  ``cache_stall`` events,
* ``latency - stall`` is the uniform controller overhead for every
  write,
* the p99 inflation over the no-load latency equals the p99 stall.

The checks run on a plain device and on every Fig 3 FTL variant, and a
Fig 3 cell's own stall attribution, computed from latencies alone,
must equal the attribution of its trace.
"""

import numpy as np
import pytest

from repro.core.modeling import fidelity
from repro.core.modeling.fidelity import FidelityCellSpec, paper_variants
from repro.obs import (
    JsonlSink,
    attribute_tail,
    load_trace,
    stall_reconciliation,
)
from repro.ssd.presets import tiny
from repro.ssd.timed import TimedSSD
from repro.workloads.engine import run_timed
from repro.workloads.patterns import Region
from repro.workloads.spec import JobSpec


def _traced(config, tmp_path_factory):
    path = tmp_path_factory.mktemp("trace") / "run.jsonl"
    device = TimedSSD(config)
    job = JobSpec("rw", "randwrite", Region(0, device.num_sectors),
                  bs_sectors=1, io_count=3000, iodepth=4, seed=11)
    with JsonlSink(path) as sink:
        run_timed(device, [job], sink=sink)
    return device, load_trace(path)


@pytest.fixture(scope="module")
def traced_run(tmp_path_factory):
    return _traced(tiny(), tmp_path_factory)


class TestStallReconciliation:
    def test_trace_parses_and_is_nonempty(self, traced_run):
        _, records = traced_run
        assert len(records) > 3000
        assert all("event" in r for r in records)

    def test_per_request_stall_equals_per_event_stall(self, traced_run):
        _, records = traced_run
        recon = stall_reconciliation(records)
        assert recon["stalled_writes"] > 0
        assert recon["request_stall_ns"] == recon["event_stall_ns"]

    def test_latency_decomposes_into_overhead_plus_stall(self, traced_run):
        device, records = traced_run
        recon = stall_reconciliation(records)
        assert recon["overhead_uniform"]
        assert recon["overhead_ns"] == device.controller_overhead_ns

    def test_p99_inflation_matches_p99_stall(self, traced_run):
        device, records = traced_run
        writes = [r for r in records
                  if r["event"] == "host_request" and r["kind"] == "write"]
        latencies = np.asarray([r["latency_ns"] for r in writes])
        stalls = np.asarray([r["stall_ns"] for r in writes])
        p99_inflation = (np.percentile(latencies, 99)
                         - device.controller_overhead_ns)
        assert np.percentile(stalls, 99) == pytest.approx(p99_inflation)

    def test_tail_attribution_buckets_cover_all_writes(self, traced_run):
        _, records = traced_run
        buckets = attribute_tail(records)
        assert sum(b.requests for b in buckets) == 3000
        # The tail buckets are stall-dominated; the body is not.
        assert buckets[-1].stall_share > 0.9
        assert buckets[0].stall_share < buckets[-1].stall_share

    def test_stall_never_exceeds_latency(self, traced_run):
        _, records = traced_run
        for r in records:
            if r["event"] == "host_request" and r["kind"] == "write":
                assert 0 <= r["stall_ns"] <= r["latency_ns"]


class TestEveryFig3Variant(TestStallReconciliation):
    """The same checks on each FTL variant the Fig 3 study compares."""

    @pytest.fixture(scope="class", params=paper_variants(tiny()),
                    ids=lambda variant: variant.name)
    def traced_run(self, request, tmp_path_factory):
        return _traced(request.param.config, tmp_path_factory)


def test_fidelity_cell_buckets_equal_its_trace_buckets(tmp_path, monkeypatch):
    """The Fig 3 stall table comes from a cell's latencies, not from a
    trace: traced, the same cell must attribute its tail identically."""
    path = tmp_path / "cell.jsonl"

    def traced_run_timed(device, jobs):
        with JsonlSink(path) as sink:
            return run_timed(device, jobs, sink=sink)

    monkeypatch.setattr(fidelity, "run_timed", traced_run_timed)
    spec = FidelityCellSpec("baseline", tiny(), bs_sectors=2, io_count=1000,
                            precondition_fraction=0.75, tail_points=10)
    result = fidelity.measure_fidelity_cell(spec)
    assert list(result.stall_buckets) == attribute_tail(load_trace(path))
    assert sum(b.requests for b in result.stall_buckets) == 1000
    assert result.stall_buckets[-1].total_stall_ns > 0
