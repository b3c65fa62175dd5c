"""Determinism: the same JobSpec seed must produce a byte-identical
JSONL trace and identical summary statistics across runs, in both
execution modes.  This is what makes traces diffable across PRs — any
fidelity change shows up as a trace diff."""

import json

import numpy as np

from repro.cli import main
from repro.obs import CounterSink, JsonlSink, TeeSink
from repro.ssd.device import SimulatedSSD
from repro.ssd.presets import tiny
from repro.ssd.timed import TimedSSD
from repro.workloads.engine import run_counter, run_timed
from repro.workloads.patterns import Region
from repro.workloads.spec import JobSpec
from tests.regression.test_pins import _digest, check_pin, event_counts


def _trace_counter(path, seed):
    device = SimulatedSSD(tiny())
    job = JobSpec("det", "randwrite", Region(0, device.num_sectors),
                  bs_sectors=1, io_count=2500, seed=seed)
    counter = CounterSink()
    with JsonlSink(path) as jsonl:
        result = run_counter(device, [job], sink=TeeSink(jsonl, counter))
    return result, counter


def _trace_timed(path, seed):
    device = TimedSSD(tiny())
    job = JobSpec("det", "randwrite", Region(0, device.num_sectors),
                  bs_sectors=1, io_count=2000, iodepth=4, seed=seed)
    counter = CounterSink()
    with JsonlSink(path) as jsonl:
        result = run_timed(device, [job], sink=TeeSink(jsonl, counter))
    return result, counter


class TestCounterModeDeterminism:
    def test_identical_trace_bytes_and_stats(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        result_a, counter_a = _trace_counter(a, seed=42)
        result_b, counter_b = _trace_counter(b, seed=42)
        assert a.read_bytes() == b.read_bytes()
        assert len(a.read_bytes()) > 0
        assert counter_a.counts == counter_b.counts
        assert counter_a.metric_totals == counter_b.metric_totals
        assert result_a.waf == result_b.waf

    def test_different_seed_different_trace(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        _trace_counter(a, seed=42)
        _trace_counter(b, seed=43)
        assert a.read_bytes() != b.read_bytes()

    def test_cli_counter_trace_is_pinned(self, tmp_path, capsys):
        # Each host_request precedes the events it causes, and the run
        # ends with one flush.
        path = tmp_path / "counter.jsonl"
        assert main(["trace", "--mode", "counter", "--preset", "tiny",
                     "--writes", "3000", "--seed", "7",
                     "--out", str(path)]) == 0
        capsys.readouterr()
        data = path.read_bytes()
        check_pin("cli_counter_trace", _digest(data), {
            "lines": data.count(b"\n"),
            **event_counts(json.loads(line)["event"]
                           for line in data.splitlines())})


class TestTimedModeDeterminism:
    def test_identical_trace_bytes_and_stats(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        result_a, counter_a = _trace_timed(a, seed=42)
        result_b, counter_b = _trace_timed(b, seed=42)
        assert a.read_bytes() == b.read_bytes()
        assert len(a.read_bytes()) > 0
        assert counter_a.counts == counter_b.counts
        assert counter_a.metric_totals == counter_b.metric_totals
        lat_a = result_a.jobs["det"].latencies_us
        lat_b = result_b.jobs["det"].latencies_us
        assert np.array_equal(lat_a, lat_b)

    def test_different_seed_different_trace(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        _trace_timed(a, seed=42)
        _trace_timed(b, seed=43)
        assert a.read_bytes() != b.read_bytes()
