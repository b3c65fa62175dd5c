"""JobSpec validation and the counter/timed workload engines."""

import numpy as np
import pytest

from repro.ssd.device import SimulatedSSD
from repro.ssd.presets import tiny
from repro.ssd.timed import TimedSSD
from repro.workloads.engine import run_counter, run_timed
from repro.workloads.patterns import Region
from repro.workloads.spec import JobSpec
from tests.helpers import record_requests


def region_for(device, start_frac=0.0, frac=1.0):
    start = int(device.num_sectors * start_frac)
    length = max(8, int(device.num_sectors * frac))
    length = min(length, device.num_sectors - start)
    return Region(start, length)


class TestJobSpec:
    def test_valid(self):
        JobSpec("j", "randwrite", Region(0, 100))

    def test_bad_rw(self):
        with pytest.raises(ValueError):
            JobSpec("j", "randscrub", Region(0, 100))

    def test_bad_counts(self):
        with pytest.raises(ValueError):
            JobSpec("j", "randwrite", Region(0, 100), io_count=0)
        with pytest.raises(ValueError):
            JobSpec("j", "randwrite", Region(0, 100), iodepth=0)
        with pytest.raises(ValueError):
            JobSpec("j", "randrw", Region(0, 100), read_fraction=1.5)

    def test_default_patterns(self):
        assert JobSpec("j", "write", Region(0, 100)).default_pattern() == "sequential"
        assert JobSpec("j", "randwrite", Region(0, 100)).default_pattern() == "uniform"

    def test_request_kind(self):
        rng = np.random.default_rng(0)
        assert JobSpec("j", "randwrite", Region(0, 8)).request_kind(rng) == "write"
        assert JobSpec("j", "randread", Region(0, 8)).request_kind(rng) == "read"
        assert JobSpec("j", "trim", Region(0, 8)).request_kind(rng) == "trim"
        mixed = JobSpec("j", "randrw", Region(0, 8), read_fraction=0.5)
        kinds = {mixed.request_kind(rng) for _ in range(50)}
        assert kinds == {"read", "write"}
        assert mixed.fixed_kind is None
        assert JobSpec("j", "write", Region(0, 8)).fixed_kind == "write"
        assert JobSpec("j", "read", Region(0, 8)).fixed_kind == "read"

    def test_total_sectors(self):
        job = JobSpec("j", "randwrite", Region(0, 100), bs_sectors=4, io_count=10)
        assert job.total_sectors == 40

    @pytest.mark.parametrize("rate", [float("nan"), float("inf")])
    @pytest.mark.parametrize("arrival", ["poisson", "fixed", "bursty",
                                         "diurnal"])
    def test_open_loop_rate_must_be_finite_and_positive(self, arrival, rate):
        """A NaN or infinite rate is not a 1-ns arrival gap (nor, for a
        diurnal curve, a generator that never returns)."""
        with pytest.raises(ValueError, match="finite rate_iops"):
            JobSpec("j", "randwrite", Region(0, 100), submission="open",
                    rate_iops=rate, arrival=arrival)

    @pytest.mark.parametrize("arrival, knob, value", [
        ("diurnal", "diurnal_period_s", float("nan")),
        ("diurnal", "diurnal_period_s", float("inf")),
        ("bursty", "burst_multiplier", float("nan")),
        ("bursty", "burst_multiplier", float("inf")),
    ])
    def test_arrival_shape_must_be_finite(self, arrival, knob, value):
        """A NaN diurnal period is a generator that never returns, and a
        NaN burst multiplier turns burst gaps into 1-ns arrivals."""
        with pytest.raises(ValueError, match=f"{knob} must be finite"):
            JobSpec("j", "randwrite", Region(0, 100), submission="open",
                    rate_iops=1000, arrival=arrival, **{knob: value})

    def test_submission_validation(self):
        with pytest.raises(ValueError):
            JobSpec("j", "randwrite", Region(0, 100), submission="ajar")
        with pytest.raises(ValueError):
            JobSpec("j", "randwrite", Region(0, 100), submission="open")
        with pytest.raises(ValueError):
            JobSpec("j", "randwrite", Region(0, 100), submission="open",
                    rate_iops=1000, arrival="whenever")
        job = JobSpec("j", "randwrite", Region(0, 100), submission="open",
                      rate_iops=1000)
        assert job.is_open_loop
        assert not JobSpec("j", "randwrite", Region(0, 100)).is_open_loop


class TestRunCounter:
    def test_single_job_counts(self):
        device = SimulatedSSD(tiny())
        job = JobSpec("w", "randwrite", region_for(device), io_count=200)
        result = run_counter(device, [job])
        assert result.jobs["w"].requests == 200
        assert result.smart_delta.host_sectors_written == 200

    def test_jobs_interleaved(self):
        device = SimulatedSSD(tiny())
        half = device.num_sectors // 2
        jobs = [
            JobSpec("a", "randwrite", Region(0, half), io_count=100),
            JobSpec("b", "randwrite", Region(half, half), io_count=100),
        ]
        result = run_counter(device, jobs)
        assert result.jobs["a"].requests == 100
        assert result.jobs["b"].requests == 100
        assert result.smart_delta.host_sectors_written == 200

    def test_uneven_io_counts(self):
        device = SimulatedSSD(tiny())
        half = device.num_sectors // 2
        jobs = [
            JobSpec("a", "randwrite", Region(0, half), io_count=50),
            JobSpec("b", "randwrite", Region(half, half), io_count=150),
        ]
        result = run_counter(device, jobs)
        assert result.jobs["b"].requests == 150

    def test_waf_computed_from_delta(self):
        device = SimulatedSSD(tiny())
        job = JobSpec("w", "randwrite", region_for(device), io_count=3000)
        result = run_counter(device, [job])
        assert result.waf > 0

    def test_no_jobs_rejected(self):
        with pytest.raises(ValueError):
            run_counter(SimulatedSSD(tiny()), [])

    def test_read_job_no_programs(self):
        device = SimulatedSSD(tiny())
        write = JobSpec("w", "write", region_for(device), io_count=50)
        run_counter(device, [write])
        before = device.smart_snapshot()
        read = JobSpec("r", "randread", region_for(device), io_count=50)
        run_timed(device, [read])
        delta = device.smart.delta(before)
        assert delta.host_program_pages == 0
        assert delta.host_sectors_read == 50


class TestRunTimed:
    def test_latencies_collected(self):
        device = TimedSSD(tiny())
        job = JobSpec("w", "randwrite", Region(0, device.num_sectors), io_count=100)
        result = run_timed(device, [job])
        assert len(result.jobs["w"].latencies_us) == 100
        assert result.jobs["w"].iops > 0
        assert result.elapsed_ns > 0

    def test_io_count_respected_with_iodepth(self):
        device = TimedSSD(tiny())
        job = JobSpec("w", "randwrite", Region(0, device.num_sectors),
                      io_count=50, iodepth=4)
        result = run_timed(device, [job])
        assert result.jobs["w"].requests == 50

    def test_concurrent_jobs_interfere(self):
        """A job runs slower sharing the device than alone."""
        config = tiny()
        alone = TimedSSD(config)
        half = alone.num_sectors // 2
        job_a = JobSpec("a", "randwrite", Region(0, half), io_count=400)
        solo = run_timed(alone, [job_a])

        shared = TimedSSD(config)
        job_b = JobSpec("b", "randwrite", Region(half, half), io_count=400)
        both = run_timed(shared, [job_a, job_b])
        assert both.jobs["a"].elapsed_ns > solo.jobs["a"].elapsed_ns

    def test_percentile_helper(self):
        device = TimedSSD(tiny())
        job = JobSpec("w", "randwrite", Region(0, device.num_sectors), io_count=200)
        result = run_timed(device, [job])
        p50 = result.jobs["w"].percentile_us(50)
        p99 = result.jobs["w"].percentile_us(99)
        assert p99 >= p50 > 0

    def test_no_jobs_rejected(self):
        with pytest.raises(ValueError):
            run_timed(TimedSSD(tiny()), [])


class TestOpenLoopSubmission:
    def open_job(self, device, rate, io_count=300, seed=3, **kwargs):
        return JobSpec("o", "randwrite", Region(0, device.num_sectors),
                       io_count=io_count, seed=seed, submission="open",
                       rate_iops=rate, **kwargs)

    def test_io_count_respected(self):
        device = TimedSSD(tiny())
        result = run_timed(device, [self.open_job(device, 5_000)])
        assert result.jobs["o"].requests == 300

    def test_address_stream_independent_of_submission_mode(self):
        """Switching closed -> open must not perturb which LBAs a job
        touches: arrival gaps come from a separate RNG stream."""
        config = tiny()
        closed_dev = TimedSSD(config)
        closed_requests = record_requests(closed_dev)
        closed = JobSpec("o", "randwrite", Region(0, closed_dev.num_sectors),
                         io_count=300, seed=3)
        run_timed(closed_dev, [closed])
        open_dev = TimedSSD(config)
        open_requests = record_requests(open_dev)
        run_timed(open_dev, [self.open_job(open_dev, 5_000)])
        closed_lbas = [r.lba for r in closed_requests]
        open_lbas = [r.lba for r in open_requests]
        assert closed_lbas == open_lbas

    def test_submissions_follow_arrival_times(self):
        device = TimedSSD(tiny())
        requests = record_requests(device)
        run_timed(device, [self.open_job(device, 1_000, io_count=100)])
        submits = [r.submit_ns for r in requests]
        assert submits == sorted(submits)
        # Mean gap ~1 ms at 1000 IOPS: the run spans arrival time, well
        # beyond what back-to-back submission would take.
        assert submits[-1] - submits[0] > 50 * 1_000_000

    def test_queue_depth_events_emitted_with_sink(self):
        from repro.obs import CounterSink

        device = TimedSSD(tiny())
        sink = CounterSink()
        run_timed(device, [self.open_job(device, 50_000)], sink=sink)
        assert sink.count("queue_depth") == 300

    def test_no_queue_depth_events_closed_loop(self):
        from repro.obs import CounterSink

        device = TimedSSD(tiny())
        sink = CounterSink()
        job = JobSpec("c", "randwrite", Region(0, device.num_sectors),
                      io_count=100, iodepth=4, seed=3)
        run_timed(device, [job], sink=sink)
        assert sink.count("queue_depth") == 0

    def test_mixed_closed_and_open_jobs(self):
        device = TimedSSD(tiny())
        half = device.num_sectors // 2
        closed = JobSpec("c", "randwrite", Region(0, half), io_count=200,
                         iodepth=2, seed=1)
        open_job = JobSpec("o", "randwrite", Region(half, half), io_count=200,
                           seed=2, submission="open", rate_iops=20_000)
        result = run_timed(device, [closed, open_job])
        assert result.jobs["c"].requests == 200
        assert result.jobs["o"].requests == 200

    def test_saturating_rate_has_a_heavier_tail_than_closed_loop(self):
        """At a rate the device cannot sustain, open-loop queueing grows
        without bound; closed-loop self-throttles at iodepth.  This is
        the mode's reason to exist."""
        device = TimedSSD(tiny())
        closed = JobSpec("c", "randwrite", Region(0, device.num_sectors),
                         io_count=2000, iodepth=4, seed=7)
        closed_p99 = run_timed(device, [closed]).jobs["c"].percentile_us(99)
        device = TimedSSD(tiny())
        saturated = run_timed(device, [self.open_job(
            device, 200_000, io_count=2000, seed=7, iodepth=4)]).jobs["o"]
        assert saturated.percentile_us(99) > 5 * closed_p99

    def test_subsaturation_run_is_arrival_paced(self):
        """Well under capacity the run's wall-clock is set by the
        arrival schedule, not by the device: elapsed time tracks
        io_count / rate instead of collapsing to the device's own
        throughput the way a closed loop does."""
        device = TimedSSD(tiny())
        job = run_timed(device, [self.open_job(
            device, 200.0, io_count=400, seed=7, iodepth=4)]).jobs["o"]
        assert job.elapsed_ns == pytest.approx(400 * 1e9 / 200.0, rel=0.3)
        # And the common case still completes at the admission floor.
        assert job.percentile_us(50) == pytest.approx(8.0, rel=0.01)
