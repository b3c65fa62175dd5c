"""Open-loop arrival processes: diurnal and bursty (fleet tenants).

The fleet layer keys on these being deterministic per seed and on the
address/kind stream being independent of the arrival mode (the
dedicated arrival RNG stream), so both are pinned here alongside the
statistical shape of each process.
"""

import gc
import hashlib
import tracemalloc

import numpy as np
import pytest

from repro.ssd.presets import tiny
from repro.ssd.timed import TimedSSD
from repro.workloads.engine import _arrival_times, run_timed
from repro.workloads.patterns import Region
from repro.workloads.spec import JobSpec


def open_job(arrival: str, io_count: int = 2000, rate: float = 50_000.0,
             **kwargs) -> JobSpec:
    return JobSpec("t", "randwrite", Region(0, 512), io_count=io_count,
                   submission="open", rate_iops=rate, arrival=arrival,
                   seed=7, **kwargs)


class TestValidation:
    def test_unknown_arrival_rejected(self):
        with pytest.raises(ValueError, match="arrival"):
            open_job("lumpy")

    @pytest.mark.parametrize("kwargs", [
        {"diurnal_amplitude": 1.0},
        {"diurnal_amplitude": -0.1},
        {"diurnal_period_s": 0.0},
    ])
    def test_diurnal_bounds(self, kwargs):
        with pytest.raises(ValueError):
            open_job("diurnal", **kwargs)

    @pytest.mark.parametrize("kwargs", [
        {"burst_multiplier": 0.5},
        {"burst_len": 0},
        {"burst_fraction": 0.0},
        {"burst_fraction": 1.0},
    ])
    def test_bursty_bounds(self, kwargs):
        with pytest.raises(ValueError):
            open_job("bursty", **kwargs)


class TestArrivalShapes:
    @pytest.mark.parametrize("arrival", ["poisson", "fixed", "diurnal", "bursty"])
    def test_deterministic_and_strictly_increasing(self, arrival):
        job = open_job(arrival)
        a = _arrival_times(job, 1000)
        b = _arrival_times(job, 1000)
        assert np.array_equal(a, b)
        assert a.size == job.io_count
        assert (np.diff(a) >= 1).all()
        assert a[0] >= 1000

    def test_arrival_mode_does_not_perturb_address_stream(self):
        # Same seed, different arrival process: the written LBAs must be
        # identical because arrivals come from a dedicated RNG stream.
        lbas = {}
        for arrival in ("poisson", "diurnal", "bursty"):
            job = open_job(arrival, io_count=300, rate=20_000.0)
            pattern, rng = job.make_pattern(), np.random.default_rng(job.seed)
            lbas[arrival] = [pattern.next_lba(rng) for _ in range(300)]
        assert lbas["poisson"] == lbas["diurnal"] == lbas["bursty"]

    def test_diurnal_rate_tracks_the_curve(self):
        # With a strong amplitude, the half-period where sin > 0 must
        # receive measurably more arrivals than the half where sin < 0.
        period_ns = int(0.05 * 1e9)
        job = open_job("diurnal", io_count=20_000, rate=400_000.0,
                       diurnal_amplitude=0.9, diurnal_period_s=0.05)
        times = _arrival_times(job, 0)
        phase = (times % period_ns) / period_ns
        first_half = int((phase < 0.5).sum())
        second_half = int((phase >= 0.5).sum())
        assert first_half > 1.5 * second_half

    @pytest.mark.parametrize("io_count, amplitude, period_s, digest", [
        (20_000, 0.9, 0.05,
         "9dcc49b9f341da26512b3a2de9a6c8969c3568fc91f7cec68186733a6ea97aa3"),
        (300, 0.99, 0.001,
         "c76c3198be1e7d5c3c5d3544f5e0437e69237aff31a9f542c868f9db84568b24"),
    ])
    def test_diurnal_arrivals_are_pinned(self, io_count, amplitude, period_s,
                                         digest):
        # Every arrival, bit for bit: thinning is done in steps, but the
        # draws and their order are those of one call per chunk.
        job = open_job("diurnal", io_count=io_count, rate=400_000.0,
                       diurnal_amplitude=amplitude,
                       diurnal_period_s=period_s)
        times = _arrival_times(job, 1000)
        assert times.dtype == np.int64
        assert hashlib.sha256(times.tobytes()).hexdigest() == digest

    def test_diurnal_arrivals_peak_memory(self):
        # Candidates (two per request in the first chunk) and the output
        # are the only arrays that grow with the job.
        job = open_job("diurnal", io_count=200_000)
        _arrival_times(job, 0)
        gc.collect()
        tracemalloc.start()
        try:
            _arrival_times(job, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 40 * job.io_count, (
            f"{peak / job.io_count:.1f} B peak per request")

    def test_diurnal_zero_amplitude_is_plain_poisson(self):
        flat = open_job("diurnal", diurnal_amplitude=0.0)
        poisson = open_job("poisson")
        assert np.array_equal(_arrival_times(flat, 0), _arrival_times(poisson, 0))

    def test_bursty_has_heavier_gap_tail_than_its_bursts(self):
        job = open_job("bursty", io_count=20_000, rate=50_000.0,
                       burst_multiplier=16.0, burst_len=64,
                       burst_fraction=0.2)
        gaps = np.diff(_arrival_times(job, 0)).astype(float)
        # Burst gaps are 16x shorter, so the gap distribution must be
        # bimodal-ish: the 25th percentile well under the Poisson mean,
        # while the mean stays near the mixture expectation.
        mean_gap = 1e9 / job.rate_iops
        assert np.percentile(gaps, 25) < 0.3 * mean_gap
        assert gaps.mean() > 0.5 * mean_gap

    def test_bursty_mean_burst_share_is_calibrated(self):
        # ~burst_fraction of requests should arrive at burst pacing.
        job = open_job("bursty", io_count=50_000, rate=50_000.0,
                       burst_multiplier=32.0, burst_len=50,
                       burst_fraction=0.1)
        gaps = np.diff(_arrival_times(job, 0)).astype(float)
        burst_cut = (1e9 / job.rate_iops) / 8.0  # well between the modes
        share = (gaps < burst_cut).mean()
        assert 0.05 < share < 0.25


class TestEngineIntegration:
    @pytest.mark.parametrize("arrival",
                             ["poisson", "fixed", "diurnal", "bursty"])
    def test_runs_end_to_end_and_is_deterministic(self, arrival):
        def run():
            device = TimedSSD(tiny())
            job = JobSpec("t", "randwrite", Region(0, device.num_sectors),
                          io_count=400, submission="open", rate_iops=30_000.0,
                          arrival=arrival, seed=11)
            return run_timed(device, [job])
        a, b = run(), run()
        assert a.jobs["t"].requests == 400
        assert np.array_equal(a.jobs["t"].latencies_us, b.jobs["t"].latencies_us)
        assert a.elapsed_ns == b.elapsed_ns
