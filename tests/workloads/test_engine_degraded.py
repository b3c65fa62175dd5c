"""Degraded-mode engine semantics: a device that goes read-only or
loses power mid-run yields a clean partial result, never a traceback.

The engine catches ``ReadOnlyError`` / ``OutOfSpace`` / ``PowerLoss``
per request: refused requests are counted as ``failed_requests``, the
run records what degraded it and when, and every request kind the
device can still serve keeps being served (reads and flushes on a
read-only drive; nothing after a power cut).  Counter runs
(``run_counter`` on a zero-latency device) go through the same loop.
"""

from itertools import product

from repro.faults import FaultPlan, FaultSpec, PlannedFaultInjector
from repro.ssd.presets import tiny
from repro.ssd.timed import TimedSSD
from repro.workloads.engine import run_counter, run_timed
from repro.workloads.patterns import Region
from repro.workloads.spec import JobSpec

#: (device is zero-latency, run function): timed mode, counter mode.
MODES = ((False, run_timed), (True, run_counter))


def faulted_device(*specs, spare_blocks_min=0, seed=5,
                   zero_latency=False) -> TimedSSD:
    config = tiny().with_changes(spare_blocks_min=spare_blocks_min)
    injector = PlannedFaultInjector(FaultPlan(seed=seed, specs=specs),
                                    config.geometry)
    return TimedSSD(config, injector=injector, zero_latency=zero_latency)


def read_only_device(zero_latency=False) -> TimedSSD:
    # A program-fail storm from op 20 retires blocks until the spare
    # pool crosses the floor and the FTL declares itself read-only.
    # The firing count is bounded (like campaign plans bound it): an
    # unlimited storm would burn the whole spare pool inside a single
    # write's retry loop and surface as OutOfSpace instead.
    config = tiny().with_changes(spare_blocks_min=4)
    count = config.spare_blocks_at_birth - config.spare_blocks_min + 2
    return faulted_device(
        FaultSpec("program_fail", at_op=20, count=count),
        spare_blocks_min=4, zero_latency=zero_latency,
    )


class TestReadOnlyMidRun:
    def test_open_loop_partial_result(self):
        # 2_500 requests span three of the source's 1,024-request
        # blocks: accounting must hold across a refill.
        for io_count in (300, 2_500):
            device = read_only_device()
            job = JobSpec("w", "randwrite", Region(0, device.num_sectors),
                          io_count=io_count, seed=1, submission="open",
                          rate_iops=5_000.0)
            result = run_timed(device, [job])
            outcome = result.jobs["w"]
            assert result.degraded_kind == "read_only"
            assert result.degraded_at_ns >= 0
            assert 0 <= result.ops_before_degraded < 300
            assert outcome.failed_requests > 0
            assert outcome.requests + outcome.failed_requests == io_count
            assert len(outcome.latencies_us) == outcome.requests

    def test_reads_still_served_after_degradation(self):
        device = read_only_device()
        writer = JobSpec("w", "randwrite", Region(0, device.num_sectors),
                         io_count=200, seed=1, submission="open",
                         rate_iops=5_000.0)
        reader = JobSpec("r", "randread", Region(0, device.num_sectors),
                         io_count=200, seed=2, submission="open",
                         rate_iops=5_000.0)
        result = run_timed(device, [writer, reader])
        assert result.degraded_kind == "read_only"
        assert result.jobs["w"].failed_requests > 0
        # A read-only drive refuses writes but keeps serving reads.
        assert result.jobs["r"].failed_requests == 0
        assert result.jobs["r"].requests == 200

    def test_closed_loop_partial_result(self):
        for (zero_latency, run), iodepth in product(MODES, (4, 1)):
            device = read_only_device(zero_latency)
            job = JobSpec("w", "randwrite", Region(0, device.num_sectors),
                          io_count=300, iodepth=iodepth, seed=1)
            result = run(device, [job])
            outcome = result.jobs["w"]
            assert result.degraded_kind == "read_only"
            assert outcome.failed_requests > 0
            assert outcome.requests + outcome.failed_requests == 300

    def test_fault_free_run_records_nothing(self):
        device = TimedSSD(tiny())
        job = JobSpec("w", "randwrite", Region(0, device.num_sectors),
                      io_count=100, seed=1)
        result = run_timed(device, [job])
        assert result.degraded_kind == ""
        assert result.degraded_at_ns == -1
        assert result.ops_before_degraded == -1
        assert not result.degraded
        assert result.jobs["w"].failed_requests == 0


class TestPowerCutMidRun:
    def test_power_cut_kills_every_job(self):
        for zero_latency, run in MODES:
            device = faulted_device(FaultSpec("power_cut", at_op=60),
                                    zero_latency=zero_latency)
            jobs = [
                JobSpec("a", "randwrite", Region(0, device.num_sectors),
                        io_count=100, seed=1, submission="open",
                        rate_iops=5_000.0),
                JobSpec("b", "randread", Region(0, device.num_sectors),
                        io_count=100, seed=2, submission="open",
                        rate_iops=5_000.0),
            ]
            result = run(device, jobs)
            assert result.degraded_kind == "power_cut"
            assert result.degraded_at_ns >= 0
            # After the cut the device is dead to every job, reads
            # included.
            total_failed = sum(j.failed_requests for j in result.jobs.values())
            total_done = sum(j.requests for j in result.jobs.values())
            assert total_failed > 0
            assert total_done + total_failed == 200
            assert total_done <= result.ops_before_degraded + len(jobs)

    def test_closed_loop_power_cut_terminates(self):
        # 2_500: the device dies with 1,476 requests undrawn and most
        # of a 1,024-request block drawn but unserved — all failed.
        for iodepth, io_count in [(8, 200), (1, 200), (8, 2_500), (1, 2_500)]:
            device = faulted_device(FaultSpec("power_cut", at_op=40))
            job = JobSpec("w", "randwrite", Region(0, device.num_sectors),
                          io_count=io_count, iodepth=iodepth, seed=3)
            result = run_timed(device, [job])
            outcome = result.jobs["w"]
            assert result.degraded_kind == "power_cut"
            assert outcome.requests + outcome.failed_requests == io_count
            assert outcome.failed_requests >= io_count - 41
