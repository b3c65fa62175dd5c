"""The RequestSource abstraction: every workload as one stream type."""

import numpy as np
import pytest

from repro.fs.ext4 import Ext4Model
from repro.fs.f2fs import F2fsModel
from repro.ssd.device import SimulatedSSD
from repro.ssd.presets import mqsim_baseline, tiny
from repro.ssd.timed import TimedSSD
from repro.workloads.engine import run_counter, run_timed
from repro.workloads.fileserver import FileServerConfig, FileServerWorkload
from repro.workloads.patterns import Region
from repro.workloads.source import (
    FS_MODELS,
    FsSource,
    JobSource,
    RequestSource,
    TraceSource,
    as_source,
    record_fs_workload,
)
from repro.workloads.spec import RW_MODES, JobSpec
from repro.workloads.trace import BlockTrace, TraceRecord


def _legacy_stream(job: JobSpec):
    """A job's requests drawn one at a time: one rng, LBA draw first,
    then kind draw."""
    rng = np.random.default_rng(job.seed)
    pattern = job.make_pattern()
    for _ in range(job.io_count):
        lba = pattern.next_lba(rng)
        yield job.request_kind(rng), lba, job.bs_sectors


class TestAsSource:
    def test_spec_wraps_into_job_source(self):
        job = JobSpec("j", "randwrite", Region(0, 100), io_count=5)
        source = as_source(job)
        assert isinstance(source, JobSource)
        assert source.name == "j"
        assert source.job is job

    def test_source_passes_through(self):
        source = JobSource(JobSpec("s", "randwrite", Region(0, 100),
                                   io_count=3))
        assert as_source(source) is source

    def test_rejects_other_types(self):
        with pytest.raises(TypeError):
            as_source("randwrite")

    def test_base_class_is_abstract(self):
        source = RequestSource()
        with pytest.raises(NotImplementedError):
            source.next_request()
        with pytest.raises(NotImplementedError):
            source.arrival_times(0)
        assert source.remaining is None


class TestJobSource:
    def test_scheduling_attributes_mirror_the_spec(self):
        job = JobSpec("j", "randrw", Region(0, 100), io_count=7, iodepth=4,
                      seed=3)
        source = JobSource(job)
        assert source.name == "j"
        assert source.iodepth == 4
        assert not source.is_open_loop
        assert source.remaining == 7

    def test_yields_io_count_requests_then_none(self):
        source = JobSource(JobSpec("s", "randwrite", Region(0, 100),
                                   io_count=4, bs_sectors=2))
        requests = list(source)
        assert len(requests) == 4
        assert source.remaining == 0
        assert source.next_request() is None
        for kind, lba, sectors in requests:
            assert kind == "write"
            assert sectors == 2
            assert 0 <= lba <= 98

    @pytest.mark.parametrize("io_count", [1, 1023, 1024, 1025, 2051, 5_000])
    @pytest.mark.parametrize("pattern", [None, "zipf", "hotcold"])
    @pytest.mark.parametrize("rw", RW_MODES)
    def test_block_drawn_stream_is_the_scalar_stream(self, rw, pattern,
                                                     io_count):
        # io_counts sit on and around the 1,024-request block boundary
        job = JobSpec("j", rw, Region(64, 4_000), bs_sectors=4,
                      io_count=io_count, seed=9, pattern=pattern,
                      read_fraction=0.3)
        source = JobSource(job)
        pulled = []
        while (request := source.next_request()) is not None:
            pulled.append(request)
            assert source.remaining == io_count - len(pulled)
        assert pulled == list(_legacy_stream(job))
        assert source.next_request() is None
        assert source.next_request() is None
        assert source.remaining == 0

    def test_open_loop_arrivals_match_the_spec(self):
        job = JobSpec("j", "randwrite", Region(0, 100), io_count=16,
                      submission="open", rate_iops=10_000.0, seed=5)
        source = JobSource(job)
        assert source.is_open_loop
        arrivals = source.arrival_times(1000)
        assert arrivals.shape == (16,)
        assert arrivals.dtype == np.int64
        assert np.all(np.diff(arrivals) >= 1)
        np.testing.assert_array_equal(arrivals,
                                      JobSource(job).arrival_times(1000))


class TestTraceSource:
    def _trace(self):
        return BlockTrace([
            TraceRecord("write", 10, 4, 0.0),
            TraceRecord("read", 10, 4, 25.0),
            TraceRecord("flush", 0, 0, 50.0),
            TraceRecord("trim", 10, 0, 75.0),
        ])

    def test_yields_records_in_order(self):
        source = TraceSource(self._trace())
        assert source.remaining == 4
        assert list(source) == [
            ("write", 10, 4), ("read", 10, 4), ("flush", 0, 0),
            ("trim", 10, 1),  # zero-sector records replay as one sector
        ]
        assert source.remaining == 0

    def test_open_loop_by_default_with_recorded_arrivals(self):
        source = TraceSource(self._trace())
        assert source.is_open_loop
        np.testing.assert_array_equal(
            source.arrival_times(0), [0, 25_000, 50_000, 75_000])

    def test_time_scale_stretches_arrivals(self):
        source = TraceSource(self._trace(), time_scale=2.0)
        np.testing.assert_array_equal(
            source.arrival_times(1000), [1000, 51_000, 101_000, 151_000])

    def test_closed_submission(self):
        source = TraceSource(self._trace(), submission="closed", iodepth=3)
        assert not source.is_open_loop
        assert source.iodepth == 3

    def test_lba_relocation(self):
        # offset alone shifts; modulo wraps into [offset, offset+modulo)
        shifted = TraceSource(self._trace(), lba_offset=100)
        assert shifted.next_request() == ("write", 110, 4)
        wrapped = TraceSource(self._trace(), lba_offset=100, lba_modulo=8)
        kind, lba, sectors = wrapped.next_request()
        assert (kind, sectors) == ("write", 4)
        assert 100 <= lba and lba + sectors <= 108

    def test_validation(self):
        trace = self._trace()
        with pytest.raises(ValueError):
            TraceSource(trace, time_scale=0.0)
        with pytest.raises(ValueError):
            TraceSource(trace, submission="batched")
        with pytest.raises(ValueError):
            TraceSource(trace, iodepth=0)
        with pytest.raises(ValueError):
            TraceSource(trace, lba_offset=-1)
        with pytest.raises(ValueError):
            TraceSource(trace, lba_modulo=0)

    def test_runs_through_both_engine_modes(self):
        counter = SimulatedSSD(tiny())
        result = run_counter(counter, [TraceSource(self._trace())])
        assert result.jobs["trace"].requests == 4
        timed = TimedSSD(tiny())
        result = run_timed(timed, [TraceSource(self._trace())])
        assert result.jobs["trace"].requests == 4
        assert result.jobs["trace"].failed_requests == 0

    @pytest.mark.parametrize("sources", [1, 2])
    def test_empty_open_loop_trace_yields_an_empty_result(self, sources):
        # An open-loop source with no requests has no first arrival to
        # arm, alone or beside a source that does.
        jobs = [TraceSource(BlockTrace(), name="empty")]
        if sources == 2:
            jobs.append(TraceSource(self._trace()))
        result = run_timed(TimedSSD(tiny()), jobs)
        empty = result.jobs["empty"]
        assert (empty.requests, empty.failed_requests) == (0, 0)
        assert len(empty.latencies_us) == 0
        if sources == 2:
            assert result.jobs["trace"].requests == 4


class TestFsSource:
    def test_recorded_workload_is_deterministic(self):
        a = record_fs_workload("ext4", 4096, operations=40, seed=9)
        b = record_fs_workload("ext4", 4096, operations=40, seed=9)
        assert len(a) > 0
        assert a.records == b.records

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError):
            record_fs_workload("zfs", 4096)

    @pytest.mark.parametrize("model", FS_MODELS)
    def test_source_replays_through_the_engine(self, model):
        device = SimulatedSSD(mqsim_baseline(scale=4))
        source = FsSource(model, device.num_sectors, operations=30, seed=2,
                          working_files=10)
        assert source.name == f"fs-{model}"
        assert not source.is_open_loop  # synchronous sector-command semantics
        result = run_counter(device, [source])
        assert result.jobs[source.name].requests == len(source.trace) > 0
        assert source.remaining == 0

    @pytest.mark.parametrize("model_cls,model_name", [
        (Ext4Model, "ext4"), (F2fsModel, "f2fs")])
    def test_replay_matches_direct_run(self, model_cls, model_name):
        # A scenario replayed from its recording drives the device
        # exactly like running the model against the device directly.
        config = mqsim_baseline(scale=4)

        direct = SimulatedSSD(config)
        model = model_cls(direct)
        workload = FileServerWorkload(
            model, FileServerConfig(working_files=12), seed=6)
        workload.prepare()
        workload.run(60)

        replayed = SimulatedSSD(config)
        source = FsSource(model_name, replayed.num_sectors, operations=60,
                          seed=6, working_files=12)
        run_timed(replayed, [source])

        assert direct.smart == replayed.smart
