"""Block-trace recording, persistence, and replay through the engine."""

import numpy as np
import pytest

from repro.ssd.device import SimulatedSSD
from repro.ssd.presets import tiny
from repro.ssd.timed import TimedSSD
from repro.workloads.engine import run_timed
from repro.workloads.source import TraceSource
from repro.workloads.trace import (
    BlockTrace,
    TraceFormatError,
    TraceRecord,
    TraceRecorder,
)
from tests.helpers import record_requests


class TestTraceRecord:
    def test_validation(self):
        with pytest.raises(ValueError):
            TraceRecord("scrub", 0, 1, 0.0)
        with pytest.raises(ValueError):
            TraceRecord("write", -1, 1, 0.0)
        for at_us in (-5.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="at_us"):
                TraceRecord("read", 0, 1, at_us)


class TestBlockTrace:
    def test_append_monotone(self):
        trace = BlockTrace()
        trace.append(TraceRecord("write", 0, 1, 0.0))
        trace.append(TraceRecord("write", 1, 1, 5.0))
        with pytest.raises(ValueError):
            trace.append(TraceRecord("write", 2, 1, 1.0))

    def test_roundtrip_text(self):
        trace = BlockTrace([
            TraceRecord("write", 10, 4, 0.0),
            TraceRecord("read", 10, 4, 20.5),
            TraceRecord("trim", 10, 4, 40.0),
            TraceRecord("flush", 0, 0, 60.0),
        ])
        loaded = BlockTrace.loads(trace.dumps())
        assert loaded.records == trace.records
        assert loaded.duration_us == 60.0
        assert loaded.sectors_written() == 4

    def test_roundtrip_file(self, tmp_path):
        trace = BlockTrace([TraceRecord("write", 1, 1, 0.0)])
        path = trace.save(tmp_path / "t" / "trace.csv")
        assert BlockTrace.load(path).records == trace.records

    def test_bad_header_rejected(self):
        with pytest.raises(ValueError):
            BlockTrace.loads("nope,nope\n1,2\n")


class TestTraceRecorder:
    def test_captures_the_block_stream(self):
        recorder = TraceRecorder(1000, rate_iops=1_000_000.0)
        recorder.write_sectors(5, 2)
        recorder.read_sectors(5, 2)
        recorder.trim_sectors(5, 2)
        recorder.flush()
        kinds = [r.kind for r in recorder.trace]
        assert kinds == ["write", "read", "trim", "flush"]
        at_us = [r.at_us for r in recorder.trace]
        assert at_us == sorted(at_us)
        assert recorder.now == 4000  # four ops at 1 us per op

    def test_timestamps_advance_at_the_configured_rate(self):
        recorder = TraceRecorder(1000, rate_iops=10_000)
        recorder.write_sectors(0, 2)
        recorder.read_sectors(0, 1)
        recorder.trim_sectors(0, 1)
        recorder.flush()
        assert [r.kind for r in recorder.trace] == [
            "write", "read", "trim", "flush",
        ]
        times = [r.at_us for r in recorder.trace]
        assert times == sorted(times)
        assert times[1] - times[0] == pytest.approx(100.0)

    @pytest.mark.parametrize("num_sectors,rate_iops,argument", [
        (0, 50_000.0, "num_sectors"),
        (100, 0.0, "rate_iops"),
        (100, -1, "rate_iops"),
        (100, float("nan"), "rate_iops"),
        (100, float("inf"), "rate_iops"),
    ])
    def test_validation(self, num_sectors, rate_iops, argument):
        """Bad arguments raise a ValueError naming the argument, not a
        ZeroDivisionError, a late failure or all-zero timestamps."""
        with pytest.raises(ValueError, match=argument):
            TraceRecorder(num_sectors, rate_iops)


class TestReplay:
    def make_trace(self, device, requests=300, seed=5):
        """Record *requests* random writes and a flush while driving
        *device* with the same commands."""
        recorder = TraceRecorder(device.num_sectors, rate_iops=20_000)
        rng = np.random.default_rng(seed)
        for _ in range(requests):
            lba = int(rng.integers(device.num_sectors))
            recorder.write_sectors(lba, 1)
            device.write_sectors(lba, 1)
        recorder.flush()
        device.flush()
        return recorder.trace

    def replay(self, trace, device, time_scale=1.0) -> list:
        """Every request *device* completes replaying *trace* through
        the engine."""
        completed = record_requests(device)
        run_timed(device, [TraceSource(trace, time_scale=time_scale)])
        return completed

    def test_counter_replay_reproduces_smart(self):
        source = SimulatedSSD(tiny())
        trace = self.make_trace(source)
        target = SimulatedSSD(tiny())
        self.replay(trace, target)
        assert target.smart.host_program_pages == source.smart.host_program_pages
        assert target.smart.ftl_program_pages == source.smart.ftl_program_pages

    def test_timed_replay_honours_arrivals(self):
        device = SimulatedSSD(tiny())
        trace = self.make_trace(device, requests=100)
        completed = self.replay(trace, TimedSSD(tiny()))
        assert len(completed) == len(trace)
        # Open loop: submissions match the recorded timeline.
        writes = [r for r in completed if r.kind == "write"]
        assert writes[1].submit_ns - writes[0].submit_ns == pytest.approx(
            50_000, rel=0.01
        )

    def test_time_scale(self):
        device = SimulatedSSD(tiny())
        trace = self.make_trace(device, requests=50)
        fast = self.replay(trace, TimedSSD(tiny()), time_scale=1.0)
        slow = self.replay(trace, TimedSSD(tiny()), time_scale=4.0)
        assert slow[-1].submit_ns > fast[-1].submit_ns

    def test_time_scale_validated(self):
        with pytest.raises(ValueError):
            TraceSource(BlockTrace(), time_scale=0)
        with pytest.raises(ValueError):
            TraceSource(BlockTrace(), time_scale=float("nan"))


class TestLoadValidation:
    """Malformed traces are rejected at load time, naming the line."""

    HEADER = "op,lba,sectors,at_us\n"

    def _reject(self, text, num_sectors=None):
        with pytest.raises(TraceFormatError) as excinfo:
            BlockTrace.loads(text, num_sectors=num_sectors)
        return excinfo.value

    def test_bad_header_names_line_one(self):
        error = self._reject("kind,addr\nwrite,1\n")
        assert error.line == 1
        assert "trace line 1" in str(error)

    def test_wrong_column_count(self):
        error = self._reject(self.HEADER + "write,1,1,0.0\nwrite,2,1\n")
        assert error.line == 3
        assert "4 columns" in str(error)

    def test_unparseable_fields(self):
        error = self._reject(self.HEADER + "write,one,1,0.0\n")
        assert error.line == 2
        assert "unparseable" in str(error)

    def test_unknown_op_kind(self):
        error = self._reject(self.HEADER + "scrub,1,1,0.0\n")
        assert error.line == 2

    def test_backwards_timestamps(self):
        error = self._reject(
            self.HEADER + "write,1,1,10.0\nwrite,2,1,20.0\nwrite,3,1,5.0\n")
        assert error.line == 4
        assert "backwards" in str(error)

    @pytest.mark.parametrize("at_us", ["nan", "inf", "-inf"])
    def test_non_finite_timestamps(self, at_us):
        error = self._reject(
            self.HEADER + f"write,1,1,0\nwrite,2,1,{at_us}\nwrite,3,1,10\n")
        assert error.line == 3
        assert "finite" in str(error)

    def test_negative_timestamp(self):
        error = self._reject(
            self.HEADER + "write,1,1,0\nread,0,1,-1.0\nwrite,3,1,10\n")
        assert error.line == 3
        assert "non-negative" in str(error)

    def test_lba_out_of_device_range(self):
        # row 3's request [90, 110) spills past a 100-sector device
        error = self._reject(
            self.HEADER + "write,1,1,0.0\nwrite,90,20,1.0\n", num_sectors=100)
        assert error.line == 3
        assert "outside" in str(error)

    def test_zero_sector_requests_occupy_one_lba(self):
        error = self._reject(self.HEADER + "read,100,0,0.0\n", num_sectors=100)
        assert error.line == 2

    def test_flush_rows_exempt_from_lba_bounds(self):
        trace = BlockTrace.loads(self.HEADER + "flush,0,0,0.0\n",
                                 num_sectors=1)
        assert len(trace) == 1

    def test_in_range_trace_loads_with_bounds(self):
        text = self.HEADER + "write,0,4,0.0\nread,96,4,2.0\n"
        assert len(BlockTrace.loads(text, num_sectors=100)) == 2

    def test_error_is_a_value_error(self):
        # legacy callers catch ValueError; the subclass keeps them working
        assert issubclass(TraceFormatError, ValueError)

    def test_load_applies_bounds_from_file(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text(self.HEADER + "write,500,4,0.0\n")
        with pytest.raises(TraceFormatError):
            BlockTrace.load(path, num_sectors=100)
