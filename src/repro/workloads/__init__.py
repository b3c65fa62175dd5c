"""Workload generation: fio-like jobs, OLTP transactions, file server."""

from repro.workloads.engine import JobResult, RunResult, run_counter, run_timed
from repro.workloads.patterns import Region, make_pattern
from repro.workloads.spec import JobSpec

__all__ = [
    "JobSpec",
    "Region",
    "make_pattern",
    "run_counter",
    "run_timed",
    "JobResult",
    "RunResult",
]

from repro.workloads.trace import (  # noqa: E402
    BlockTrace,
    TraceRecord,
    TraceRecorder,
)

__all__ += [
    "BlockTrace",
    "TraceRecord",
    "TraceRecorder",
]
