"""RequestSource adapter vs the legacy paths: byte-identical streams.

The PR-10 refactor routes every workload through
:class:`~repro.workloads.source.RequestSource`.  The contract is that
the legacy paths did not move: a :class:`JobSource` makes exactly the
RNG draws the pre-refactor engine loops made inline (LBA draw, then
kind draw, one ``default_rng(seed)`` stream), and a file-system
scenario replayed from its recorded trace drives a device identically
to running the model against the device directly.  These tests pin
both, fingerprint-style, the way ``test_policy_equivalence.py`` pinned
the policy engine.
"""

import hashlib

import numpy as np
import pytest

from repro.fs.ext4 import Ext4Model
from repro.fs.f2fs import F2fsModel
from repro.fs.vfs import DeviceBackend
from repro.ssd.device import SimulatedSSD
from repro.ssd.presets import mqsim_baseline, tiny
from repro.ssd.timed import TimedSSD
from repro.workloads.engine import run_counter, run_timed
from repro.workloads.fileserver import FileServerConfig, FileServerWorkload
from repro.workloads.patterns import Region
from repro.workloads.source import FsSource, JobSource
from repro.workloads.spec import JobSpec

#: the golden scale: enough requests to cross GC/pattern state churn.
GOLDEN_IO = 5_000


def _legacy_stream(job: JobSpec):
    """The pre-refactor engine loops' request generation, verbatim:
    one rng, LBA draw first, then kind draw."""
    rng = np.random.default_rng(job.seed)
    pattern = job.make_pattern()
    for _ in range(job.io_count):
        lba = pattern.next_lba(rng)
        yield job.request_kind(rng), lba, job.bs_sectors


def _fingerprint(stream) -> str:
    h = hashlib.sha256()
    for kind, lba, sectors in stream:
        h.update(f"{kind},{lba},{sectors};".encode())
    return h.hexdigest()


GOLDEN_JOBS = [
    JobSpec("uniform", "randwrite", Region(0, 44_236),
            io_count=GOLDEN_IO, seed=7),
    JobSpec("mixed-zipf", "randrw", Region(0, 44_236), bs_sectors=4,
            io_count=GOLDEN_IO, seed=11, pattern="zipf",
            read_fraction=0.3),
    JobSpec("hotcold", "randwrite", Region(100, 30_000),
            io_count=GOLDEN_IO, seed=23, pattern="hotcold"),
    JobSpec("sequential", "write", Region(0, 44_236), bs_sectors=8,
            io_count=GOLDEN_IO, seed=1),
    JobSpec("open-zipf", "randrw", Region(0, 44_236), io_count=GOLDEN_IO,
            seed=5, submission="open", rate_iops=50_000.0,
            arrival="poisson"),
]


class TestJobStreamIdentity:
    @pytest.mark.parametrize("job", GOLDEN_JOBS, ids=lambda j: j.name)
    def test_adapter_stream_matches_legacy_draw_order(self, job):
        assert _fingerprint(JobSource(job)) == _fingerprint(
            _legacy_stream(job))

    def test_open_loop_arrivals_unchanged(self):
        # arrivals come from the dedicated [seed, 0x0A221] stream the
        # legacy engine used; the adapter must not perturb them.
        job = GOLDEN_JOBS[-1]
        from repro.workloads.engine import _arrival_times

        np.testing.assert_array_equal(JobSource(job).arrival_times(1234),
                                      _arrival_times(job, 1234))


class TestRunIdentity:
    """run_*(JobSpec) and run_*(JobSource) are the same run."""

    @pytest.mark.parametrize("iodepth,submission", [
        (1, "closed"), (8, "closed"), (1, "open")])
    def test_timed_runs_identical(self, iodepth, submission):
        kwargs = {"rate_iops": 40_000.0} if submission == "open" else {}
        results = {}
        for wrap in (False, True):
            config = mqsim_baseline()
            device = TimedSSD(config)
            job = JobSpec("j", "randwrite", Region(0, config.logical_sectors),
                          io_count=3_000, bs_sectors=2, seed=11,
                          iodepth=iodepth, submission=submission, **kwargs)
            results[wrap] = run_timed(device,
                                      [JobSource(job) if wrap else job])
        spec_run, source_run = results[False], results[True]
        np.testing.assert_array_equal(spec_run.jobs["j"].latencies_us,
                                      source_run.jobs["j"].latencies_us)
        assert spec_run.elapsed_ns == source_run.elapsed_ns
        assert spec_run.smart_delta == source_run.smart_delta

    def test_counter_runs_identical(self):
        smarts = {}
        for wrap in (False, True):
            device = SimulatedSSD(tiny())
            jobs = [JobSpec("a", "randwrite", Region(0, 716),
                            io_count=2_000, seed=3),
                    JobSpec("b", "randrw", Region(0, 716),
                            io_count=2_000, seed=4)]
            if wrap:
                jobs = [JobSource(j) for j in jobs]
            run = run_counter(device, jobs)
            smarts[wrap] = (run.smart_delta, device.smart)
        assert smarts[False] == smarts[True]


class TestFsIdentity:
    """An fs scenario replayed from its recording drives the device
    exactly like running the model against the device directly."""

    @pytest.mark.parametrize("model_cls,model_name", [
        (Ext4Model, "ext4"), (F2fsModel, "f2fs")])
    def test_replay_matches_direct_run(self, model_cls, model_name):
        config = mqsim_baseline(scale=4)

        direct = SimulatedSSD(config)
        model = model_cls(DeviceBackend(direct))
        workload = FileServerWorkload(
            model, FileServerConfig(working_files=12), seed=6)
        workload.prepare()
        workload.run(60)

        replayed = SimulatedSSD(config)
        source = FsSource(model_name, replayed.num_sectors, operations=60,
                          seed=6, working_files=12)
        run_timed(replayed, [source])

        assert direct.smart == replayed.smart
