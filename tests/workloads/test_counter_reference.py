"""Counter runs against the round-robin loop they replaced.

``run_counter`` is the engine's one scheduler on a zero-latency device.
Every request completes at its submit time, so closed-loop iodepth-1
sources must interleave exactly as the old counter loop did: one request
per source per round, in source order, a source that runs dry dropping
out.  :func:`tests.helpers.run_round_robin` keeps that loop as the
reference; any drift in draw order shows up in the device's state.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ssd.device import SimulatedSSD
from repro.ssd.ftl import P2L_NONE
from repro.ssd.presets import tiny
from repro.workloads.engine import run_counter
from repro.workloads.patterns import Region
from repro.workloads.spec import RW_MODES, JobSpec
from tests.helpers import run_round_robin

CONFIG = tiny()
NUM_SECTORS = CONFIG.logical_sectors


@st.composite
def job_mixes(draw) -> list[JobSpec]:
    """1–4 jobs with distinct budgets (the smallest runs dry first) and
    their own direction, request size and region."""
    count = draw(st.integers(1, 4))
    budgets = draw(st.lists(st.integers(1, 400), min_size=count,
                            max_size=count, unique=True))
    jobs = []
    for k, budget in enumerate(budgets):
        bs = draw(st.sampled_from((1, 2, 3, 8)))
        start = draw(st.integers(0, NUM_SECTORS - bs))
        length = draw(st.integers(bs, NUM_SECTORS - start))
        jobs.append(JobSpec(
            f"j{k}", draw(st.sampled_from(RW_MODES)), Region(start, length),
            bs_sectors=bs, io_count=budget,
            read_fraction=draw(st.sampled_from((0.2, 0.5, 0.8))),
            seed=draw(st.integers(0, 2**16))))
    return jobs


def _state(device) -> list:
    ftl = device.ftl
    return [device.smart_snapshot(), ftl.p2l.tobytes(),
            (ftl.p2l != P2L_NONE).tobytes(), ftl.mapping.l2p.tobytes()]


@settings(max_examples=30, deadline=None)
@given(jobs=job_mixes())
def test_run_counter_interleaves_round_robin(jobs):
    # Preconditioned so reads and trims hit mapped sectors and the
    # fills start GC.
    devices = []
    for _ in range(2):
        device = SimulatedSSD(CONFIG)
        rng = np.random.default_rng(1)
        for lba in rng.integers(NUM_SECTORS - 8, size=600).tolist():
            device.write_sectors(lba, 8)
        devices.append(device)
    engine, reference = devices

    result = run_counter(engine, jobs)
    expected = run_round_robin(reference, jobs)

    assert {name: (job.requests, job.sectors)
            for name, job in result.jobs.items()} == expected
    assert all(job.failed_requests == 0 for job in result.jobs.values())
    assert _state(engine) == _state(reference)
