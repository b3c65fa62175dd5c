"""Throughput floors for two simulator primitives.

End-to-end simulator speed is measured by ``perfbench`` (absolute host
cost per simulated op, per workload and per layer; see
``perfbench/README.md``).  This bench keeps the two head-to-head checks
nothing else makes: each scenario times a primitive against the work it
replaced, in the same job on the same machine, asserts both produce the
same answer, and asserts a minimum speedup *ratio* — machine-tolerant
where an absolute ops/sec floor would not be.

Scenarios:

* ``wear_stats``  — ``NandArray.wear_summary`` from the incremental
  aggregates vs a full array rescan per call.
* ``kernel_batch`` — ``Kernel.schedule_batch`` one-shot admission vs a
  per-event ``schedule`` loop.
"""

import time

import numpy as np
import pytest

from benchmarks.conftest import run_once
from repro.flash.nand import NandArray
from repro.sim.kernel import Kernel
from repro.ssd.presets import mqsim_baseline

#: Pinned speedup floors (primitive vs the work it replaced).  The
#: measured ratios carry ~30-40% margin so a loaded CI machine does not
#: flake; a real regression still trips them.
FLOORS = {
    "wear_stats": 8.0,
    "kernel_batch": 0.90,
}

WEAR_CALLS = 1_500
BATCH_EVENTS = 150_000


def _scenario_wear() -> dict:
    nand = NandArray(mqsim_baseline().geometry)
    rng = np.random.default_rng(5)
    for block in rng.integers(0, nand.total_blocks, size=400):
        nand.erase(int(block))

    started = time.perf_counter()
    for _ in range(WEAR_CALLS):
        incremental = nand.wear_summary()
    inc_s = time.perf_counter() - started

    started = time.perf_counter()
    for _ in range(WEAR_CALLS):
        nand.reindex_wear()  # what a per-call full scan used to pay
        rescan = nand.wear_summary()
    scan_s = time.perf_counter() - started

    assert incremental == rescan
    return {"fast": WEAR_CALLS / inc_s, "baseline": WEAR_CALLS / scan_s,
            "ops": WEAR_CALLS}


def _scenario_batch() -> dict:
    rng = np.random.default_rng(3)
    times = rng.integers(0, 10_000_000, size=BATCH_EVENTS).tolist()

    def noop() -> None:
        pass

    kernel = Kernel()
    schedule = kernel.schedule
    started = time.perf_counter()
    for at_ns in times:
        schedule(at_ns, noop)
    loop_s = time.perf_counter() - started
    kernel.run()
    fired_loop = next(kernel._seq)

    kernel = Kernel()
    events = [(at_ns, noop, ()) for at_ns in times]
    started = time.perf_counter()
    kernel.schedule_batch(events)
    batch_s = time.perf_counter() - started
    kernel.run()
    fired_batch = next(kernel._seq)

    assert fired_loop == fired_batch  # both admitted every event
    return {"fast": BATCH_EVENTS / batch_s,
            "baseline": BATCH_EVENTS / loop_s, "ops": BATCH_EVENTS}


SCENARIOS = [
    ("wear_stats", _scenario_wear),
    ("kernel_batch", _scenario_batch),
]


@pytest.mark.benchmark(group="kernel-throughput")
def test_kernel_throughput_floor(benchmark, figure_output):
    def experiment():
        return {name: fn() for name, fn in SCENARIOS}

    results = run_once(benchmark, experiment)

    rows = []
    failures = []
    for name, _ in SCENARIOS:
        r = results[name]
        ratio = r["fast"] / r["baseline"]
        rows.append([name, r["ops"], round(r["baseline"]), round(r["fast"]),
                     round(ratio, 2), FLOORS[name]])
        if ratio < FLOORS[name]:
            failures.append(f"{name}: {ratio:.2f}x < floor {FLOORS[name]}x")

    figure_output(
        "kernel_throughput",
        "Simulator primitives — incremental wear stats and batch event "
        "admission vs the per-call work they replaced",
        ["scenario", "ops", "baseline ops/s", "fast ops/s", "speedup",
         "floor"],
        rows,
    )
    assert not failures, "throughput floor violated: " + "; ".join(failures)
