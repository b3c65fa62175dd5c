"""The calibration unit (CU) and the arithmetic built on it.

Raw seconds on a shared 2-core sandbox spread by a third between
identical runs; the same wall time divided by the time of a fixed Python
loop run right next to it spreads by a few percent.  One **CU** is the
mean time of one iteration of :func:`calibration_pass` inside a run, and
every host-time metric is reported as a multiple of it.

The loop body is the simulator's instruction mix in miniature — a numpy
scalar read-modify-write, a ``heapq`` push/pop, a dict store, and a
method call on a slotted object — so interpreter or numpy speed changes
move CU and the workloads together.
"""

from __future__ import annotations

import heapq
import statistics
import time
from typing import Sequence

import numpy as np

#: iterations per calibration pass; about 10 ms on the reference sandbox.
CAL_ITERATIONS = 12_000

#: one CU on the reference sandbox (2-core Xeon @ 2.1 GHz, Python 3.11),
#: in ns.  Only ``setup_s`` uses it, to stay in seconds; every other
#: host-time metric is a plain multiple of the CU measured in its run.
REFERENCE_CU_NS = 650.0


class _Cell:
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def bump(self, amount: int) -> int:
        self.value += amount
        return self.value


def calibration_pass(iterations: int = CAL_ITERATIONS) -> tuple[float, float]:
    """Run the fixed loop once; returns seconds per iteration on the
    wall clock and on this process's CPU clock.

    The two differ when the hypervisor takes the CPU away: wall time
    keeps running, CPU time does not.  Wall-clock metrics are divided by
    the first, CPU-time metrics by the second, so each ratio compares
    like with like.
    """
    array = np.zeros(64, dtype=np.int64)
    heap = list(range(0, 256, 4))
    table: dict[int, int] = {}
    cell = _Cell()
    push, pop = heapq.heappush, heapq.heappop
    cpu_started = time.process_time()
    started = time.perf_counter()
    for i in range(iterations):
        slot = i & 63
        array[slot] = int(array[slot]) + 1
        push(heap, (i * 7919) & 1023)
        pop(heap)
        table[slot] = i
        cell.bump(slot)
    wall = time.perf_counter() - started
    cpu = time.process_time() - cpu_started
    return wall / iterations, cpu / iterations


# ----------------------------------------------------------------------
# CU arithmetic (pure; perfbench/tests pins it on synthetic timings)
# ----------------------------------------------------------------------
#
# A run of N slices takes N + 1 calibration samples: one before each
# slice and one after the last.  ``cals[i]`` and ``cals[i + 1]`` bracket
# slice ``i``.


def cu_seconds(cals: Sequence[float]) -> float:
    """One CU of this run: the mean calibration sample, in seconds."""
    return statistics.fmean(cals)


def cu_per_op(walls: Sequence[float], cals: Sequence[float],
              ops: Sequence[int]) -> float:
    """The headline: total slice time in CU per completed request."""
    return sum(walls) / cu_seconds(cals) / sum(ops)


def slice_cu_per_op(walls: Sequence[float], cals: Sequence[float],
                    ops: Sequence[int]) -> list[float]:
    """Each slice's time per request, in units of the calibration
    samples that bracket that slice — so a slow second on the machine
    scales the slice and its own yardstick together."""
    if len(cals) != len(walls) + 1:
        raise ValueError(f"{len(walls)} slices need {len(walls) + 1} "
                         f"calibration samples, got {len(cals)}")
    return [
        wall / ((cals[i] + cals[i + 1]) / 2) / count
        for i, (wall, count) in enumerate(zip(walls, ops))
    ]


def cu_per_op_p50(walls: Sequence[float], cals: Sequence[float],
                  ops: Sequence[int]) -> float:
    return statistics.median(slice_cu_per_op(walls, cals, ops))
