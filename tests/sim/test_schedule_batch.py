"""``Kernel.schedule_batch`` must be indistinguishable from a
``schedule`` loop: same clamping, same tie-breaking, same firing order —
batching changes admission cost, never the timeline."""

import heapq

import numpy as np
import pytest

from repro.sim.kernel import Kernel


def _fire_log(kernel: Kernel) -> list[tuple[int, int]]:
    log: list[tuple[int, int]] = []

    def make(tag: int):
        return lambda: log.append((kernel.now, tag))

    return log, make


def test_batch_matches_schedule_loop_order():
    rng = np.random.default_rng(9)
    times = rng.integers(0, 1_000, size=300).tolist()

    loop_kernel = Kernel()
    loop_log, loop_cb = _fire_log(loop_kernel)
    for tag, at in enumerate(times):
        loop_kernel.schedule(at, loop_cb(tag))
    loop_kernel.run()

    batch_kernel = Kernel()
    batch_log, batch_cb = _fire_log(batch_kernel)
    batch_kernel.schedule_batch(
        [(at, batch_cb(tag), ()) for tag, at in enumerate(times)])
    batch_kernel.run()

    assert batch_log == loop_log


def test_small_batches_against_large_heap_match():
    # Small batches take the push path (re-heapifying a large heap per
    # batch would be quadratic); order must still match the loop.
    rng = np.random.default_rng(4)
    times = rng.integers(0, 5_000, size=400).tolist()

    loop_kernel = Kernel()
    loop_log, loop_cb = _fire_log(loop_kernel)
    batch_kernel = Kernel()
    batch_log, batch_cb = _fire_log(batch_kernel)

    for tag, at in enumerate(times):
        loop_kernel.schedule(at, loop_cb(tag))
    for start in range(0, len(times), 16):
        batch_kernel.schedule_batch(
            [(at, batch_cb(start + i), ())
             for i, at in enumerate(times[start:start + 16])])

    loop_kernel.run()
    batch_kernel.run()
    assert batch_log == loop_log


def test_batch_clamps_past_times_to_now():
    kernel = Kernel()
    kernel.run_until(100)
    log, cb = _fire_log(kernel)
    kernel.schedule_batch([(40, cb(0), ()), (150, cb(1), ())])
    kernel.run()
    assert log == [(100, 0), (150, 1)]


def test_batch_passes_args():
    kernel = Kernel()
    seen = []
    kernel.schedule_batch([(5, seen.append, ("a",)), (3, seen.append, ("b",))])
    kernel.run()
    assert seen == ["b", "a"]


def test_batch_interleaves_with_scheduled_events():
    # Events admitted via schedule and schedule_batch share one sequence
    # counter, so ties resolve in admission order across both APIs.
    kernel = Kernel()
    log, cb = _fire_log(kernel)
    kernel.schedule(10, cb(0))
    kernel.schedule_batch([(10, cb(1), ()), (10, cb(2), ())])
    kernel.schedule(10, cb(3))
    kernel.run()
    assert log == [(10, 0), (10, 1), (10, 2), (10, 3)]


def test_admission_cost_shape(monkeypatch):
    """A batch that dominates the heap is admitted with one heapify and
    no per-event push; small batches into a large heap push one by one
    and never re-heapify the whole list."""
    calls = []
    for name in ("heapify", "heappush"):
        real = getattr(heapq, name)
        monkeypatch.setattr(heapq, name, lambda *args, _name=name, _real=real:
                            calls.append(_name) or _real(*args))
    kernel = Kernel()
    kernel.schedule_batch([(i, lambda: None, ()) for i in range(1_000)])
    assert calls == ["heapify"]

    kernel.schedule_batch([(i, lambda: None, ()) for i in range(10)])
    assert calls == ["heapify"] + ["heappush"] * 10


@pytest.mark.parametrize("count", [1, 64, 65, 500])
def test_batch_sizes_cross_heapify_threshold(count):
    kernel = Kernel()
    log, cb = _fire_log(kernel)
    kernel.schedule_batch([(i % 7, cb(i), ()) for i in range(count)])
    kernel.run()
    assert len(log) == count
    assert [t for t, _ in log] == sorted(t for t, _ in log)
