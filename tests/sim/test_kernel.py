"""Unit tests for the discrete-event simulation kernel."""

import pytest

from repro.obs import CounterSink
from repro.sim import CapacityPool, Kernel, Resource


class TestKernelClock:
    def test_starts_at_zero(self):
        assert Kernel().now == 0

    def test_run_until_advances(self):
        kernel = Kernel()
        kernel.run_until(500)
        assert kernel.now == 500

    def test_run_until_never_goes_backward(self):
        kernel = Kernel()
        kernel.run_until(500)
        kernel.run_until(100)
        assert kernel.now == 500

    def test_events_fire_in_time_order(self):
        kernel = Kernel()
        fired = []
        kernel.schedule(300, fired.append, "c")
        kernel.schedule(100, fired.append, "a")
        kernel.schedule(200, fired.append, "b")
        kernel.run_until(1000)
        assert fired == ["a", "b", "c"]

    def test_same_time_ties_break_by_schedule_order(self):
        kernel = Kernel()
        fired = []
        for tag in ("first", "second", "third"):
            kernel.schedule(100, fired.append, tag)
        kernel.run_until(100)
        assert fired == ["first", "second", "third"]

    def test_clock_is_event_time_during_callback(self):
        kernel = Kernel()
        seen = []
        kernel.schedule(250, lambda: seen.append(kernel.now))
        kernel.run_until(1000)
        assert seen == [250]
        assert kernel.now == 1000

    def test_past_events_clamp_to_now(self):
        kernel = Kernel()
        kernel.run_until(500)
        fired = []
        kernel.schedule(100, fired.append, "late")
        assert kernel.next_event_at() == 500
        kernel.run_until(500)
        assert fired == ["late"]

    def test_events_can_schedule_events(self):
        kernel = Kernel()
        fired = []

        def chain(n):
            fired.append(n)
            if n < 3:
                kernel.call_after(10, chain, n + 1)

        kernel.schedule(0, chain, 0)
        kernel.run()
        assert fired == [0, 1, 2, 3]
        assert kernel.now == 30
        assert kernel.pending_events == 0

    def test_run_until_leaves_future_events_pending(self):
        kernel = Kernel()
        kernel.schedule(1000, lambda: None)
        kernel.run_until(500)
        assert kernel.pending_events == 1
        assert kernel.next_event_at() == 1000


class TestProcess:
    def test_process_sleeps_by_yielded_delay(self):
        kernel = Kernel()
        wakes = []

        def proc():
            for _ in range(3):
                yield 100
                wakes.append(kernel.now)

        kernel.spawn(proc())
        kernel.run()
        assert wakes == [100, 200, 300]

    def test_cancel_stops_process(self):
        kernel = Kernel()
        wakes = []

        def proc():
            while True:
                yield 100
                wakes.append(kernel.now)

        process = kernel.spawn(proc())
        kernel.run_until(250)
        process.cancel()
        kernel.run_until(1000)
        assert wakes == [100, 200]
        assert not process.alive

    def test_exhausted_process_dies(self):
        kernel = Kernel()

        def proc():
            yield 10

        process = kernel.spawn(proc())
        kernel.run()
        assert not process.alive


class TestResource:
    def test_registry_returns_same_object(self):
        kernel = Kernel()
        assert kernel.resource("die/0") is kernel.resource("die/0")
        assert kernel.resource("die/0") is not kernel.resource("die/1")

    def test_hold_moves_free_at_forward(self):
        kernel = Kernel()
        die = kernel.resource("die/0")
        assert die.hold(0, 100) == 100
        assert die.free_at == 100
        # An earlier-ending hold does not move free_at backward.
        die.hold(10, 50)
        assert die.free_at == 100

    def test_busy_accounting(self):
        kernel = Kernel()
        die = kernel.resource("die/0")
        die.hold(0, 100)
        die.hold(100, 250)
        assert die.holds == 2
        assert die.busy_ns == 250
        assert die.utilization(500) == pytest.approx(0.5)
        assert die.utilization(0) == 0.0

    def test_horizon_covers_all_resources(self):
        kernel = Kernel()
        kernel.resource("a").hold(0, 700)
        kernel.resource("b").hold(0, 300)
        assert kernel.horizon() == 700
        kernel.run_until(900)
        assert kernel.horizon() == 900

    def test_holds_emit_resource_busy_events(self):
        kernel = Kernel()
        sink = CounterSink()
        kernel.attach_sink(sink)
        die = kernel.resource("die/0")
        die.hold(0, 100)
        die.hold(150, 200, requested_ns=120)
        assert sink.count("resource_busy") == 2
        assert sink.total("resource_busy") == 150  # busy_ns sum

    def test_no_events_without_sink(self):
        kernel = Kernel()
        die = kernel.resource("die/0")
        die.hold(0, 100)
        # NULL_SINK fast path: nothing recorded, nothing raised.
        assert die.holds == 1


class TestCapacityPool:
    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            CapacityPool(0)

    def test_acquire_with_room_is_immediate(self):
        pool = CapacityPool(10)
        assert pool.acquire(100, 4) == 100
        assert pool.occupied == 4

    def test_acquire_waits_for_earliest_releases(self):
        pool = CapacityPool(4)
        assert pool.acquire(0, 4) == 0
        pool.schedule_release(500, 2)
        pool.schedule_release(300, 2)
        # Needs 2 units: the 300 ns release suffices; heap order pops
        # the earliest first.
        assert pool.acquire(100, 2, overshoot=2) == 300

    def test_release_due_credits_past_releases(self):
        pool = CapacityPool(8)
        pool.acquire(0, 8)
        pool.schedule_release(100, 8)
        pool.release_due(200)
        assert pool.occupied == 0
        assert pool.pending_releases == 0

    def test_occupancy_clamped_to_capacity_plus_overshoot(self):
        pool = CapacityPool(4)
        pool.acquire(0, 4)
        # No releases scheduled: admission cannot wait, occupancy clamps.
        pool.acquire(10, 3, overshoot=3)
        assert pool.occupied == 4 + 3

    def test_admission_never_before_request_time(self):
        pool = CapacityPool(4)
        pool.acquire(0, 4)
        pool.schedule_release(50, 4)
        # The release predates the request: admission is at the request.
        assert pool.acquire(200, 4, overshoot=4) == 200


class TestPowerCut:
    def test_power_loss_raised_at_cut_time(self):
        from repro.sim import PowerLoss

        kernel = Kernel()
        fired = []
        kernel.schedule(100, fired.append, "before")
        kernel.schedule(900, fired.append, "after")
        kernel.power_cut(500)
        with pytest.raises(PowerLoss) as err:
            kernel.run_until(1000)
        assert err.value.at_ns == 500
        assert fired == ["before"]  # later events abandoned

    def test_power_loss_carries_cut_time(self):
        from repro.sim import PowerLoss

        kernel = Kernel()
        kernel.power_cut(250)
        with pytest.raises(PowerLoss, match="250 ns"):
            kernel.run_until(300)
        assert kernel.now == 250
