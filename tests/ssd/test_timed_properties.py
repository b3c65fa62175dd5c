"""Timed-scheduler properties: protocol rules and mode equivalence."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.flash.timing import PSLC, profile
from repro.obs.events import FlashOpIssued, ResourceBusy
from repro.ssd.device import SimulatedSSD
from repro.ssd.presets import evo840_like, mqsim_baseline, tiny, vertex2_like
from repro.ssd.timed import BusTap, TimedSSD
from tests.helpers import ListSink, record_requests


def die_windows(sink):
    """Every scheduled op with its die busy window, from the trace.

    The FTL announces each op it emits (``flash_op``) and the timed
    layer holds exactly one die interval per op (``resource_busy`` on
    ``die/<n>``), both in emission order, so the two streams pair up.
    """
    ops = [e for e in sink.events if isinstance(e, FlashOpIssued)]
    holds = [e for e in sink.events
             if isinstance(e, ResourceBusy) and e.resource.startswith("die/")]
    assert len(ops) == len(holds)
    return [(op.kind, int(hold.resource.removeprefix("die/")),
             hold.start_ns, hold.start_ns + hold.busy_ns)
            for op, hold in zip(ops, holds)]  # kind, die, start, end


class TestProtocolRules:
    def run_workload(self, config, writes=1500, seed=0):
        device = TimedSSD(config)
        requests = record_requests(device)
        sink = ListSink()
        device.attach_sink(sink)
        rng = np.random.default_rng(seed)
        for _ in range(writes):
            device.submit("write", int(rng.integers(device.num_sectors)), 1,
                          at_ns=device.now)
        device.flush()
        return device, sink, requests

    def test_die_busy_windows_never_overlap(self):
        _, sink, _ = self.run_workload(tiny())
        by_die: dict[int, list[tuple[int, int]]] = {}
        for _, die, start, end in die_windows(sink):
            by_die.setdefault(die, []).append((start, end))
        assert by_die
        for die, spans in by_die.items():
            assert spans == sorted(spans)  # claims resolve in call order
            for (a0, a1), (b0, b1) in zip(spans, spans[1:]):
                assert b0 >= a1  # a die does one thing at a time
                # die_free only ever moves forward
                assert b1 >= a1

    def test_resource_timelines_monotone(self):
        device, _, _ = self.run_workload(tiny(), writes=800, seed=1)
        resources = device.kernel.resources.values()
        assert min(r.free_at for r in resources) >= 0
        # The kernel's busy accounting agrees with the claims made.
        assert all(r.busy_ns <= r.free_at for r in resources
                   if r.name.startswith("die/"))

    def test_request_completion_after_submission(self):
        _, _, requests = self.run_workload(tiny(), writes=500, seed=2)
        assert len(requests) == 501  # the writes and the closing flush
        for request in requests:
            assert request.complete_ns >= request.submit_ns

    def test_pslc_blocks_charge_pslc_program_time(self):
        config = vertex2_like(scale=2).with_changes(
            pslc_blocks=8, cache_sectors=4, pslc_drain_threshold=0.99,
        )
        device = TimedSSD(config)
        sink = ListSink()
        device.attach_sink(sink)
        for lba in range(16):
            device.submit("write", lba, 1, at_ns=device.now)
        timing = profile(config.timing_name)
        program_windows = [
            (end - start) for kind, _, start, end in die_windows(sink)
            if kind == "program"
        ]
        assert program_windows
        # Buffer-block programs take pSLC time, far below the async
        # profile's 900 us.
        assert min(program_windows) == PSLC.program_ns < timing.program_ns


def _tapped_tiny():
    config = tiny()
    return TimedSSD(config, bus_tap=BusTap(
        config.geometry, profile(config.timing_name), channel=1))


@pytest.mark.parametrize("make_device", [
    lambda: TimedSSD(tiny()),
    lambda: TimedSSD(mqsim_baseline()),
    lambda: TimedSSD(evo840_like()),  # has pSLC buffer blocks
    _tapped_tiny,
], ids=["tiny", "mqsim_baseline", "evo840_like", "tapped_tiny"])
def test_placement_table_matches_geometry(make_device):
    # The scheduling pass reads each block's die, channel and array
    # timing from one table; Geometry's own address decomposition is the
    # oracle for every entry.
    device = make_device()
    config = device.config
    geometry = config.geometry
    pslc_blocks = set(config.pslc_block_ids())
    timeline = device._timeline
    assert len(timeline.placement) == geometry.total_blocks
    for block, (die, channel, timing) in enumerate(timeline.placement):
        addr = geometry.block_address(block)
        die_index = geometry.die_index(addr)
        assert die is timeline.dies[die_index]
        assert die.name == f"die/{die_index}"
        assert channel is timeline.channels[addr.channel]
        assert channel.name == f"channel/{addr.channel}"
        if block in pslc_blocks:
            assert timing is PSLC
        else:
            assert timing == profile(config.timing_name)
    pslc_entries = sum(timing is PSLC for _, _, timing in timeline.placement)
    assert pslc_entries == len(pslc_blocks)


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 200), writes=st.integers(100, 600))
def test_counter_timed_smart_equivalence_property(seed, writes):
    """Any request stream yields identical SMART accounting in both
    execution modes — they are the same FTL, and every drive command
    (flush, idle maintenance, shutdown) accounts its ops one way."""
    config = tiny()
    counter = SimulatedSSD(config)
    timed = TimedSSD(config)
    rng = np.random.default_rng(seed)
    for i in range(writes):
        if i == writes // 2:
            counter.flush()
            timed.flush()
        elif i == 3 * writes // 4:
            counter.idle(max_blocks=2)
            timed.idle(max_blocks=2)
        action = rng.random()
        size = int(rng.choice([1, 2, 8]))
        lba = int(rng.integers(counter.num_sectors - size + 1))
        if action < 0.8:
            kind = "write"
        elif action < 0.9:
            kind = "read"
        else:
            kind = "trim"
        getattr(counter, f"{kind}_sectors")(lba, size)
        timed.submit(kind, lba, size, at_ns=timed.now)
    counter.shutdown()
    timed.shutdown()
    assert counter.smart_snapshot() == timed.smart_snapshot()


def test_zero_latency_background_maintenance_records_its_ops():
    """Left idle, a churned counter-mode drive's background process
    runs maintenance every round and schedules nothing: its ops are
    recorded, so no resource is held and the flash never looks busy."""
    device = SimulatedSSD(tiny())
    rng = np.random.default_rng(0)
    for _ in range(3 * device.num_sectors):
        device.write_sectors(int(rng.integers(device.num_sectors)), 1)
    device.enable_background_maintenance()
    erases = device.smart.erase_count
    device.now = device.now + 50_000_000
    assert device.smart.erase_count - erases > 8
    assert all(resource.holds == 0
               for resource in device.kernel.resources.values())
