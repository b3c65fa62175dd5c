"""``precondition``: the one way a study prepares its drive."""

import numpy as np
import pytest

from repro.ssd.presets import tiny
from repro.ssd.timed import TimedSSD
from repro.workloads.engine import precondition
from tests.helpers import record_requests


def commands(zero_latency, fill, overwrites, seed=5):
    device = TimedSSD(tiny(), zero_latency=zero_latency)
    requests = record_requests(device)
    precondition(device, fill, overwrites, np.random.default_rng(seed))
    return device, [(r.kind, r.lba, r.nsectors) for r in requests]


@pytest.mark.parametrize("fill", [0.0, 0.6, 1.0])
def test_zero_latency_and_timed_devices_get_the_same_commands(fill):
    _, counter = commands(True, fill, 300)
    _, timed = commands(False, fill, 300)
    assert counter == timed


@pytest.mark.parametrize("zero_latency", [True, False])
def test_fill_in_order_then_overwrites_inside_the_span(zero_latency):
    fill, overwrites = 0.6, 300
    device, issued = commands(zero_latency, fill, overwrites)
    span = int(device.num_sectors * fill)
    fills, rewrites = issued[:-overwrites], issued[-overwrites:]
    covered = []
    for kind, lba, nsectors in fills:
        assert kind == "write" and 1 <= nsectors <= 8
        covered.extend(range(lba, lba + nsectors))
    assert covered == list(range(span))
    assert all(kind == "write" and nsectors == 1 and 0 <= lba < span
               for kind, lba, nsectors in rewrites)


def test_no_fill_overwrites_the_whole_device():
    device, issued = commands(True, 0.0, 2000)
    assert len(issued) == 2000
    lbas = [lba for _, lba, _ in issued]
    assert max(lbas) < device.num_sectors
    assert max(lbas) >= int(device.num_sectors * 0.9)


def test_submits_at_the_device_clock_and_never_flushes():
    device = TimedSSD(tiny())
    requests = record_requests(device)
    precondition(device, 0.5)
    assert requests and all(r.submit_ns == 0 for r in requests)
    assert len(device.ftl.cache) > 0


def test_overwrites_need_an_rng():
    with pytest.raises(ValueError, match="rng"):
        precondition(TimedSSD(tiny(), zero_latency=True), overwrites=1)
