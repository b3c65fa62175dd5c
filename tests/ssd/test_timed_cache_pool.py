"""Write-cache admission accounting on the timed device."""

import pytest

from repro.ssd.presets import mqsim_baseline
from repro.ssd.timed import TimedSSD


@pytest.mark.parametrize("rounds", [1, 2])
@pytest.mark.parametrize("drain", ["flush", "shutdown"])
def test_flush_returns_cache_space(drain, rounds):
    # The programs a drain command issues carry the cached sectors out
    # of RAM, so they return the space the writes took.
    device = TimedSSD(mqsim_baseline())
    for _ in range(rounds):
        for lba in range(255):
            device.submit("write", lba, 1, at_ns=device.now)
        getattr(device, drain)()
    device.quiesce()
    assert len(device.ftl.cache) == 0
    assert device._cache_pool.pending_releases == 0
    assert device._cache_pool.occupied == 0
