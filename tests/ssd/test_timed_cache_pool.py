"""Write-cache admission accounting on the timed device."""

import pytest

from repro.ssd.presets import mqsim_baseline
from repro.ssd.timed import TimedSSD


@pytest.mark.xfail(strict=True, reason=(
    "flush()/shutdown()/idle() schedule the programs that drain the RAM "
    "cache but never credit _cache_pool; the fix moves timelines and "
    "goldens, so it waits for the correctness round"))
def test_flush_returns_cache_space():
    device = TimedSSD(mqsim_baseline())
    for lba in range(255):
        device.submit("write", lba, 1, at_ns=device.now)
    device.flush()
    device.quiesce()
    assert len(device.ftl.cache) == 0
    assert device._cache_pool.pending_releases == 0
    assert device._cache_pool.occupied == 0  # reads 255 today
