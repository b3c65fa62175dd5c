"""Host memory the simulator's per-sector and per-page state costs.

Counted with ``tracemalloc`` (numpy reports its buffers to it), so the
bounds hold on any machine and involve no clock.  The Fig 4b device,
``mx500_like(scale=2)``, has 262,144 physical sectors in 32,768 pages.
"""

import gc
import tracemalloc

import numpy as np

from repro.ssd.device import SimulatedSSD
from repro.ssd.presets import mx500_like
from repro.ssd.timed import TimedSSD

CONFIG = mx500_like(scale=2)
PHYSICAL_SECTORS = (CONFIG.geometry.total_pages
                    * CONFIG.geometry.sectors_per_page)


def test_construction_costs_at_most_20_bytes_per_physical_sector():
    # 4-byte l2p, p2l and OOB entries, 1 byte of page_seq and 1 of the
    # RAIN page list per sector (8-sector pages) come to about 14 of the
    # measured 17; 8-byte map entries would measure 28.
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        device = TimedSSD(CONFIG)
        built = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert device.ftl.p2l.size == PHYSICAL_SECTORS
    assert built <= 20 * PHYSICAL_SECTORS, (
        f"{built / PHYSICAL_SECTORS:.1f} B per physical sector")


def test_rain_membership_costs_at_most_40_bytes_per_data_page():
    # Half the logical space written sequentially, then a quarter of it
    # overwritten one random sector at a time: about 19,600 data pages.
    # Membership is a per-page list (8 bytes a device page) plus one
    # record per stripe (about 14 bytes a member): about 29 a data page
    # here.  A dict entry and a boxed int per member would measure 78.
    tracemalloc.start()
    try:
        device = SimulatedSSD(CONFIG)
        span = CONFIG.logical_sectors // 2 // 8 * 8
        for lba in range(0, span, 8):
            device.write_sectors(lba, 8)
        rng = np.random.default_rng(0)
        for lba in rng.integers(0, span, span // 4).tolist():
            device.write_sectors(lba, 1)
        device.flush()
        ftl = device.ftl
        data_pages = ftl.rain.data_pages
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        ftl.rain = None  # everything only the accountant holds is freed
        gc.collect()
        kept = before - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert data_pages > 19_000
    assert kept <= 40 * data_pages, (
        f"{kept / data_pages:.1f} B per data page in {data_pages} pages")
