"""Fig 6 / §3.2: the JTAG reverse-engineering study of the 840-EVO-like
device.

Paper findings reproduced and asserted: a tri-core controller with one
host-interface core and two flash cores splitting work by the LBA's
least-significant bit; a translation map of eight arrays occupying more
DRAM than the theoretical minimum; map chunks covering ~117.5 MB of
logical space loaded on demand; and a hashed index in front of the
pSLC (TurboWrite) buffer.
"""

import pytest

from repro.core.jtag.discovery import run_full_study
from repro.ssd.firmware.device import IDCODE, HackableSSD


def test_fig6_full_jtag_study(figure_output):
    device = HackableSSD(scale=1)
    report = run_full_study(device, expected_idcode=IDCODE)
    figure_output(
        "fig6_jtag_study",
        "Fig 6 / §3.2 — JTAG reverse-engineering findings",
        report.HEADERS,
        report.rows(),
    )

    # Tri-core roles and the LBA-LSB split.
    assert report.roles.host_interface_core == 0
    assert report.roles.split_by_lsb
    assert report.firmware.lsb_dispatch_sections

    # Translation map: eight arrays, lba % 8 select, verified layout.
    assert report.map.num_arrays == 8
    assert report.map.select_modulus == 8
    assert report.map.entries_fit
    # "the mapping table occupies [more] than theoretically required".
    assert report.map.measured_map_bytes > report.map.theoretical_map_bytes
    assert report.map.entry_bits_used < 8 * report.map.entry_bytes

    # Demand-loaded chunks covering ~117.5 MB of logical space.
    assert report.chunks.demand_loading
    chunk_mib = report.chunks.chunk_bytes_logical / 2**20
    assert chunk_mib == pytest.approx(117.5, rel=0.05)
    assert report.chunks.eviction_observed

    # The pSLC buffer's hashed index.
    assert report.pslc.found
    assert report.pslc.looks_hashed

    # And the device itself matches what was discovered.
    assert report.map.array_bases == list(device.memory_map.map_array_bases)
