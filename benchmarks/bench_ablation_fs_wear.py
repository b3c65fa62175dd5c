"""Ablations: file-system write patterns at the FTL, and wear leveling.

Companions to Fig 1: the *device-level* reason log-structured file
systems behave differently — F2FS's sequential logs and discards produce
less FTL garbage collection than EXT4's scattered in-place updates — and
the lifetime mechanism (static wear leveling) that black-box observers
can only guess at.
"""

import numpy as np

from repro.fs.ext4 import Ext4Model
from repro.fs.f2fs import F2fsModel
from repro.ssd.device import SimulatedSSD
from repro.ssd.presets import tiny
from repro.workloads.fileserver import FileServerConfig, FileServerWorkload


def run_fs(fs_cls, ops=1200, seed=3):
    device = SimulatedSSD(tiny())
    if fs_cls is F2fsModel:
        fs = F2fsModel(device, segment_sectors=32, checkpoint_sectors=8,
                       clean_low_water=2)
    else:
        fs = Ext4Model(device, journal_sectors=32, metadata_sectors=32)
    workload = FileServerWorkload(
        fs, FileServerConfig(working_files=24, mean_file_sectors=8), seed=seed
    )
    workload.prepare()
    workload.run(ops)
    device.flush()
    return device


def test_ablation_fs_write_patterns_at_ftl(figure_output):
    devices = {cls.name: run_fs(cls) for cls in (Ext4Model, F2fsModel)}
    rows = []
    for name, device in devices.items():
        rows.append([
            name,
            device.smart.host_program_pages,
            device.smart.ftl_program_pages,
            round(device.smart.waf(), 3),
            device.ftl.stats.trimmed_sectors,
            device.smart.erase_count,
        ])
    figure_output(
        "ablation_fs_ftl",
        "Ablation — file-server workload as seen by the FTL",
        ["fs", "host pages", "FTL pages", "WAF", "trimmed", "erases"],
        rows,
    )
    by_name = {row[0]: row for row in rows}
    # F2FS discards deleted space; EXT4 (no discard) does not.
    assert by_name["f2fs"][4] > 0
    assert by_name["ext4"][4] == 0
    # The log-structured pattern costs the FTL less per host page.
    assert by_name["f2fs"][3] <= by_name["ext4"][3] * 1.1


def test_ablation_static_wear_leveling(figure_output):
    results = {}
    for leveling in (False, True):
        config = tiny().with_changes(wear_leveling=leveling,
                                     wear_leveling_delta=6)
        device = SimulatedSSD(config)
        rng = np.random.default_rng(7)
        # Cold data pins blocks; hot churn wears the rest.
        for lpn in range(128):
            device.write_sectors(lpn, 1)
        device.flush()
        for i in range(14_000):
            lba = 128 + int(rng.integers(device.num_sectors - 128))
            device.write_sectors(lba, 1)
            if i % 500 == 499:
                device.idle(max_blocks=4)
        device.flush()
        results[leveling] = device
    rows = []
    spread = {}
    for leveling, device in results.items():
        summary = device.ftl.nand.wear_summary()
        spread[leveling] = summary["max"] - summary["min"]
        rows.append([
            "on" if leveling else "off",
            int(summary["min"]), int(summary["max"]),
            round(summary["std"], 2),
            device.ftl.stats.wear_migrations,
        ])
    figure_output(
        "ablation_wear_leveling",
        "Ablation — static wear leveling vs erase-count spread",
        ["leveling", "min erases", "max erases", "stddev", "migrations"],
        rows,
    )
    assert results[True].ftl.stats.wear_migrations > 0
    assert spread[True] < spread[False]
