#!/usr/bin/env python3
"""File-system aging vs. SSD internals (paper §2, Fig 1).

Reproduces the Geriatrix-style observation: the F2FS/EXT4 throughput
ratio on a file-server workload is not a constant of the file systems —
it depends on the SSD model and on how the image was aged.

Two simulated drives (a lean 'ssd64' and a generous 'ssd120') each run
the file-server benchmark under both file-system models, unaged (U) and
after two aging profiles (A, M).

Run:  python examples/aging_filesystems.py   (takes a few minutes)
"""

from repro.analysis.report import format_table
from repro.fs.aging import PROFILES, AgingProfile, age_filesystem
from repro.fs.ext4 import Ext4Model
from repro.fs.f2fs import F2fsModel
from repro.ssd.presets import ssd64_like, ssd120_like
from repro.ssd.timed import TimedSSD
from repro.workloads.fileserver import FileServerConfig, FileServerWorkload

#: shortened aging profiles so the example finishes quickly.
QUICK_PROFILES = {
    "U": PROFILES["U"],
    "A": AgingProfile("A", phases=((0.55, 500), (0.40, 200), (0.58, 350)),
                      size_mu=2.0, size_sigma=0.8, max_file_sectors=64),
    "M": AgingProfile("M", phases=((0.65, 450), (0.40, 250), (0.68, 450)),
                      size_mu=2.6, size_sigma=1.1, max_file_sectors=256),
}


def throughput(device_config, fs_cls, profile) -> float:
    device = TimedSSD(device_config)
    if fs_cls is F2fsModel:
        fs = F2fsModel(device, segment_sectors=256, checkpoint_sectors=32)
    else:
        fs = Ext4Model(device, journal_sectors=256, metadata_sectors=128)
    age_filesystem(fs, profile, seed=7)
    workload = FileServerWorkload(
        fs, FileServerConfig(working_files=40, mean_file_sectors=16), seed=11
    )
    workload.prepare()
    result = workload.run(600)
    return result.ops_per_second


def main() -> None:
    rows = []
    for model_name, config_fn in (("ssd64", ssd64_like), ("ssd120", ssd120_like)):
        for profile_name, profile in QUICK_PROFILES.items():
            ext4_ops = throughput(config_fn(scale=2), Ext4Model, profile)
            f2fs_ops = throughput(config_fn(scale=2), F2fsModel, profile)
            rows.append([
                model_name, profile_name,
                round(ext4_ops), round(f2fs_ops),
                f2fs_ops / ext4_ops if ext4_ops else 0.0,
            ])
            print(f"  measured {model_name}/{profile_name}")
    print()
    print(format_table(
        ["SSD model", "aging", "ext4 ops/s", "f2fs ops/s", "f2fs/ext4"],
        rows, title="Fig 1 — file-server throughput ratio by model and aging",
    ))
    ratios = [r[4] for r in rows]
    print(f"\nratio range: {min(ratios):.2f} .. {max(ratios):.2f} — "
          "not the uniform '2x across the board' a single-device study "
          "would conclude.")


if __name__ == "__main__":
    main()
