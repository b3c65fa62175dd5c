"""Fig 1: file systems age variably for different SSD models.

Paper shape (from Kadekodi et al.'s reproduction of the F2FS file-server
experiment): the F2FS/EXT4 throughput ratio is not a constant ~2x — it
varies substantially across SSD models and aging states (U/A/M).
"""

from repro.fs.aging import AgingProfile, age_filesystem
from repro.fs.ext4 import Ext4Model
from repro.fs.f2fs import F2fsModel
from repro.ssd.presets import ssd64_like, ssd120_like
from repro.ssd.timed import TimedSSD
from repro.workloads.fileserver import FileServerConfig, FileServerWorkload

PROFILES = {
    "U": AgingProfile("U", phases=()),
    "A": AgingProfile("A", phases=((0.55, 500), (0.40, 200), (0.58, 350)),
                      size_mu=2.0, size_sigma=0.8, max_file_sectors=64),
    "M": AgingProfile("M", phases=((0.65, 450), (0.40, 250), (0.68, 450)),
                      size_mu=2.6, size_sigma=1.1, max_file_sectors=256),
}
MODELS = {"ssd64": ssd64_like, "ssd120": ssd120_like}


def throughput(config, fs_cls, profile) -> float:
    device = TimedSSD(config)
    if fs_cls is F2fsModel:
        fs = F2fsModel(device, segment_sectors=256, checkpoint_sectors=32)
    else:
        fs = Ext4Model(device, journal_sectors=256, metadata_sectors=128)
    age_filesystem(fs, profile, seed=7)
    workload = FileServerWorkload(
        fs, FileServerConfig(working_files=40, mean_file_sectors=16), seed=11
    )
    workload.prepare()
    return workload.run(500).ops_per_second


def test_fig1_aging_ratio_varies(figure_output):
    rows = []
    ratios = {}
    for model, config_fn in MODELS.items():
        for profile, aging in PROFILES.items():
            ext4 = throughput(config_fn(scale=2), Ext4Model, aging)
            f2fs = throughput(config_fn(scale=2), F2fsModel, aging)
            ratio = f2fs / ext4 if ext4 else 0.0
            ratios[(model, profile)] = ratio
            rows.append([model, profile, round(ext4), round(f2fs),
                         round(ratio, 3)])
    figure_output(
        "fig1_aging",
        "Fig 1 — file-server throughput: F2FS/EXT4 by SSD model and aging",
        ["SSD model", "aging", "ext4 ops/s", "f2fs ops/s", "f2fs/ext4"],
        rows,
    )
    values = list(ratios.values())
    # Paper shape: the ratio is NOT uniform across models/aging states —
    # it varies significantly (Kadekodi et al. contradict the F2FS
    # paper's "2x across the board").
    assert max(values) / min(values) > 1.25
    # And the log-structured FS should still generally help on flash.
    assert sum(v > 1.0 for v in values) >= len(values) // 2
