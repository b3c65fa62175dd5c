"""Latency cost of graceful degradation: clean vs faulted device.

The paper argues reliability machinery is a major source of performance
opacity — the host sees latency spikes with no visible cause.  This
bench makes the cause visible: the same timed workload runs on a clean
device and on one with an active fault plan (probabilistic uncorrectable
reads + program fails), and the table reports mean/p99 read and write
latency, WAF, and the degradation accounting (retries, RAIN rebuilds,
relocations, retired blocks) side by side.

Asserted shape: the faulted run must actually exercise the RAIN path
(reconstructions > 0, every uncorrectable read recovered) and its read
p99 must sit at or above the clean run's — degradation is never free.
"""

from repro.exp import Cell, Runner
from repro.faults import FaultLatencyCell, FaultPlan, FaultSpec, run_fault_latency_cell
from repro.ssd.presets import tiny

WRITES = 1200
READS = 1200
SEED = 11

#: enough uncorrectable reads to shape the tail, few enough that RAIN
#: relocations don't consume the tiny geometry's spare blocks.
UNCORRECTABLE_RATE = 0.02
#: op-triggered rather than probabilistic: exactly this many grown-bad
#: blocks, placed mid-workload (tiny's spare pool can't absorb a
#: rate-driven retirement storm).
PROGRAM_FAILS = 2
PROGRAM_FAIL_AT_OP = 600


def _config():
    return tiny().with_changes(
        rain_stripe=4,
        read_retry_steps=3,
        ops_per_day=0,  # degradation here is injected, not aged
    )


def _plan():
    return FaultPlan(seed=SEED, specs=(
        FaultSpec("uncorrectable_read", probability=UNCORRECTABLE_RATE,
                  count=0),
        FaultSpec("program_fail", at_op=PROGRAM_FAIL_AT_OP,
                  count=PROGRAM_FAILS),
    ))


def test_fault_degradation_latency(figure_output):
    config = _config()
    clean, faulted = Runner(jobs=2).run([
        Cell(run_fault_latency_cell,
             FaultLatencyCell(config, plan=None,
                              writes=WRITES, reads=READS, seed=SEED),
             label="clean"),
        Cell(run_fault_latency_cell,
             FaultLatencyCell(config, plan=_plan(),
                              writes=WRITES, reads=READS, seed=SEED),
             label="faulted"),
    ])

    rows = [
        ["clean", round(clean.read_mean_us, 1), round(clean.read_p99_us, 1),
         round(clean.write_mean_us, 1), round(clean.write_p99_us, 1),
         round(clean.waf, 3), clean.read_retries, clean.rain_reconstructions,
         clean.relocated_sectors, clean.blocks_retired],
        ["faulted", round(faulted.read_mean_us, 1),
         round(faulted.read_p99_us, 1), round(faulted.write_mean_us, 1),
         round(faulted.write_p99_us, 1), round(faulted.waf, 3),
         faulted.read_retries, faulted.rain_reconstructions,
         faulted.relocated_sectors, faulted.blocks_retired],
    ]
    figure_output(
        "fault_degradation",
        "Graceful degradation — clean vs faulted latency (tiny, RAIN 4)",
        ["variant", "read mean (us)", "read p99 (us)", "write mean (us)",
         "write p99 (us)", "WAF", "retries", "rain rebuilds",
         "relocated", "blk retired"],
        rows,
    )

    # The clean run has no degradation machinery engaged at all.
    assert clean.read_retries == 0
    assert clean.rain_reconstructions == 0
    assert clean.uncorrectable_reads == 0
    assert clean.fault_log == ()

    # The faulted run demonstrably served uncorrectable reads via RAIN:
    # reconstructions happened and none were abandoned as unreadable.
    assert faulted.rain_reconstructions > 0
    assert faulted.read_retries > 0
    assert faulted.uncorrectable_reads == 0
    assert faulted.relocated_sectors == faulted.rain_reconstructions
    assert faulted.blocks_retired == PROGRAM_FAILS

    # Degradation is never free: the faulted tail sits at or above the
    # clean one, and reconstruction traffic inflates WAF.
    assert faulted.read_p99_us >= clean.read_p99_us
    assert faulted.waf >= clean.waf
