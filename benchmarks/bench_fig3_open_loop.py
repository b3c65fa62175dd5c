"""Fig 3 companion: closed-loop vs open-loop submission.

The paper's tail-latency figure (and fio's default model) is
closed-loop: iodepth outstanding requests, so a slow device silently
throttles its own offered load and the measured tail understates what a
rate-driven application would see.  Open-loop submission
(``JobSpec.submission="open"``) decouples arrivals from completions:
requests arrive at a fixed rate whatever the device is doing, so at
saturation the queue — and the tail — grows without bound.

This bench runs the same random-write job closed-loop and open-loop at
sub-saturating and saturating fractions of the closed-loop throughput,
recording how the reported percentiles diverge.
"""

from repro.ssd.presets import tiny
from repro.ssd.timed import TimedSSD
from repro.workloads.engine import run_timed
from repro.workloads.patterns import Region
from repro.workloads.spec import JobSpec

IO_COUNT = 3000
SEED = 7


def run_mode(submission, rate_iops=0.0):
    # The tiny preset goes GC-bound within the run, so closed-loop qd=4
    # genuinely measures the device's sustainable throughput — the
    # saturation point the open-loop rates are set against.
    device = TimedSSD(tiny())
    job = JobSpec("fig3", "randwrite", Region(0, device.num_sectors),
                  bs_sectors=1, io_count=IO_COUNT, iodepth=4, seed=SEED,
                  submission=submission, rate_iops=rate_iops)
    return run_timed(device, [job]).jobs["fig3"]


def test_open_vs_closed_loop_tails(figure_output):
    closed = run_mode("closed")
    rates = {
        "0.5x": 0.5 * closed.iops,
        "0.9x": 0.9 * closed.iops,
        "1.2x": 1.2 * closed.iops,
    }
    opens = {tag: run_mode("open", rate) for tag, rate in rates.items()}

    def row(tag, job, rate):
        return [tag, round(rate) if rate else "-",
                round(job.percentile_us(50), 1),
                round(job.percentile_us(99), 1),
                round(job.percentile_us(99.9), 1),
                round(job.iops)]

    rows = [row("closed qd=4", closed, 0)]
    rows += [row(f"open {tag}", opens[tag], rates[tag]) for tag in opens]
    figure_output(
        "fig3_open_vs_closed",
        "Fig 3 companion — closed-loop vs open-loop submission",
        ["submission", "offered IOPS", "p50 (us)", "p99 (us)",
         "p99.9 (us)", "achieved IOPS"],
        rows,
    )
    # The figure's shape: past saturation the open-loop tail leaves the
    # closed-loop measurement far behind...
    assert opens["1.2x"].percentile_us(99) > 5 * closed.percentile_us(99)
    # ...and grows monotonically with offered load.
    assert (opens["1.2x"].percentile_us(99) > opens["0.9x"].percentile_us(99)
            > opens["0.5x"].percentile_us(99) * 0.999)
    # Open loop can never push more than offered.
    assert opens["0.5x"].iops <= rates["0.5x"] * 1.05
