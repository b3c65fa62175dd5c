"""Fig 4b: the black-box WAF extrapolation experiment.

The paper's protocol on the MX500:

1. prime the drive;
2. run three random-write workloads *separately*, each in a private
   slice of the LBA space (4 KB uniform, 4 KB 80/20, 16 KB uniform),
   measuring each run's WAF = FTL pages / host pages from SMART deltas;
3. predict the concurrent run's WAF as the IOPS-weighted average of the
   separate WAFs ("based on the assumption that FTL metadata write
   operations are similar for each type of request, regardless of any
   concurrent operations");
4. run all three *concurrently* and measure the actual WAF.

The paper measures 0.9 against a 0.56 prediction — black-box
extrapolation off by nearly 2×.  This module reproduces the protocol
verbatim on a device configuration: every run gets its own freshly
primed device (as remounting/priming the real drive resets comparable
state).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exp.cell import Cell
from repro.exp.runner import Runner
from repro.ssd.config import SsdConfig
from repro.ssd.host import HostDevice
from repro.workloads.engine import run_counter
from repro.workloads.patterns import Region
from repro.workloads.spec import JobSpec


@dataclass
class WorkloadWaf:
    """One workload's separate-run measurement."""

    name: str
    waf: float
    requests: int
    host_pages: int
    ftl_pages: int


@dataclass
class WafStudy:
    """The full Fig 4b result."""

    separate: list[WorkloadWaf]
    expected_mixed_waf: float
    measured_mixed_waf: float

    @property
    def extrapolation_error(self) -> float:
        """measured / expected — the paper's ~1.6x headline."""
        if self.expected_mixed_waf == 0:
            return 0.0
        return self.measured_mixed_waf / self.expected_mixed_waf


def default_jobs(num_sectors: int, io_count: int = 24_000) -> list[JobSpec]:
    """The paper's three workloads over private thirds of the LBA space."""
    third = num_sectors // 3
    return [
        JobSpec("4k-uniform", "randwrite", Region(0, third),
                bs_sectors=1, io_count=io_count, seed=11),
        JobSpec("4k-8020", "randwrite", Region(third, third),
                bs_sectors=1, io_count=io_count, seed=22,
                pattern="hotcold",
                pattern_kwargs={"space_fraction": 0.2, "traffic_fraction": 0.8}),
        JobSpec("16k-uniform", "randwrite", Region(2 * third, third),
                bs_sectors=4, io_count=io_count // 4, seed=33),
    ]


def prime(device: HostDevice, fraction: float = 0.6, seed: int = 5) -> None:
    """Put the drive in its 'priming stage': sequentially fill a portion
    of the LBA space so the FTL has mapped state but little GC debt."""
    sectors = int(device.num_sectors * fraction)
    step = 8
    for lba in range(0, sectors, step):
        device.write_sectors(lba, min(step, sectors - lba))
    device.flush()


@dataclass(frozen=True)
class WafCellSpec:
    """One run of the Fig 4b protocol: prime a fresh device, then run
    the given jobs concurrently and report the SMART WAF delta.  A
    single job models a 'separate' run; the full tuple is the mixed
    run.  Every run is independent (its own fresh device), which is
    what lets the runner execute all four concurrently."""

    config: SsdConfig
    jobs: tuple[JobSpec, ...]
    prime_fraction: float


def measure_waf_cell(spec: WafCellSpec, seed: int = 0) -> WorkloadWaf:
    from repro.ssd.device import SimulatedSSD

    device = SimulatedSSD(spec.config)
    prime(device, spec.prime_fraction)
    before = device.smart_snapshot()
    run_counter(device, list(spec.jobs))
    delta = device.smart.delta(before)
    return WorkloadWaf(
        name="+".join(job.name for job in spec.jobs),
        waf=delta.waf(),
        requests=sum(job.io_count for job in spec.jobs),
        host_pages=delta.host_program_pages,
        ftl_pages=delta.ftl_program_pages,
    )


def run_waf_study(
    config: SsdConfig,
    jobs: list[JobSpec] | None = None,
    io_count: int = 24_000,
    prime_fraction: float = 0.6,
    runner: Runner | None = None,
) -> WafStudy:
    """Execute the full separate-then-mixed protocol on *config*.

    Each of the four runs (three separate + mixed) primes its own fresh
    counter-mode device, so every run is a picklable
    :class:`~repro.exp.cell.Cell` that *runner* can fan out; without a
    runner they execute in-process through ``Runner(jobs=1)``.
    """
    if jobs is None:
        jobs = default_jobs(config.logical_sectors, io_count)
    specs = [WafCellSpec(config, (job,), prime_fraction) for job in jobs]
    specs.append(WafCellSpec(config, tuple(jobs), prime_fraction))
    cells = [Cell(measure_waf_cell, spec,
                  label=f"waf:{'+'.join(j.name for j in spec.jobs)}")
             for spec in specs]
    results = (runner or Runner(jobs=1)).run(cells)
    separate = results[:-1]
    measured = results[-1].waf

    # The paper's prediction: weight each workload's WAF by its IOPS
    # share.  In the interleaved mixed run each job issues its io_count
    # requests over the same wall-clock, so IOPS weights = request
    # weights.
    total_requests = sum(w.requests for w in separate)
    expected = sum(w.waf * w.requests for w in separate) / total_requests

    return WafStudy(
        separate=separate,
        expected_mixed_waf=expected,
        measured_mixed_waf=measured,
    )
