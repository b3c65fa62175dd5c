"""fio-like job specifications.

A :class:`JobSpec` describes one fio job: operation mix, block size,
address pattern, target region, and how much work to do.  The engine
(:mod:`repro.workloads.engine`) runs one or more jobs against a simulated
device, separately or concurrently — the paper's Fig 4b protocol is three
jobs in private regions run twice, once each and once together.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.workloads.patterns import AddressPattern, Region, make_pattern

#: request kinds a job may issue.
RW_MODES = ("write", "randwrite", "read", "randread", "randrw", "trim")

#: the direction of every request of a mode that has only one;
#: ``randrw`` is absent — it draws each request's direction.
_FIXED_KINDS = {"write": "write", "randwrite": "write", "read": "read",
                "randread": "read", "trim": "trim"}

#: how a job submits requests in timed mode.
SUBMISSION_MODES = ("closed", "open")

#: inter-arrival processes for open-loop submission.  ``poisson`` and
#: ``fixed`` are stationary; ``diurnal`` modulates a Poisson process
#: with a sinusoidal load curve, and ``bursty`` is a two-state
#: (normal/burst) modulated Poisson — the noisy-neighbor shape fleet
#: tenants use.
ARRIVAL_MODES = ("poisson", "fixed", "diurnal", "bursty")


def check_arrival_shape(spec) -> None:
    """Reject the shape knobs of *spec*'s ``arrival`` process that it
    cannot run with.  :class:`JobSpec` and the fleet's ``TenantSpec``
    (which forwards the same fields) both call this, so a bad tenant
    fails where it is built, not in a pool worker.

    Each test is written so NaN fails it: a NaN period made the diurnal
    generator loop forever, and a NaN multiplier turned burst gaps into
    1-ns arrivals."""
    if spec.arrival == "diurnal":
        if not 0.0 <= spec.diurnal_amplitude < 1.0:
            raise ValueError("diurnal_amplitude must be in [0, 1)")
        if not 0 < spec.diurnal_period_s < math.inf:
            raise ValueError("diurnal_period_s must be finite and > 0, "
                             f"got {spec.diurnal_period_s}")
    if spec.arrival == "bursty":
        if not 1.0 <= spec.burst_multiplier < math.inf:
            raise ValueError("burst_multiplier must be finite and >= 1, "
                             f"got {spec.burst_multiplier}")
        if spec.burst_len < 1:
            raise ValueError("burst_len must be >= 1")
        if not 0.0 < spec.burst_fraction < 1.0:
            raise ValueError("burst_fraction must be in (0, 1)")


@dataclass
class JobSpec:
    """One fio-style job.

    ``bs_sectors`` is the request size in logical sectors (fio ``bs=`` in
    device sector units).  ``io_count`` bounds the number of requests.
    ``read_fraction`` only matters for ``randrw``.  ``pattern_kwargs``
    passes skew parameters to the address pattern (e.g.
    ``{"space_fraction": 0.2, "traffic_fraction": 0.8}``).

    ``submission`` picks the timed-mode submission model: ``"closed"``
    (fio's default — ``iodepth`` outstanding requests, a new one the
    moment a slot frees) or ``"open"`` (requests arrive at
    ``rate_iops`` regardless of completions, so queueing is unbounded
    and saturation shows up as growing tails instead of falling
    throughput).  ``arrival`` shapes open-loop inter-arrival gaps:
    ``"poisson"`` (exponential), ``"fixed"``, ``"diurnal"`` (Poisson
    whose instantaneous rate follows ``rate_iops * (1 +
    diurnal_amplitude * sin(2*pi*t / diurnal_period_s))`` — a
    compressed day/night load curve), or ``"bursty"`` (Poisson
    modulated by a two-state process: geometric bursts of mean
    ``burst_len`` requests at ``burst_multiplier`` times the base rate,
    occupying ``burst_fraction`` of requests in expectation — the
    noisy-neighbor tenant shape).  A counter run uses the same
    scheduler at zero latency, where these fields only set the order in
    which concurrent jobs' requests interleave (closed loop at iodepth 1
    is round-robin).
    """

    name: str
    rw: str
    region: Region
    bs_sectors: int = 1
    io_count: int = 1000
    iodepth: int = 1
    read_fraction: float = 0.5
    pattern: str | None = None
    pattern_kwargs: dict = field(default_factory=dict)
    seed: int = 0
    submission: str = "closed"
    rate_iops: float = 0.0
    arrival: str = "poisson"
    #: diurnal arrival shape: relative swing of the rate (0 <= a < 1)
    #: and period of one simulated "day" in seconds.
    diurnal_amplitude: float = 0.5
    diurnal_period_s: float = 1.0
    #: bursty arrival shape: rate multiplier inside a burst, mean burst
    #: length in requests, and expected fraction of requests that are
    #: burst traffic.
    burst_multiplier: float = 8.0
    burst_len: int = 32
    burst_fraction: float = 0.05

    def __post_init__(self) -> None:
        if self.rw not in RW_MODES:
            raise ValueError(f"unknown rw mode {self.rw!r}; known: {RW_MODES}")
        if self.io_count < 1:
            raise ValueError("io_count must be >= 1")
        if self.iodepth < 1:
            raise ValueError("iodepth must be >= 1")
        if not 0.0 <= self.read_fraction <= 1.0:
            raise ValueError("read_fraction must be in [0, 1]")
        if self.submission not in SUBMISSION_MODES:
            raise ValueError(
                f"unknown submission mode {self.submission!r}; "
                f"known: {SUBMISSION_MODES}")
        if self.arrival not in ARRIVAL_MODES:
            raise ValueError(
                f"unknown arrival mode {self.arrival!r}; "
                f"known: {ARRIVAL_MODES}")
        if self.is_open_loop and not 0 < self.rate_iops < math.inf:  # NaN too
            raise ValueError(
                "open-loop submission needs a finite rate_iops > 0, "
                f"got {self.rate_iops}")
        check_arrival_shape(self)

    @property
    def is_open_loop(self) -> bool:
        return self.submission == "open"

    @property
    def is_sequential(self) -> bool:
        return self.rw in ("write", "read")

    def default_pattern(self) -> str:
        return "sequential" if self.is_sequential else "uniform"

    def make_pattern(self) -> AddressPattern:
        """Build this job's address pattern."""
        name = self.pattern or self.default_pattern()
        return make_pattern(name, self.region, self.bs_sectors, **self.pattern_kwargs)

    @property
    def fixed_kind(self) -> str | None:
        """The one I/O direction this job issues, or ``None`` when each
        request draws its own (``randrw``)."""
        return _FIXED_KINDS.get(self.rw)

    def request_kind(self, rng) -> str:
        """The I/O direction of the next request."""
        kind = self.fixed_kind
        if kind is not None:
            return kind
        return "read" if rng.random() < self.read_fraction else "write"

    @property
    def total_sectors(self) -> int:
        return self.io_count * self.bs_sectors
