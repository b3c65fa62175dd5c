"""Flash reliability model: wear-dependent bit errors and op failures.

The paper lists page refreshing and self-healing among the "unpredictable
background operations" that make SSDs hard to model (§2.1).  To exercise
those code paths the simulator needs a reliability substrate: a raw
bit-error-rate (RBER) model that grows with program/erase wear and with
retention time, and an injectable program/erase failure mechanism that the
FTL's bad-block handling consumes.

The RBER shape follows the empirical literature (Cai et al., Schroeder et
al.): roughly exponential in wear, linear-ish in retention age, with
pseudo-SLC blocks an order of magnitude more robust.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ReliabilityModel:
    """Parameters of the error model for one cell mode.

    ``rber(cycles, retention_s)`` returns the expected raw bit error rate;
    the ECC engine corrects up to ``ecc_correctable`` errors per codeword
    of ``codeword_bits`` bits.  A page whose expected errors per codeword
    exceed the ECC limit is an uncorrectable read.
    """

    base_rber: float = 1e-8
    wear_exponent: float = 2.2
    rated_cycles: int = 3000
    retention_rber_per_day: float = 2e-7
    ecc_correctable: int = 40
    codeword_bits: int = 1024 * 8

    def rber(self, erase_cycles: int, retention_days: float = 0.0) -> float:
        """Expected raw bit error rate for a page."""
        wear = (max(0, erase_cycles) / self.rated_cycles) ** self.wear_exponent
        return self.base_rber * (1.0 + 100.0 * wear) + self.retention_rber_per_day * retention_days

    def expected_bit_errors(self, erase_cycles: int, retention_days: float = 0.0) -> float:
        return self.rber(erase_cycles, retention_days) * self.codeword_bits

    def is_correctable(self, erase_cycles: int, retention_days: float = 0.0) -> bool:
        return self.expected_bit_errors(erase_cycles, retention_days) <= self.ecc_correctable

    def refresh_deadline_days(self, erase_cycles: int) -> float:
        """Retention age at which a page crosses the ECC limit.

        This is what a retention-aware refresh policy (flash
        correct-and-refresh) schedules against.
        """
        margin = self.ecc_correctable / self.codeword_bits - self.rber(erase_cycles)
        if margin <= 0:
            return 0.0
        return margin / self.retention_rber_per_day


#: Default models per cell technology.
MLC_RELIABILITY = ReliabilityModel()
TLC_RELIABILITY = ReliabilityModel(base_rber=5e-8, rated_cycles=1000,
                                   retention_rber_per_day=6e-7)
PSLC_RELIABILITY = ReliabilityModel(base_rber=1e-9, rated_cycles=20000,
                                    retention_rber_per_day=2e-8)

#: Reliability model matching each timing profile's cell technology.
RELIABILITY_BY_TIMING: dict[str, ReliabilityModel] = {
    "slc": PSLC_RELIABILITY,
    "mlc": MLC_RELIABILITY,
    "tlc": TLC_RELIABILITY,
    "pslc": PSLC_RELIABILITY,
    "async": MLC_RELIABILITY,
}


class FailureInjector:
    """Deterministic, seedable program/erase failure source.

    A real FTL must tolerate program-status failures (mark the block bad,
    re-allocate, re-program).  Tests drive this injector to exercise the
    FTL's bad-block path.

    Subclasses (notably :class:`repro.faults.injection.PlannedFaultInjector`)
    extend the surface with clock/op hooks and uncorrectable-read faults.
    The base class implements them as no-ops, and the FTL's host path
    skips ``tick`` and ``read_uncorrectable`` while an instance of this
    exact class is installed; any subclass gets every call.
    """

    def __init__(self, seed: int = 0, program_fail_prob: float = 0.0,
                 erase_fail_prob: float = 0.0) -> None:
        self._rng = np.random.default_rng(seed)
        self.program_fail_prob = program_fail_prob
        self.erase_fail_prob = erase_fail_prob
        self.forced_program_failures: set[int] = set()
        self.forced_erase_failures: set[int] = set()
        self.program_failures = 0
        self.erase_failures = 0

    def force_program_failure(self, ppn: int) -> None:
        """Make the next program of *ppn* report a status failure."""
        self.forced_program_failures.add(ppn)

    def force_erase_failure(self, block_index: int) -> None:
        self.forced_erase_failures.add(block_index)

    def program_fails(self, ppn: int) -> bool:
        if ppn in self.forced_program_failures:
            self.forced_program_failures.discard(ppn)
            self.program_failures += 1
            return True
        if self.program_fail_prob > 0 and self._rng.random() < self.program_fail_prob:
            self.program_failures += 1
            return True
        return False

    def erase_fails(self, block_index: int) -> bool:
        if block_index in self.forced_erase_failures:
            self.forced_erase_failures.discard(block_index)
            self.erase_failures += 1
            return True
        if self.erase_fail_prob > 0 and self._rng.random() < self.erase_fail_prob:
            self.erase_failures += 1
            return True
        return False

    # ------------------------------------------------------------------
    # Extended fault surface (no-ops here; PlannedFaultInjector overrides)
    # ------------------------------------------------------------------

    def tick(self, op_index: int, now_ns: int = -1) -> None:
        """Advance the injector's notion of host progress: *op_index* is
        the host-op counter, *now_ns* the virtual clock when available."""

    def read_uncorrectable(self, ppn: int, lpn: int = -1) -> bool:
        """True when reading *ppn* (holding logical sector *lpn*) must
        report an uncorrectable ECC error regardless of the wear model."""
        return False

    @property
    def offline_dies(self) -> frozenset[int]:
        """Dies the fault plan has taken offline (empty by default)."""
        return frozenset()

    def power_cut_pending(self) -> bool:
        """True when a planned power-cut fault has triggered; the caller
        (sweep harness or timed device) performs the actual cut."""
        return False
