"""An OpenOCD-flavoured debug session over the JTAG probe.

Provides the operations the paper's study actually used: verifying the
part answers (IDCODE), dumping memory regions, sampling per-core program
counters while a workload runs, and halting/resuming cores.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.core.jtag.dap import JtagProbe


@dataclass
class PcProfile:
    """PC samples per core, collected while a stimulus ran."""

    samples: dict[int, list[int]] = field(default_factory=dict)

    def add(self, core: int, pc: int) -> None:
        self.samples.setdefault(core, []).append(pc)

    def hot_range(self, core: int) -> tuple[int, int] | None:
        """The address span this core spent its time in."""
        values = self.samples.get(core)
        if not values:
            return None
        return min(values), max(values)

    def activity_fraction(self, core: int, idle_pcs: set[int]) -> float:
        """Fraction of samples outside known idle addresses."""
        values = self.samples.get(core)
        if not values:
            return 0.0
        busy = sum(1 for pc in values if pc not in idle_pcs)
        return busy / len(values)


class Debugger:
    """High-level debug workflows (the `openocd` + `telnet 4444` role)."""

    def __init__(self, probe: JtagProbe) -> None:
        self.probe = probe

    # ------------------------------------------------------------------

    def check_connection(self, expected_idcode: int | None = None) -> int:
        """Read and (optionally) verify the IDCODE."""
        self.probe.reset()
        idcode = self.probe.idcode()
        if expected_idcode is not None and idcode != expected_idcode:
            raise ConnectionError(
                f"IDCODE mismatch: got 0x{idcode:08x}, "
                f"expected 0x{expected_idcode:08x}"
            )
        return idcode

    def dump(self, addr: int, length: int) -> bytes:
        """`dump_image`-style memory dump."""
        return self.probe.read_bytes(addr, length)

    def mdw(self, addr: int, count: int = 1) -> list[int]:
        """`mdw`-style word display."""
        return self.probe.read_block(addr, count)

    def halt(self, core: int) -> None:
        self.probe.halt(core)

    def resume(self, core: int) -> None:
        self.probe.resume(core)

    # ------------------------------------------------------------------
    # Dynamic analysis
    # ------------------------------------------------------------------

    def profile_pcs(
        self,
        stimulus: Callable[[int], None],
        iterations: int,
        cores: tuple[int, ...] = (0, 1, 2),
    ) -> PcProfile:
        """Drive *stimulus* and sample every core's PC after each step.

        ``stimulus(i)`` issues the i-th host request; this is the
        "carefully tracing single-sector accesses" loop from §3.2.
        """
        profile = PcProfile()
        for i in range(iterations):
            stimulus(i)
            for core in cores:
                profile.add(core, self.probe.sample_pc(core))
        return profile

    def snapshot_region(self, addr: int, length: int) -> np.ndarray:
        """Region contents as a uint8 array, for memory diffing."""
        return np.frombuffer(self.dump(addr, length), dtype=np.uint8).copy()

    def diff_region(
        self,
        addr: int,
        length: int,
        mutate: Callable[[], None],
    ) -> list[int]:
        """Snapshot, run *mutate*, snapshot again; return changed offsets."""
        before = self.snapshot_region(addr, length)
        mutate()
        after = self.snapshot_region(addr, length)
        return [int(i) for i in np.nonzero(before != after)[0]]

    def find_strings(self, addr: int, length: int, min_len: int = 6) -> list[str]:
        """ASCII strings in a memory region (`strings(1)` over JTAG)."""
        return ascii_strings(self.dump(addr, length), min_len)


def ascii_strings(blob: bytes, min_len: int = 6) -> list[str]:
    """Runs of at least *min_len* printable ASCII bytes in *blob*, in
    order (what `strings(1)` prints)."""
    out, current = [], bytearray()
    for byte in blob:
        if 0x20 <= byte < 0x7F:
            current.append(byte)
        else:
            if len(current) >= min_len:
                out.append(current.decode())
            current = bytearray()
    if len(current) >= min_len:
        out.append(current.decode())
    return out
