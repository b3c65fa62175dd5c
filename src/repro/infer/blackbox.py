"""Black-box inference: host interface, SMART counters, and a bus probe.

Everything here works the way the paper's §2–§3.1 tooling does — from
outside the device.  The analyst sees the drive's public geometry and
budgets (datasheet facts) but none of the six policy knobs; evidence
comes from write/read latencies, the MX500-style SMART program-page
counters, and a logic analyzer soldered to one flash channel.

Per-knob verdicts (``None`` = not recoverable from outside, which is
itself a transparency result the score reports):

==================  ================================================
knob                black-box signal
==================  ================================================
cache_designation   write-buffer probe: stall point ≫ sectors/page
                    means the RAM buffers data, not mapping pages
cache_admission     SMART host-program pages across 64 same-LBA
                    writes: absorbed (1 page) vs packed-through
cache_eviction      overflow-then-read-latency, only observable on
                    data-designated, admitting caches
allocation          bus trace: per-plane block-sequence reversals
                    reveal hot/cold stream ping-pong; the 13 static
                    permutations are indistinguishable on a
                    single-channel tap (reported as the
                    representative ``CWDP``)
gc_policy           WAF + erase-count matching against candidate
                    models replaying the same churn workload
wear_policy         invisible (no host-visible signal at this scale)
==================  ================================================
"""

from __future__ import annotations

import numpy as np

from repro.core.blackbox import detect_write_buffer
from repro.core.probe.analyzer import TLA7000, LogicAnalyzer
from repro.core.probe.decoder import decode_trace_windows
from repro.flash.timing import profile
from repro.infer.grid import KNOBS, PolicyPoint, registry_names
from repro.infer.toolloop import ToolLoop
from repro.ssd.config import SsdConfig
from repro.ssd.device import SimulatedSSD
from repro.ssd.timed import BusTap, TimedSSD

#: rewrites in the admission probe; bypass packs them into ≫ this/spp pages.
_ADMISSION_WRITES = 64

#: alternating hot/cold rounds in the allocation probe.
_ALLOC_ROUNDS = 24

#: churn writes (of ``spp`` sectors each) driving the GC fingerprint.
_GC_CHURN_OPS = 1500


class BlackboxInference:
    """One black-box run against a hidden *true_config*.

    *true_config* is used **only** to construct devices (the hardware
    under test); every inference works from ``self.base`` — the public
    configuration with all six knobs reset to their defaults.
    """

    def __init__(self, true_config: SsdConfig, loop: ToolLoop) -> None:
        self._true_config = true_config
        self.base = PolicyPoint().apply(true_config)
        self.loop = loop
        geometry = self.base.geometry
        self.spp = geometry.page_size // geometry.sector_size

    # -- device factories (the "lab bench") ----------------------------

    def _timed(self, tap: BusTap | None = None) -> TimedSSD:
        return TimedSSD(self._true_config, bus_tap=tap)

    def _smart_device(self) -> TimedSSD:
        return SimulatedSSD(self._true_config)

    # ------------------------------------------------------------------
    # cache knobs
    # ------------------------------------------------------------------

    def infer_cache_designation(self) -> tuple[str, int]:
        device = self._timed()
        probe = detect_write_buffer(device)
        cap = probe.estimated_sectors or 0
        self.loop.record("probe", "ssdcheck.write_buffer",
                         "burst single-sector writes until first stall",
                         {"estimated_sectors": cap})
        designation = "data" if cap > 2 * self.spp else "mapping"
        self.loop.record(
            "hypothesize", "cache.designation",
            f"stall at {cap} vs {self.spp} sectors/page",
            designation)
        return designation, cap

    def infer_cache_admission(self) -> tuple[str, int]:
        device = self._smart_device()
        before = device.smart.snapshot()
        for _ in range(_ADMISSION_WRITES):
            device.write_sectors(0, 1)
        device.flush()
        pages = device.smart.delta(before).host_program_pages
        self.loop.record("probe", "smart.host_program_pages",
                         f"{_ADMISSION_WRITES} same-LBA writes + flush",
                         {"host_pages": pages})
        admission = "always" if pages <= 2 else "bypass"
        self.loop.record("hypothesize", "cache.admission",
                         "absorbed rewrites program almost nothing",
                         admission)
        return admission, pages

    def infer_cache_eviction(self, designation: str, admission: str,
                             cache_sectors: int) -> str | None:
        if designation != "data" or admission != "always":
            self.loop.record(
                "analyze", "cache.eviction",
                "no admitting data cache to overflow", "unobservable")
            return None
        device = self._timed()
        spp, cap = self.spp, cache_sectors
        base = 64
        for lba in range(base, base + cap):
            device.write_sectors(lba, 1)
        device.write_sectors(base, 1)  # hit: lru refreshes, fifo does not
        for lba in range(base + cap, base + cap + spp):
            device.write_sectors(lba, 1)  # overflow: evicts one batch
        device.quiesce()
        overhead_us = device.controller_overhead_ns / 1000
        victim = device.read_sectors(base, 1).latency_us
        control = device.read_sectors(base + cap - 1, 1).latency_us
        self.loop.record("probe", "timed.read_latency",
                         "read first-written sector after one eviction",
                         {"victim_us": victim, "control_us": control})
        # lru: the rewritten sector was refreshed, somebody else got
        # evicted, the read is a RAM hit.  fifo: it went to flash.
        eviction = "lru" if victim <= 4 * overhead_us else "fifo"
        self.loop.record("hypothesize", "cache.eviction",
                         "RAM-hit vs flash-read latency", eviction)
        return eviction

    # ------------------------------------------------------------------
    # allocation
    # ------------------------------------------------------------------

    def infer_allocation(self) -> str:
        geometry = self.base.geometry
        tap = BusTap(geometry, profile(self.base.timing_name), channel=0)
        device = self._timed(tap)
        spp = self.spp
        warm = 64
        for lba in range(0, warm * spp, spp):
            device.write_sectors(lba, spp)
        device.flush()
        fresh = warm * spp
        for round_no in range(_ALLOC_ROUNDS):
            device.write_sectors((round_no % 8) * spp, spp)  # hot rewrite
            device.flush()
            device.write_sectors(fresh, spp)  # first touch (cold)
            device.flush()
            fresh += spp
        device.quiesce()
        result = decode_trace_windows(tap.trace, LogicAnalyzer(TLA7000),
                                      max_windows=64)
        programs = [op for op in result.ops
                    if op.name == "program" and op.row is not None]
        self.loop.record("probe", "probe.decode",
                         "decode channel-0 trace of hot/cold interleave",
                         {"programs": len(programs)})
        reversals = self._plane_reversals(programs)
        allocation = "hotcold" if reversals >= 3 else "CWDP"
        self.loop.record(
            "hypothesize", "alloc.streams",
            f"{reversals} per-plane block-order reversals "
            "(static permutations are tap-ambiguous)", allocation)
        return allocation

    def _plane_reversals(self, programs) -> int:
        """Direction changes of the per-plane block sequence.

        One active block per stream means each plane's programs walk
        blocks monotonically; a second (cold) stream ping-pongs between
        two open blocks and racks up reversals.
        """
        geometry = self.base.geometry
        ppb = geometry.pages_per_block
        per_plane: dict[int, list[int]] = {}
        for op in programs:
            block_in_die = op.row // ppb
            plane = block_in_die // geometry.blocks_per_plane
            per_plane.setdefault(plane, []).append(
                block_in_die % geometry.blocks_per_plane)
        reversals = 0
        for blocks in per_plane.values():
            direction = 0
            for prev, cur in zip(blocks, blocks[1:]):
                if cur == prev:
                    continue
                step = 1 if cur > prev else -1
                if direction and step != direction:
                    reversals += 1
                direction = step
        return reversals

    # ------------------------------------------------------------------
    # GC
    # ------------------------------------------------------------------

    def infer_gc_policy(self, hypotheses: dict[str, str | None]) -> str:
        """Replay one churn workload on the drive and on candidate
        models, and keep the candidate whose WAF + erase fingerprint
        sits closest."""
        churn = self._churn_workload()
        waf_true, erase_true = self._run_churn(self._smart_device(), churn)
        self.loop.record("probe", "smart.waf",
                         f"churn {_GC_CHURN_OPS} x {self.spp}-sector "
                         "uniform writes",
                         {"waf": waf_true, "erases": erase_true})
        overrides = {
            "allocation_scheme": hypotheses.get("allocation"),
            "cache_designation": hypotheses.get("cache_designation"),
            "cache_admission": hypotheses.get("cache_admission"),
            "cache_eviction": hypotheses.get("cache_eviction"),
        }
        overrides = {k: v for k, v in overrides.items() if v is not None}
        best, best_score = None, None
        for name in registry_names("gc_policy"):
            model = SimulatedSSD(self.base.with_changes(
                gc_policy=name, **overrides))
            waf, erases = self._run_churn(model, churn)
            score = (abs(waf - waf_true)
                     + 0.5 * abs(erases - erase_true) / max(1, erase_true))
            self.loop.record("analyze", "gc.model_match",
                             f"candidate {name}",
                             {"waf": waf, "erases": erases, "score": score})
            if best_score is None or score < best_score:
                best, best_score = name, score
        self.loop.record("hypothesize", "gc.model_match",
                         "closest WAF/erase fingerprint", best)
        return best

    def _churn_workload(self) -> np.ndarray:
        pages = max(1, self.base.logical_sectors // self.spp - 2)
        rng = np.random.default_rng(20190513)  # HotOS'19, fixed
        return rng.integers(0, pages, size=_GC_CHURN_OPS) * self.spp

    def _run_churn(self, device: TimedSSD,
                   churn: np.ndarray) -> tuple[float, int]:
        for lba in churn:
            device.write_sectors(int(lba), self.spp)
        device.flush()
        return round(device.smart.waf(), 6), device.smart.erase_count

    # ------------------------------------------------------------------

    def run(self) -> dict[str, str | None]:
        recovered: dict[str, str | None] = dict.fromkeys(KNOBS)
        designation, cap = self.infer_cache_designation()
        recovered["cache_designation"] = designation
        recovered["cache_admission"], _ = self.infer_cache_admission()
        recovered["cache_eviction"] = self.infer_cache_eviction(
            designation, recovered["cache_admission"], cap)
        recovered["allocation"] = self.infer_allocation()
        recovered["gc_policy"] = self.infer_gc_policy(recovered)
        recovered["wear_policy"] = None
        self.loop.record("analyze", "wear.visibility",
                         "wear policy leaves no host-visible trace "
                         "at probe scale", "unobservable")
        return recovered


def run_blackbox(true_config: SsdConfig,
                 loop: ToolLoop) -> dict[str, str | None]:
    """Full black-box pass; returns the recovered knob settings."""
    return BlackboxInference(true_config, loop).run()
