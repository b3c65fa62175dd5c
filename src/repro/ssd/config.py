"""Every FTL design knob in one place.

The paper's central complaint is that these knobs are invisible from
outside the device.  :class:`SsdConfig` makes them explicit so experiments
can sweep exactly the dimensions the paper varies (GC victim selection,
write-cache designation, page-allocation scheme) plus the mechanisms its
reverse engineering uncovered (RAIN parity, pSLC buffering, demand-loaded
mapping chunks).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.flash.geometry import Geometry
from repro.flash.timing import PROFILES
from repro.ssd.allocation import STREAMS
from repro.ssd.policy import ALLOCATION, POLICIES, check


@dataclass(frozen=True)
class SsdConfig:
    """Complete configuration of a simulated SSD.

    Capacity accounting: the flash array provides
    ``geometry.capacity_bytes`` of raw space; ``op_ratio`` of it is
    reserved as over-provisioning, the rest (minus pSLC blocks) is
    exported as logical sectors of ``geometry.sector_size`` bytes.
    """

    geometry: Geometry = field(default_factory=Geometry)
    timing_name: str = "mlc"

    # --- capacity -----------------------------------------------------
    op_ratio: float = 0.07

    # --- garbage collection --------------------------------------------
    gc_policy: str = "greedy"
    #: sample size d for the randomized-greedy (d-choices) policy.
    gc_sample_size: int = 8
    #: foreground GC starts when a plane's free blocks drop to this count.
    gc_low_water_blocks: int = 2
    #: foreground GC stops once the plane is back above this count.
    gc_high_water_blocks: int = 4

    # --- write cache ----------------------------------------------------
    cache_designation: str = "data"
    #: RAM budget of the write cache, in host sectors.
    cache_sectors: int = 256
    #: whether host sectors enter the cache (``always``) or bypass it
    #: into a direct page-packing staging buffer (``bypass``).
    cache_admission: str = "always"
    #: flush ordering of pending cache sectors (``lru`` or ``fifo``).
    cache_eviction: str = "lru"

    # --- mapping --------------------------------------------------------
    #: LPNs covered by one translation page (one metadata flash write).
    mapping_tp_lpns: int = 4096
    #: RAM slots for dirty translation pages before forced eviction.
    mapping_dirty_tp_limit: int = 512
    #: host sector writes between periodic metadata checkpoints.
    mapping_sync_interval: int = 8192
    #: LPNs per demand-loaded mapping chunk (0 disables demand loading;
    #: the 840 EVO model uses chunks covering 117.5 MB of LBA space).
    mapping_chunk_lpns: int = 0
    #: resident chunk budget when demand loading is on.
    mapping_resident_chunks: int = 8

    # --- allocation -------------------------------------------------------
    allocation_scheme: str = "CWDP"

    # --- RAIN parity -------------------------------------------------------
    #: data pages per parity page; 0 disables RAIN.
    rain_stripe: int = 0

    # --- pseudo-SLC buffer ---------------------------------------------
    #: blocks (per device) operated as a pSLC write buffer; 0 disables.
    pslc_blocks: int = 0
    #: fraction of the pSLC buffer that triggers background draining.
    pslc_drain_threshold: float = 0.5

    # --- reliability -----------------------------------------------------
    erase_limit: int = 3000
    #: enable static wear leveling (cold block rotation).
    wear_leveling: bool = False
    wear_leveling_delta: int = 100
    #: which block static leveling migrates (``coldest``, ``sampled_cold``).
    wear_policy: str = "coldest"
    #: retention refresh: rewrite blocks older than this many host
    #: sector-writes during idle maintenance (0 disables).
    refresh_after_ops: int = 0
    #: retention time scale: host sector-writes per simulated day of
    #: data age (0 disables retention/ECC modeling on reads).
    ops_per_day: int = 0

    # --- graceful degradation (repro.faults) ---------------------------
    #: read-retry ladder depth on uncorrectable reads (0 disables).  Each
    #: step re-reads with shifted sense voltages, costing one extra flash
    #: read and attenuating the raw bit error rate (by
    #: :data:`repro.ssd.ftl.READ_RETRY_RBER_FACTOR` per step).
    read_retry_steps: int = 0
    #: enter read-only degraded mode when grown bad blocks shrink the
    #: spare pool (blocks beyond those needed for logical capacity)
    #: below this count (0 disables the check).
    spare_blocks_min: int = 0

    def __post_init__(self) -> None:
        if self.timing_name not in PROFILES:
            raise ValueError(f"unknown timing profile {self.timing_name!r}")
        # Each policy knob names an entry of its table; an unknown name's
        # error lists every valid choice.
        for knob in POLICIES:
            check(knob, getattr(self, knob))
        if not 0.0 <= self.op_ratio < 0.5:
            raise ValueError("op_ratio must be in [0, 0.5)")
        if self.gc_low_water_blocks < 0:
            raise ValueError("gc_low_water_blocks must be non-negative")
        if self.gc_high_water_blocks < self.gc_low_water_blocks:
            raise ValueError("gc_high_water_blocks must be >= gc_low_water_blocks")
        if self.rain_stripe < 0 or self.rain_stripe == 1:
            raise ValueError("rain_stripe must be 0 (off) or >= 2")
        if self.cache_sectors < 0:
            raise ValueError("cache_sectors must be non-negative (0: no "
                             "write cache)")
        if self.pslc_blocks < 0:
            raise ValueError("pslc_blocks must be non-negative")
        if self.pslc_blocks >= self.geometry.total_blocks:
            raise ValueError(
                f"pslc_blocks must be below the geometry's "
                f"{self.geometry.total_blocks} blocks (the main area "
                f"needs at least one)")
        if not 0.0 < self.pslc_drain_threshold <= 1.0:  # NaN fails too
            raise ValueError("pslc_drain_threshold must be in (0, 1]")
        if self.erase_limit < 1:
            raise ValueError("erase_limit must be >= 1")
        if self.mapping_tp_lpns <= 0:
            raise ValueError("mapping_tp_lpns must be positive")
        if self.mapping_dirty_tp_limit < 1:
            raise ValueError("mapping_dirty_tp_limit must be >= 1")
        if self.mapping_sync_interval < 1:
            raise ValueError("mapping_sync_interval must be >= 1")
        if self.mapping_chunk_lpns < 0 or self.mapping_chunk_lpns % self.mapping_tp_lpns:
            raise ValueError("mapping_chunk_lpns must be 0 (no demand "
                             "loading) or a positive multiple of "
                             "mapping_tp_lpns")
        if self.mapping_resident_chunks < 1:
            raise ValueError("mapping_resident_chunks must be >= 1")
        if self.refresh_after_ops < 0:
            raise ValueError("refresh_after_ops must be non-negative")
        if self.ops_per_day < 0:
            raise ValueError("ops_per_day must be non-negative")
        if self.read_retry_steps < 0:
            raise ValueError("read_retry_steps must be non-negative")
        if self.spare_blocks_min < 0:
            raise ValueError("spare_blocks_min must be non-negative")

    # ------------------------------------------------------------------
    # Derived capacity
    # ------------------------------------------------------------------

    @property
    def pslc_reserved_bytes(self) -> int:
        return self.pslc_blocks * self.geometry.block_bytes

    def pslc_block_ids(self) -> tuple[int, ...]:
        """Physical blocks reserved for the pSLC buffer, striped across
        planes so the buffer can absorb bursts with full die
        parallelism (as TurboWrite-class regions are laid out)."""
        geometry = self.geometry
        planes = geometry.planes_total
        ids = []
        for i in range(self.pslc_blocks):
            plane = i % planes
            slot = i // planes
            ids.append(plane * geometry.blocks_per_plane + slot)
        return tuple(ids)

    @property
    def logical_sectors(self) -> int:
        """Exported logical capacity, in sectors."""
        usable = self.geometry.capacity_bytes - self.pslc_reserved_bytes
        exported = int(usable * (1.0 - self.op_ratio))
        return exported // self.geometry.sector_size

    @property
    def spare_blocks_at_birth(self) -> int:
        """Blocks beyond those strictly needed to hold logical capacity
        on a fresh device: total minus pSLC minus the data footprint.
        Grown bad blocks eat this pool (``Ftl.spare_blocks``)."""
        geometry = self.geometry
        sectors_per_block = geometry.sectors_per_page * geometry.pages_per_block
        data_blocks = -(-self.logical_sectors // sectors_per_block)  # ceil
        return geometry.total_blocks - self.pslc_blocks - data_blocks

    @property
    def circulating_sectors(self) -> int:
        """Sectors the FTL can circulate host data through: the main
        blocks less each plane's GC reserve (``gc_high_water_blocks``)
        and open blocks (one per stream), times the RAIN data fraction."""
        geometry = self.geometry
        streams = len(STREAMS) + len(
            ALLOCATION[self.allocation_scheme]().extra_streams)
        blocks = (geometry.total_blocks - self.pslc_blocks
                  - geometry.planes_total
                  * (self.gc_high_water_blocks + streams))
        sectors = blocks * geometry.sectors_per_page * geometry.pages_per_block
        if self.rain_stripe:
            return sectors * self.rain_stripe // (self.rain_stripe + 1)
        return sectors

    @property
    def logical_bytes(self) -> int:
        return self.logical_sectors * self.geometry.sector_size

    def with_changes(self, **kwargs) -> "SsdConfig":
        """Return a copy with the given fields replaced (for sweeps)."""
        return replace(self, **kwargs)
