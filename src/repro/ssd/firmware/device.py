"""The hackable device: an 840-EVO-like SSD with firmware, DRAM and JTAG.

:class:`HackableSSD` wraps the counter-mode simulator in everything the
§3.2 study interacts with:

* a generated firmware image, plus the obfuscated "firmware update file"
  one would download from the vendor;
* a byte-addressable controller address space, where DRAM contents are
  materialized **from live FTL state** on demand — the mapping arrays
  (interleaved ``lpn % 8``), the pSLC hashed index, and 0xFF for
  mapping chunks that are not demand-loaded yet;
* per-core program counters that move through the firmware's handler
  ranges as the device services requests (what PC sampling over JTAG
  observes).

The JTAG layer (:mod:`repro.core.jtag`) talks to this class only through
:meth:`read_mem` / :meth:`write_mem` / :meth:`core_pc` — the same surface
a real debug port provides.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from repro.ssd.config import SsdConfig
from repro.ssd.device import SimulatedSSD
from repro.ssd.firmware.builder import (
    MAP_ENTRY_BYTES,
    MMIO_BASE,
    MMIO_DOORBELL,
    MMIO_LBA,
    MMIO_LEN,
    NUM_MAP_ARRAYS,
    POLICY_TABLE_ENTRIES,
    POLICY_TABLE_TAG_BYTES,
    POLICY_TABLE_TAGS,
    PSLC_BUCKET_BYTES,
    FirmwareImage,
    MemoryMap,
    build_firmware,
    memory_map_for,
)
from repro.ssd.firmware.isa import WORD, Op, decode_word
from repro.ssd.firmware.obfuscation import obfuscate
from repro.ssd.mapping import UNMAPPED
from repro.ssd.policy import HotColdAllocation
from repro.ssd.presets import evo840_like

#: serialized entry for "mapped nowhere" (chunk resident, LPN unmapped).
ENTRY_UNMAPPED = 0xFFFFFFFE
#: fill byte for DRAM that holds nothing (incl. not-yet-loaded chunks).
FILL_BYTE = 0xFF

#: IDCODE reported on the debug port (an ARM JTAG-DP, as on real parts).
IDCODE = 0x4BA00477


@dataclass(frozen=True)
class CoreInfo:
    """Where one core's code lives and where it idles."""

    index: int
    load_addr: int
    size: int
    wfi_addr: int


class HackableSSD:
    """An SSD with a debug port left on the board."""

    def __init__(self, config: SsdConfig | None = None, scale: int = 2,
                 update_seed: int = 0x3C, update_period: int = 64,
                 policy_firmware: bool = False) -> None:
        self.config = config if config is not None else evo840_like(scale)
        self.ssd = SimulatedSSD(self.config, model="840 EVO (repro)")
        self.memory_map: MemoryMap = memory_map_for(self.config)
        #: with policy firmware the image carries the four policy cores
        #: and the DRAM policy tables are served from live FTL state.
        self.policy_firmware = policy_firmware
        self.firmware: FirmwareImage = build_firmware(
            self.memory_map, self.config if policy_firmware else None
        )
        self.firmware_plain: bytes = self.firmware.to_bytes()
        #: what the vendor's download site serves.
        self.firmware_update_file: bytes = obfuscate(
            self.firmware_plain, seed=update_seed, period=update_period
        )
        self._rom = self._build_rom()
        self._sram: dict[int, int] = {}
        self.cores = self._locate_cores()
        self._core_pcs = [core.wfi_addr for core in self.cores]
        self._halted = [False] * len(self.cores)
        self._activity = 0
        self._last_lba = 0
        self._last_len = 0
        self._last_doorbell = 0

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    def _build_rom(self) -> bytes:
        end = max(s.load_addr + len(s.data) for s in self.firmware.sections)
        rom = bytearray(b"\xff" * end)
        for section in self.firmware.sections:
            rom[section.load_addr : section.load_addr + len(section.data)] = (
                section.data
            )
        return bytes(rom)

    def _locate_cores(self) -> list[CoreInfo]:
        cores = []
        for index in range(3):
            section = self.firmware.section(f"core{index}")
            wfi = section.load_addr
            for offset in range(0, len(section.data), WORD):
                insn = decode_word(
                    int.from_bytes(section.data[offset : offset + WORD], "little")
                )
                if insn is not None and insn.op is Op.WFI:
                    wfi = section.load_addr + offset
                    break
            cores.append(CoreInfo(index, section.load_addr, len(section.data), wfi))
        return cores

    # ------------------------------------------------------------------
    # Host interface (drives PC activity)
    # ------------------------------------------------------------------

    @property
    def num_sectors(self) -> int:
        return self.ssd.num_sectors

    def write_sectors(self, lba: int, count: int = 1):
        self._note_request(lba, count)
        return self.ssd.write_sectors(lba, count)

    def read_sectors(self, lba: int, count: int = 1):
        self._note_request(lba, count)
        return self.ssd.read_sectors(lba, count)

    def trim_sectors(self, lba: int, count: int = 1):
        self._note_request(lba, count)
        return self.ssd.trim_sectors(lba, count)

    def flush(self):
        return self.ssd.flush()

    def _note_request(self, lba: int, count: int) -> None:
        """Advance core PCs the way servicing this request would."""
        self._activity += 1
        self._last_lba = lba
        self._last_len = count
        flash_core = 1 + (lba & 1)
        self._last_doorbell = flash_core
        self._set_pc(0, busy=True)
        for core in (1, 2):
            self._set_pc(core, busy=(core == flash_core))

    def _set_pc(self, index: int, busy: bool) -> None:
        if self._halted[index]:
            return
        core = self.cores[index]
        if not busy:
            self._core_pcs[index] = core.wfi_addr
            return
        words = max(1, core.size // WORD)
        offset = (self._activity * 7 + index * 3) % words
        self._core_pcs[index] = core.load_addr + offset * WORD

    # ------------------------------------------------------------------
    # Debug surface (what JTAG reaches)
    # ------------------------------------------------------------------

    def core_pc(self, index: int) -> int:
        return self._core_pcs[index]

    def halt_core(self, index: int) -> None:
        self._halted[index] = True

    def resume_core(self, index: int) -> None:
        self._halted[index] = False

    def is_halted(self, index: int) -> bool:
        return self._halted[index]

    def read_mem(self, addr: int, length: int) -> bytes:
        """Read the controller address space."""
        if length < 0:
            raise ValueError("length must be non-negative")
        out = bytearray()
        cursor = addr
        remaining = length
        while remaining > 0:
            chunk = self._read_region(cursor, remaining)
            out.extend(chunk)
            cursor += len(chunk)
            remaining -= len(chunk)
        return bytes(out)

    def write_mem(self, addr: int, data: bytes) -> None:
        """Writes land in SRAM and MMIO; other regions are read-only
        (writing code/DRAM through this model is not needed by the
        experiments, and real debug sessions avoid it too)."""
        sram = self.memory_map.sram_base
        if sram <= addr and addr + len(data) <= sram + 0x10000:
            for i, byte in enumerate(data):
                self._sram[addr + i] = byte
            return
        if addr >= MMIO_BASE:
            # Allow poking the doorbell (used to test core wake-up).
            if addr == MMIO_BASE + MMIO_DOORBELL and data:
                self._last_doorbell = data[0]
            return
        raise PermissionError(f"region at 0x{addr:08x} is not writable")

    # ------------------------------------------------------------------
    # Region dispatch
    # ------------------------------------------------------------------

    def _read_region(self, addr: int, max_len: int) -> bytes:
        mm = self.memory_map
        # Code ROM.
        if addr < len(self._rom):
            end = min(len(self._rom), addr + max_len)
            return self._rom[addr:end]
        if addr < mm.sram_base:
            take = min(max_len, mm.sram_base - addr)
            return b"\xff" * take
        # SRAM overlay.
        if addr < mm.sram_base + 0x10000:
            take = min(max_len, mm.sram_base + 0x10000 - addr)
            return bytes(self._sram.get(addr + i, 0) for i in range(take))
        if addr < mm.dram_base:
            take = min(max_len, mm.dram_base - addr)
            return b"\xff" * take
        # DRAM: mapping arrays.
        arrays_end = mm.map_array_bases[-1] + mm.map_array_bytes
        if addr < arrays_end:
            return self._read_map_arrays(addr, max_len)
        if addr < mm.pslc_index_base:
            take = min(max_len, mm.pslc_index_base - addr)
            return b"\xff" * take
        # DRAM: pSLC hashed index.
        pslc_end = mm.pslc_index_base + mm.pslc_index_bytes
        if addr < pslc_end:
            take = min(max_len, pslc_end - addr)
            table = self._serialize_pslc_index()
            start = addr - mm.pslc_index_base
            return table[start : start + take]
        # DRAM: policy tables (live FTL state, policy firmware only).
        region = mm.policy_region if self.policy_firmware else None
        if region is not None and addr < region[1]:
            if addr < region[0]:
                return b"\xff" * min(max_len, region[0] - addr)
            return self._read_policy_region(addr, max_len)
        if addr < MMIO_BASE:
            take = min(max_len, MMIO_BASE - addr)
            return b"\xff" * take
        # MMIO registers.
        return self._read_mmio(addr, max_len)

    def _read_policy_region(self, addr: int, max_len: int) -> bytes:
        """Serve one policy-table slot: 8-byte tag, padding, entries."""
        mm = self.memory_map
        table_bytes = POLICY_TABLE_ENTRIES * MAP_ENTRY_BYTES
        for name, base in mm.policy_table_bases:
            slot_start = base - POLICY_TABLE_TAG_BYTES
            slot_end = base + table_bytes
            if addr < slot_start:
                return b"\xff" * min(max_len, slot_start - addr)
            if addr < base:
                header = POLICY_TABLE_TAGS[name].ljust(
                    POLICY_TABLE_TAG_BYTES, b"\x00"
                )
                offset = addr - slot_start
                return header[offset : offset + min(max_len, base - addr)]
            if addr < slot_end:
                blob = self._policy_table_values(name).tobytes()
                offset = addr - base
                return blob[offset : offset + min(max_len, slot_end - addr)]
        return b"\xff" * min(max_len, MMIO_BASE - addr)

    def _policy_table_values(self, name: str) -> np.ndarray:
        """Live little-endian u32 contents of one policy table."""
        ftl = self.ssd.ftl
        n = POLICY_TABLE_ENTRIES
        values = np.full(n, 0xFFFFFFFF, dtype="<u4")
        if name == "pool":
            # The candidate list GC scans: one entry per physical block.
            total = min(self.config.geometry.total_blocks, n)
            values[:total] = np.arange(total, dtype="<u4")
        elif name == "valid":
            valid = np.asarray(ftl.block_valid)
            k = min(valid.shape[0], n)
            values[:k] = valid[:k].astype("<u4")
        elif name == "seq":
            values[: min(self.config.geometry.total_blocks, n)] = 0
            for block, stamp in ftl.allocator.block_alloc_seq.items():
                if block < n:
                    values[block] = stamp & 0xFFFFFFFF
        elif name == "erase":
            erase = np.asarray(ftl.nand.block_erase_count)
            k = min(erase.shape[0], n)
            values[:k] = erase[:k].astype("<u4")
        elif name == "heat":
            values[:] = 0
            policy = ftl.allocator.policy
            if isinstance(policy, HotColdAllocation):
                for lpn, count in policy.heat.items():
                    values[lpn % n] = count & 0xFFFFFFFF
        elif name == "cacheslot":
            # Pending sectors in eviction order — what the flush engine
            # would pop first sits in slot 0.
            pending = list(ftl.cache.pending.keys())[:n]
            if pending:
                values[: len(pending)] = np.asarray(pending, dtype="<u4")
        elif name == "recency":
            values[:] = 0
        else:
            raise KeyError(f"no policy table {name!r}")
        return values

    def _read_map_arrays(self, addr: int, max_len: int) -> bytes:
        mm = self.memory_map
        stride = mm.map_array_bases[1] - mm.map_array_bases[0] if (
            NUM_MAP_ARRAYS > 1
        ) else mm.map_array_bytes
        array = (addr - mm.dram_base) // stride
        array = min(array, NUM_MAP_ARRAYS - 1)
        base = mm.map_array_bases[array]
        if addr < base:
            return b"\xff" * min(max_len, base - addr)
        offset = addr - base
        if offset >= mm.map_array_bytes:
            # Alignment gap between the array's end and the next base.
            next_base = (mm.map_array_bases[array + 1]
                         if array + 1 < NUM_MAP_ARRAYS
                         else mm.pslc_index_base)
            return b"\xff" * min(max_len, next_base - addr)
        take = min(max_len, mm.map_array_bytes - offset)
        first_entry = offset // MAP_ENTRY_BYTES
        last_entry = (offset + take - 1) // MAP_ENTRY_BYTES
        count = last_entry - first_entry + 1
        entries = self._serialize_entries(array, first_entry, count)
        blob = entries.tobytes()
        start = offset - first_entry * MAP_ENTRY_BYTES
        return blob[start : start + take]

    def _serialize_entries(self, array: int, first: int, count: int) -> np.ndarray:
        """Little-endian uint32 map entries for one array slice."""
        mapping = self.ssd.ftl.mapping
        indices = np.arange(first, first + count, dtype=np.int64)
        lpns = indices * NUM_MAP_ARRAYS + array
        values = np.full(count, 0xFFFFFFFF, dtype=np.uint32)
        in_range = lpns < mapping.num_lpns
        if np.any(in_range):
            psas = mapping.l2p[lpns[in_range]]
            vals = np.where(psas == UNMAPPED, ENTRY_UNMAPPED,
                            psas.astype(np.int64)).astype(np.uint32)
            values[in_range] = vals
        # Demand loading: entries of non-resident chunks read as 0xFF fill.
        if mapping.chunk_lpns:
            resident = set(mapping.resident_chunk_ids())
            chunks = lpns // mapping.chunk_lpns
            not_loaded = np.array(
                [int(c) not in resident for c in chunks], dtype=bool
            )
            values[not_loaded & in_range] = 0xFFFFFFFF
        return values.astype("<u4")

    def _serialize_pslc_index(self) -> bytes:
        mm = self.memory_map
        buckets = mm.pslc_buckets
        tags = np.full(buckets, 0xFFFFFFFF, dtype="<u4")
        vals = np.full(buckets, 0xFFFFFFFF, dtype="<u4")
        for lpn, psa in self.ssd.ftl.pslc.index.items():
            bucket = mm.pslc_bucket_of(lpn)
            for probe in range(buckets):
                slot = (bucket + probe) % buckets
                if tags[slot] == 0xFFFFFFFF:
                    tags[slot] = lpn
                    vals[slot] = psa
                    break
        interleaved = np.empty(buckets * 2, dtype="<u4")
        interleaved[0::2] = tags
        interleaved[1::2] = vals
        return interleaved.tobytes()

    def _read_mmio(self, addr: int, max_len: int) -> bytes:
        registers = {
            MMIO_BASE + MMIO_LBA: self._last_lba,
            MMIO_BASE + MMIO_LEN: self._last_len,
            MMIO_BASE + MMIO_DOORBELL: self._last_doorbell,
        }
        out = bytearray()
        for i in range(max_len):
            byte_addr = addr + i
            reg = byte_addr & ~0x3
            value = registers.get(reg, 0)
            out.append((value >> ((byte_addr & 0x3) * 8)) & 0xFF)
        return bytes(out)

    # ------------------------------------------------------------------

    def read_word(self, addr: int) -> int:
        return struct.unpack("<I", self.read_mem(addr, 4))[0]

    def write_word(self, addr: int, value: int) -> None:
        self.write_mem(addr, struct.pack("<I", value & 0xFFFFFFFF))
