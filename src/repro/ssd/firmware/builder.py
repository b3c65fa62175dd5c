"""Firmware image generation for the 840-EVO-like device.

The JTAG study needs a *genuine artifact* to reverse engineer: machine
code whose constants and control flow embody the FTL facts the paper
recovered, packed in a vendor-style sectioned image.  The builder
assembles three cores' worth of ISA code from templates:

``core0`` (SATA)
    Reads the pending LBA from MMIO and rings core 1's or core 2's
    doorbell depending on ``lba & 1`` — the LBA-LSB channel split.
``core1`` / ``core2`` (flash)
    Compute the translation-entry address: entry index ``lba >> 3``
    scaled by the entry stride, into one of the core's four mapping
    arrays selected by ``(lba >> 1) & 3``; then probe the pSLC hashed
    index at bucket ``(lba ^ (lba >> 5)) & (buckets - 1)``.

Image layout (the "public format" a de-obfuscation utility would know)::

    +0   magic  "SSDFW840"
    +8   version u32, section_count u32
    +16  section table: name[8] load_addr u32 size u32 offset u32
    ...  section payloads, zero/0xFF padding between sections

The padding is not cosmetic: it is the known plaintext the keystream
attack in :mod:`repro.ssd.firmware.obfuscation` exploits.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

from repro.ssd.config import SsdConfig
from repro.ssd.firmware.isa import assemble
from repro.ssd.policy import designate, parse_scheme

MAGIC = b"SSDFW840"
SECTION_HEADER = struct.Struct("<8sIII")
HEADER = struct.Struct("<8sII")

#: address-space bases (fixed by the controller design).
CODE_BASE = 0x00000000
SRAM_BASE = 0x10000000
DRAM_BASE = 0x20000000
MMIO_BASE = 0x40000000

#: MMIO registers.
MMIO_LBA = 0x0
MMIO_LEN = 0x4
MMIO_DOORBELL = 0x8

#: MMIO latch registers written by the policy cores.  The allocation
#: core stores the C/W/D/P coordinates of each page it places, in the
#: scheme's fastest-to-slowest order — so the *sequence* of store
#: offsets in the code is the dimension permutation itself.
MMIO_DIM_LATCHES = {"C": 0x10, "W": 0x14, "D": 0x18, "P": 0x1C}
MMIO_STREAM = 0x20
MMIO_CACHE_CAP = 0x24
MMIO_CACHE_TP = 0x28
MMIO_GC_VICTIM = 0x2C

NUM_MAP_ARRAYS = 8
MAP_ENTRY_BYTES = 4
PSLC_BUCKET_BYTES = 8

#: DRAM policy tables (what the policy cores' pointer loads resolve to).
#: Each table slot is a 16-byte header (8-byte ASCII tag + padding)
#: followed by 4096 little-endian u32 entries; the recorded base points
#: at entry 0, so the tag sits at ``base - POLICY_TABLE_TAG_BYTES``.
POLICY_TABLE_ENTRIES = 4096
POLICY_TABLE_TAG_BYTES = 16
POLICY_TABLE_STRIDE = 0x5000
POLICY_TABLE_NAMES = (
    "pool", "valid", "seq", "erase", "heat", "cacheslot", "recency",
)
POLICY_TABLE_TAGS = {
    "pool": b"GCPOOL\x00\x00",      # GC candidate pool (sealed blocks)
    "valid": b"BLKVALID",           # per-block valid-sector counts
    "seq": b"ALLOCSEQ",             # per-block allocation stamps (age)
    "erase": b"ERASECNT",           # per-block erase counts (wear)
    "heat": b"HEATTBL\x00",         # per-LPN write heat (stream routing)
    "cacheslot": b"CACHESLT",       # write-cache pending set, eviction order
    "recency": b"RECENCY\x00",      # eviction recency stamps
}

#: SRAM scratch the randomized GC scan spills its drawn sample into.
SCRATCH_BASE = SRAM_BASE + 0x2000
#: SRAM staging buffer the bypass admission path packs sectors into.
STAGING_BASE = SRAM_BASE + 0x3000


@dataclass(frozen=True)
class MemoryMap:
    """Where everything lives in the controller's address space."""

    num_lpns: int
    entries_per_array: int
    map_array_bases: tuple[int, ...]
    pslc_index_base: int
    pslc_buckets: int
    dram_base: int = DRAM_BASE
    code_base: int = CODE_BASE
    sram_base: int = SRAM_BASE
    mmio_base: int = MMIO_BASE
    #: ``(name, entry-0 address)`` per policy table, in layout order.
    #: Empty for maps built before the policy cores existed.
    policy_table_bases: tuple[tuple[str, int], ...] = ()

    @property
    def map_array_bytes(self) -> int:
        return self.entries_per_array * MAP_ENTRY_BYTES

    @property
    def pslc_index_bytes(self) -> int:
        return self.pslc_buckets * PSLC_BUCKET_BYTES

    def array_of_lpn(self, lpn: int) -> tuple[int, int]:
        """``(array index, byte offset)`` of one LPN's map entry."""
        return lpn % NUM_MAP_ARRAYS, (lpn // NUM_MAP_ARRAYS) * MAP_ENTRY_BYTES

    def entry_address(self, lpn: int) -> int:
        array, offset = self.array_of_lpn(lpn)
        return self.map_array_bases[array] + offset

    def pslc_bucket_of(self, lpn: int) -> int:
        return (lpn ^ (lpn >> 5)) & (self.pslc_buckets - 1)

    def pslc_bucket_address(self, bucket: int) -> int:
        return self.pslc_index_base + bucket * PSLC_BUCKET_BYTES

    def policy_table(self, name: str) -> int:
        """Entry-0 address of one policy table."""
        for table, base in self.policy_table_bases:
            if table == name:
                return base
        raise KeyError(f"no policy table {name!r}")

    @property
    def policy_region(self) -> tuple[int, int] | None:
        """``(start, end)`` of DRAM holding the policy tables (tags
        included), or ``None`` on pre-policy maps."""
        if not self.policy_table_bases:
            return None
        first = self.policy_table_bases[0][1] - POLICY_TABLE_TAG_BYTES
        last = (self.policy_table_bases[-1][1]
                + POLICY_TABLE_ENTRIES * MAP_ENTRY_BYTES)
        return first, last


def memory_map_for(config: SsdConfig, pslc_buckets: int = 4096) -> MemoryMap:
    """Lay out DRAM for a device configuration."""
    if pslc_buckets & (pslc_buckets - 1):
        raise ValueError("pslc_buckets must be a power of two")
    num_lpns = config.logical_sectors
    entries = -(-num_lpns // NUM_MAP_ARRAYS)
    stride = _round_up(entries * MAP_ENTRY_BYTES, 0x1000)
    bases = tuple(DRAM_BASE + i * stride for i in range(NUM_MAP_ARRAYS))
    # The pSLC index comes from a different allocation pool: leave a
    # guard gap so it is not stride-contiguous with the map arrays.
    pslc_base = DRAM_BASE + NUM_MAP_ARRAYS * stride + 0x10000
    # Policy tables live past the pSLC index, again behind a guard gap
    # so the stride-fit over map-array pointers never picks them up.
    policy_base = (pslc_base
                   + _round_up(pslc_buckets * PSLC_BUCKET_BYTES, 0x1000)
                   + 0x10000)
    policy_tables = tuple(
        (name, policy_base + i * POLICY_TABLE_STRIDE + POLICY_TABLE_TAG_BYTES)
        for i, name in enumerate(POLICY_TABLE_NAMES)
    )
    return MemoryMap(
        num_lpns=num_lpns,
        entries_per_array=entries,
        map_array_bases=bases,
        pslc_index_base=pslc_base,
        pslc_buckets=pslc_buckets,
        policy_table_bases=policy_tables,
    )


def _round_up(value: int, align: int) -> int:
    return (value + align - 1) // align * align


def _hi(value: int) -> int:
    return (value >> 16) & 0xFFFF


def _lo(value: int) -> int:
    return value & 0xFFFF


# ----------------------------------------------------------------------
# Code templates
# ----------------------------------------------------------------------


def sata_core_source(memory_map: MemoryMap) -> str:
    """Core 0: the host-interface dispatcher."""
    mmio = memory_map.mmio_base
    return f"""
sata_entry:
    movi r1, 0x{_lo(mmio):x}
    movt r1, 0x{_hi(mmio):x}
    ldr r0, [r1, 0x{MMIO_LBA:x}]
    and r2, r0, 0x1            ; route by the LBA's least-significant bit
    cmp r2, 0x0
    beq route_even
    movi r3, 0x2
    str r3, [r1, 0x{MMIO_DOORBELL:x}]   ; doorbell flash core 2
    b sata_wait
route_even:
    movi r3, 0x1
    str r3, [r1, 0x{MMIO_DOORBELL:x}]   ; doorbell flash core 1
sata_wait:
    wfi
    b sata_entry
"""


def flash_core_source(memory_map: MemoryMap, core: int) -> str:
    """Cores 1 and 2: map lookup over the core's four arrays + pSLC probe."""
    if core not in (1, 2):
        raise ValueError("flash cores are 1 and 2")
    parity = core - 1
    arrays = [parity, parity + 2, parity + 4, parity + 6]
    bases = [memory_map.map_array_bases[a] for a in arrays]
    mmio = memory_map.mmio_base
    pslc = memory_map.pslc_index_base
    mask = memory_map.pslc_buckets - 1
    return f"""
flash_entry:
    movi r1, 0x{_lo(mmio):x}
    movt r1, 0x{_hi(mmio):x}
    ldr r0, [r1, 0x{MMIO_LBA:x}]
    lsr r4, r0, 0x3            ; entry index = lba / 8
    lsl r4, r4, 0x2            ; * entry stride (4 bytes)
    lsr r5, r0, 0x1
    and r5, r5, 0x3            ; which of this core's four arrays
    cmp r5, 0x0
    beq use_a0
    cmp r5, 0x1
    beq use_a1
    cmp r5, 0x2
    beq use_a2
    movi r6, 0x{_lo(bases[3]):x}
    movt r6, 0x{_hi(bases[3]):x}
    b lookup
use_a0:
    movi r6, 0x{_lo(bases[0]):x}
    movt r6, 0x{_hi(bases[0]):x}
    b lookup
use_a1:
    movi r6, 0x{_lo(bases[1]):x}
    movt r6, 0x{_hi(bases[1]):x}
    b lookup
use_a2:
    movi r6, 0x{_lo(bases[2]):x}
    movt r6, 0x{_hi(bases[2]):x}
lookup:
    addx r6, r4
    ldr r7, [r6, 0x0]          ; translation entry
    lsr r8, r0, 0x5            ; pSLC hashed-index probe:
    xorx r8, r0                ;   h = (lba ^ (lba >> 5)) & (buckets-1)
    and r8, r8, 0x{mask:x}
    lsl r8, r8, 0x3            ;   * bucket stride (8 bytes)
    movi r9, 0x{_lo(pslc):x}
    movt r9, 0x{_hi(pslc):x}
    addx r9, r8
    ldr r10, [r9, 0x0]         ; bucket tag
    wfi
    b flash_entry
"""


# ----------------------------------------------------------------------
# Policy cores: machine code whose data references and control flow
# encode the six policy knobs.  These sections are what the gray-box
# inference harness (src/repro/infer) statically analyzes; the names
# deliberately avoid the ``core*`` prefix so the legacy §3.2 discovery
# pipeline's map-array stride fit is untouched.
# ----------------------------------------------------------------------

#: Static fingerprint of each GC victim policy's decision inputs:
#: (xorshift rng, SRAM scratch spill, valid xref, seq xref, erase xref).
#: All seven rows are distinct, which is exactly what makes the knob
#: recoverable from the code alone.
GC_FEATURES: dict[str, tuple[bool, bool, bool, bool, bool]] = {
    "greedy":            (False, False, True,  False, False),
    "randomized_greedy": (True,  True,  True,  False, False),
    "random":            (True,  False, False, False, False),
    "fifo":              (False, False, False, True,  False),
    "cost_benefit":      (False, False, True,  True,  False),
    "d_choices":         (True,  False, True,  False, False),
    "cat":               (False, False, True,  True,  True),
}


def _ptr(reg: int, value: int, comment: str = "") -> list[str]:
    tail = f"            ; {comment}" if comment else ""
    return [f"    movi r{reg}, 0x{_lo(value):x}{tail}",
            f"    movt r{reg}, 0x{_hi(value):x}"]


def _xorshift(state: int = 7, tmp: int = 8) -> list[str]:
    """The MUL-free PRNG idiom every sampled policy compiles to."""
    return [
        f"    lsl r{tmp}, r{state}, 0x7      ; xorshift rng step",
        f"    xorx r{state}, r{tmp}",
        f"    lsr r{tmp}, r{state}, 0x9",
        f"    xorx r{state}, r{tmp}",
    ]


def _table_load(idx_reg: int, base_reg: int, comment: str) -> list[str]:
    """Load ``table[idx]`` through a dedicated base-pointer register."""
    return [
        f"    lsl r10, r{idx_reg}, 0x2",
        "    orr r13, r10, 0x0",
        f"    addx r13, r{base_reg}",
        f"    ldr r14, [r13, 0x0]        ; {comment}",
    ]


def gc_core_source(memory_map: MemoryMap, config: SsdConfig) -> str:
    """The victim-selection core for ``config.gc_policy``."""
    policy = config.gc_policy
    if policy not in GC_FEATURES:
        raise ValueError(f"no firmware template for gc policy {policy!r}")
    rng, scratch, valid, seq, erase = GC_FEATURES[policy]
    lines = ["gc_entry:"]
    lines += _ptr(1, memory_map.policy_table("pool"), "GC candidate pool")
    lines += ["    movi r2, 0x0               ; scan cursor"]
    if valid:
        lines += _ptr(3, memory_map.policy_table("valid"), "valid counts")
    if seq:
        lines += _ptr(4, memory_map.policy_table("seq"), "allocation stamps")
    if erase:
        lines += _ptr(5, memory_map.policy_table("erase"), "erase counts")
    if scratch:
        lines += _ptr(6, SCRATCH_BASE, "drawn-sample scratch")
    if rng:
        lines += ["    movi r7, 0xace1            ; rng seed"]
    lines += ["gc_scan:"]
    if rng:
        lines += _xorshift()
        lines += ["    orr r9, r7, 0x0",
                  "    and r9, r9, 0xff           ; random candidate index"]
        bound = 1 if policy == "random" else max(2, config.gc_sample_size)
    else:
        lines += ["    orr r9, r2, 0x0            ; sequential candidate index"]
        bound = POLICY_TABLE_ENTRIES
    lines += [
        "    lsl r10, r9, 0x2",
        "    orr r11, r10, 0x0",
        "    addx r11, r1",
        "    ldr r12, [r11, 0x0]        ; candidate block id",
    ]
    if valid:
        lines += _table_load(12, 3, "valid-sector count")
    if seq:
        lines += _table_load(12, 4, "allocation stamp (block age)")
    if erase:
        lines += _table_load(12, 5, "erase count (block temperature)")
    if scratch:
        lines += ["    str r12, [r6, 0x0]         ; note draw (no replacement)"]
    lines += [
        "    add r2, r2, 0x1",
        f"    cmp r2, 0x{bound:x}",
        "    bne gc_scan",
    ]
    lines += _ptr(0, memory_map.mmio_base)
    lines += [
        f"    str r12, [r0, 0x{MMIO_GC_VICTIM:x}]        ; latch chosen victim",
        "    wfi",
        "    b gc_entry",
    ]
    return "\n".join(lines) + "\n"


def alloc_core_source(memory_map: MemoryMap, config: SsdConfig) -> str:
    """The page-placement core for ``config.allocation_scheme``.

    The scheme permutation is written out literally: one coordinate
    extraction + MMIO latch store per dimension, fastest first.  The
    ``hotcold`` policy prepends its heat-table lookup and cold-stream
    latch to a CWDP base order.
    """
    name = config.allocation_scheme
    hotcold = name == "hotcold"
    scheme = "CWDP" if hotcold else name
    dims = parse_scheme(scheme, config.geometry)
    lines = ["alloc_entry:"]
    lines += _ptr(1, memory_map.mmio_base, "request registers")
    lines += [f"    ldr r0, [r1, 0x{MMIO_LBA:x}]          ; allocation cursor"]
    if hotcold:
        lines += _ptr(2, memory_map.policy_table("heat"), "per-LPN write heat")
        lines += [
            "    and r3, r0, 0xfff          ; lpn -> heat slot",
            "    lsl r3, r3, 0x2",
            "    orr r5, r3, 0x0",
            "    addx r5, r2",
            "    ldr r6, [r5, 0x0]          ; previous write count",
            "    add r6, r6, 0x1",
            "    str r6, [r5, 0x0]          ; bump heat",
            "    cmp r6, 0x1",
            "    bne place                  ; rewritten: stay on host stream",
            "    movi r7, 0x1",
            f"    str r7, [r1, 0x{MMIO_STREAM:x}]         ; first touch: cold stream",
        ]
    lines += ["place:"]
    shift = 0
    for letter, size in dims:
        bits = max(0, size - 1).bit_length()
        mask = (1 << bits) - 1
        latch = MMIO_DIM_LATCHES[letter]
        lines += [
            f"    lsr r4, r0, 0x{shift:x}",
            f"    and r4, r4, 0x{mask:x}",
            f"    str r4, [r1, 0x{latch:x}]          ; {letter} coordinate",
        ]
        shift += bits
    lines += ["    wfi", "    b alloc_entry"]
    return "\n".join(lines) + "\n"


def cache_core_source(memory_map: MemoryMap, config: SsdConfig) -> str:
    """The write-cache core: designation constants, admission path,
    and eviction bookkeeping."""
    cache_sectors, extra_dirty_tps = designate(config)
    lines = ["cache_entry:"]
    lines += _ptr(1, memory_map.mmio_base, "request registers")
    lines += [
        f"    movi r2, 0x{cache_sectors:x}",
        f"    str r2, [r1, 0x{MMIO_CACHE_CAP:x}]          ; cache capacity (sectors)",
        f"    movi r3, 0x{extra_dirty_tps:x}",
        f"    str r3, [r1, 0x{MMIO_CACHE_TP:x}]          ; dirty-TP slots bought",
        f"    ldr r0, [r1, 0x{MMIO_LBA:x}]          ; incoming sector",
    ]
    if config.cache_admission != "bypass":
        lines += _ptr(4, memory_map.policy_table("cacheslot"), "pending set")
        lines += [
            "    and r5, r0, 0xfff",
            "    lsl r5, r5, 0x2",
            "    orr r6, r5, 0x0",
            "    addx r6, r4",
            "    str r0, [r6, 0x0]          ; admit into the pending set",
        ]
    else:
        lines += _ptr(4, STAGING_BASE, "direct staging buffer")
        lines += ["    str r0, [r4, 0x0]          ; bypass: pack straight through"]
    # The flush engine is compiled in regardless of admission, so the
    # eviction knob stays recoverable even on bypass builds.
    if config.cache_eviction == "lru":
        lines += _ptr(8, memory_map.policy_table("recency"), "recency stamps")
        lines += [
            "    ldr r9, [r8, 0x0]",
            "    add r9, r9, 0x1",
            "    str r9, [r8, 0x0]          ; hit refreshes the sector's age",
        ]
    lines += ["    wfi", "    b cache_entry"]
    return "\n".join(lines) + "\n"


def wear_core_source(memory_map: MemoryMap, config: SsdConfig) -> str:
    """The wear-leveling core: coldest-block scan, full or sampled."""
    sampled = config.wear_policy == "sampled_cold"
    lines = ["wear_entry:"]
    lines += _ptr(1, memory_map.policy_table("erase"), "erase counts")
    lines += ["    movi r2, 0x0               ; scan cursor"]
    if sampled:
        lines += ["    movi r7, 0xbeef            ; rng seed"]
    lines += ["wear_scan:"]
    if sampled:
        lines += _xorshift()
        lines += ["    orr r9, r7, 0x0",
                  "    and r9, r9, 0xff           ; sampled candidate"]
        bound = 8
    else:
        lines += ["    orr r9, r2, 0x0            ; exhaustive coldest scan"]
        bound = POLICY_TABLE_ENTRIES
    lines += [
        "    lsl r10, r9, 0x2",
        "    orr r11, r10, 0x0",
        "    addx r11, r1",
        "    ldr r12, [r11, 0x0]        ; candidate erase count",
        "    add r2, r2, 0x1",
        f"    cmp r2, 0x{bound:x}",
        "    bne wear_scan",
    ]
    lines += _ptr(0, memory_map.mmio_base)
    lines += [
        f"    str r12, [r0, 0x{MMIO_GC_VICTIM:x}]        ; latch migration source",
        "    wfi",
        "    b wear_entry",
    ]
    return "\n".join(lines) + "\n"


#: section name -> source generator for the four policy cores.
POLICY_SECTIONS = (
    ("pgc", gc_core_source),
    ("palloc", alloc_core_source),
    ("pcache", cache_core_source),
    ("pwear", wear_core_source),
)


#: vendor-ish strings embedded in the image (RE pipelines grep these).
IMAGE_STRINGS = (
    b"EVO840-REPRO-FTL\x00",
    b"TurboWrite\x00",
    b"L2P-CHUNK-LOADER\x00",
    b"SATA-HOST-IF\x00",
)


@dataclass
class Section:
    name: str
    load_addr: int
    data: bytes


@dataclass
class FirmwareImage:
    """A built (plain, unobfuscated) firmware image."""

    memory_map: MemoryMap
    sections: list[Section] = field(default_factory=list)

    def section(self, name: str) -> Section:
        for section in self.sections:
            if section.name == name:
                return section
        raise KeyError(f"no section {name!r}")

    def to_bytes(self, pad_to: int = 0x8000) -> bytes:
        """Serialize with header, section table, and padding."""
        table_size = HEADER.size + SECTION_HEADER.size * len(self.sections)
        offset = _round_up(table_size, 64)
        entries = []
        payloads = []
        for section in self.sections:
            entries.append(SECTION_HEADER.pack(
                section.name.encode().ljust(8, b"\x00")[:8],
                section.load_addr, len(section.data), offset,
            ))
            payloads.append((offset, section.data))
            offset = _round_up(offset + len(section.data), 64)
        total = max(offset, pad_to)
        image = bytearray(b"\xff" * total)
        image[: HEADER.size] = HEADER.pack(MAGIC, 1, len(self.sections))
        cursor = HEADER.size
        for entry in entries:
            image[cursor : cursor + SECTION_HEADER.size] = entry
            cursor += SECTION_HEADER.size
        for off, data in payloads:
            image[off : off + len(data)] = data
        return bytes(image)


class ImageFormatError(Exception):
    """The bytes do not parse as a firmware image."""


def parse_image(data: bytes) -> list[Section]:
    """Parse a plain image back into sections (the 'public' format)."""
    if len(data) < HEADER.size:
        raise ImageFormatError("image too short")
    magic, version, count = HEADER.unpack_from(data, 0)
    if magic != MAGIC:
        raise ImageFormatError(f"bad magic {magic!r}")
    sections = []
    cursor = HEADER.size
    for _ in range(count):
        if cursor + SECTION_HEADER.size > len(data):
            raise ImageFormatError("truncated section table")
        name, load, size, offset = SECTION_HEADER.unpack_from(data, cursor)
        cursor += SECTION_HEADER.size
        if offset + size > len(data):
            raise ImageFormatError("section payload out of bounds")
        sections.append(Section(name.rstrip(b"\x00").decode(), load,
                                data[offset : offset + size]))
    return sections


def build_firmware(memory_map: MemoryMap,
                   config: SsdConfig | None = None) -> FirmwareImage:
    """Assemble all cores and pack the image.

    With *config* the image also carries the four policy cores
    (``pgc``/``palloc``/``pcache``/``pwear``) compiled from the config's
    six policy knobs — the substrate the gray-box inference harness
    reverse engineers.  Without it the image is byte-identical to the
    pre-policy five-section layout.
    """
    core0 = assemble(sata_core_source(memory_map))
    core1 = assemble(flash_core_source(memory_map, 1))
    core2 = assemble(flash_core_source(memory_map, 2))
    code_base = memory_map.code_base
    image = FirmwareImage(memory_map)
    image.sections.append(Section("core0", code_base, core0))
    image.sections.append(Section("core1", code_base + 0x1000, core1))
    image.sections.append(Section("core2", code_base + 0x2000, core2))
    image.sections.append(Section("strings", code_base + 0x3000,
                                  b"".join(IMAGE_STRINGS)))
    # A zero-padded configuration blob: known plaintext for the
    # keystream attack, like the padded tail of real vendor images.
    image.sections.append(Section("config", code_base + 0x4000,
                                  b"\x00" * 2048))
    if config is not None:
        for i, (name, source) in enumerate(POLICY_SECTIONS):
            image.sections.append(Section(
                name, code_base + 0x5000 + i * 0x1000,
                assemble(source(memory_map, config)),
            ))
    return image
