"""The §3.2 reverse-engineering study, as runnable pipeline.

Every function here works **only from the artifact and the debug port**:
the obfuscated firmware update file, JTAG memory reads, PC samples, and
ordinary host I/O used as stimulus.  Nothing reads the simulator's
Python state directly, so each discovery is a real inference — the test
suite corrupts or varies the device to show the discoveries track the
artifact, not the implementation.

The pipeline mirrors the paper's findings on the 840 EVO:

1.  **Firmware analysis** — de-obfuscate the update file (known-plaintext
    keystream attack), parse sections, disassemble, harvest pointer
    constants and the LBA-LSB dispatch idiom.
2.  **Core roles** — sample PCs over JTAG while driving single-sector
    accesses: one core serves the host interface on every request, the
    other two each wake only for one LBA parity.
3.  **Translation map** — diff DRAM around single-sector TRIMs to locate
    live map entries; fit the array-select modulus and entry stride;
    measure occupied bytes against the theoretical minimum.
4.  **Demand-loaded chunks** — touch cold LBA regions and watch map
    spans materialize (and LRU-evict) in fixed-size units.
5.  **pSLC hashed index** — stage writes in the TurboWrite buffer and
    show their index entries scatter non-monotonically (a hash table,
    not an array).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.jtag.dap import JtagProbe
from repro.core.jtag.debugger import Debugger, ascii_strings
from repro.ssd.firmware.builder import parse_image
from repro.ssd.firmware.isa import Op, disassemble, find_pointer_loads
from repro.ssd.firmware.obfuscation import deobfuscate

#: controller address-space conventions known from the board (public
#: datasheet-level knowledge: which decode windows are DRAM vs MMIO).
DRAM_WINDOW = (0x20000000, 0x40000000)


# ----------------------------------------------------------------------
# 1. Firmware image analysis (static)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class HashIdiom:
    """A recovered hash computation: ``(x ^ (x >> shift)) & mask``."""

    section: str
    shift: int
    mask: int

    @property
    def buckets(self) -> int:
        return self.mask + 1


@dataclass
class FirmwareAnalysis:
    """Static findings from the de-obfuscated update file."""

    keystream_period: int
    keystream_confidence: float
    section_names: list[str]
    #: pointer constants per code section (MOVI/MOVT pairs).
    pointers: dict[str, list[int]]
    #: code sections containing an `AND rX, rY, #1` + branch dispatch.
    lsb_dispatch_sections: list[str]
    strings: list[str]
    #: hash computations recovered from the code (xor-fold idioms).
    hash_idioms: list[HashIdiom] = field(default_factory=list)

    def dram_pointers(self) -> dict[str, list[int]]:
        lo, hi = DRAM_WINDOW
        return {
            name: sorted(p for p in ptrs if lo <= p < hi)
            for name, ptrs in self.pointers.items()
        }


def analyze_update_file(update_file: bytes) -> FirmwareAnalysis:
    """De-obfuscate, parse, disassemble, and scan one update image."""
    plain, guess = deobfuscate(update_file)
    sections = parse_image(plain)
    pointers: dict[str, list[int]] = {}
    lsb_sections: list[str] = []
    strings: list[str] = []
    hash_idioms: list[HashIdiom] = []
    for section in sections:
        if section.name.startswith("core"):
            lines = disassemble(section.data, section.load_addr)
            pointers[section.name] = [v for _, _, v in find_pointer_loads(lines)]
            if _has_lsb_dispatch(lines):
                lsb_sections.append(section.name)
            hash_idioms.extend(_find_hash_idioms(section.name, lines))
        else:
            strings.extend(ascii_strings(section.data))
    return FirmwareAnalysis(
        keystream_period=guess.period,
        keystream_confidence=guess.confidence,
        section_names=[s.name for s in sections],
        pointers=pointers,
        lsb_dispatch_sections=lsb_sections,
        strings=strings,
        hash_idioms=hash_idioms,
    )


def _has_lsb_dispatch(lines) -> bool:
    """`AND rX, rY, #1` followed shortly by CMP+conditional branch."""
    insns = [line.insn for line in lines if line.insn is not None]
    for i, insn in enumerate(insns):
        if insn.op is Op.AND and insn.imm == 1:
            window = insns[i + 1 : i + 4]
            has_cmp = any(w.op is Op.CMP for w in window)
            has_branch = any(w.op in (Op.BEQ, Op.BNE) for w in window)
            if has_cmp and has_branch:
                return True
    return False


def _find_hash_idioms(section: str, lines) -> list[HashIdiom]:
    """Recognize the xor-fold hashing idiom in a disassembly:

        LSR  rA, rB, #shift
        XORX rA, rB
        AND  rA, rA, #mask        (mask = 2^k - 1)

    i.e. ``(x ^ (x >> shift)) & mask`` — the signature of a power-of-two
    hash-table probe (as opposed to linear array indexing).
    """
    insns = [line.insn for line in lines if line.insn is not None]
    found = []
    for a, b, c in zip(insns, insns[1:], insns[2:]):
        if (a.op is Op.LSR and b.op is Op.XORX and c.op is Op.AND
                and b.rd == a.rd and b.rn == a.rn
                and c.rn == a.rd
                and c.imm & (c.imm + 1) == 0 and c.imm > 0):
            found.append(HashIdiom(section, shift=a.imm, mask=c.imm))
    return found


# ----------------------------------------------------------------------
# 2. Core-role attribution (dynamic)
# ----------------------------------------------------------------------


@dataclass
class CoreRoles:
    """Which core does what, with the PC evidence."""

    host_interface_core: int | None
    #: flash core serving lba % 2 == 0, and the one serving == 1.
    even_core: int | None
    odd_core: int | None
    activity: dict[str, dict[int, float]] = field(default_factory=dict)

    @property
    def split_by_lsb(self) -> bool:
        return (self.even_core is not None and self.odd_core is not None
                and self.even_core != self.odd_core)


def attribute_core_roles(debugger: Debugger, driver, *,
                         iterations: int = 24) -> CoreRoles:
    """PC-sample cores while issuing even-LBA then odd-LBA accesses.

    ``driver`` is the host block interface (``write_sectors`` is all we
    use).  The idle PC set per core is learned by sampling before any
    stimulus.
    """
    cores = (0, 1, 2)
    idle: dict[int, set[int]] = {
        core: {debugger.probe.sample_pc(core) for _ in range(4)}
        for core in cores
    }

    def run(parity: int):
        return debugger.profile_pcs(
            lambda i: driver.write_sectors((2 * i + parity) % driver.num_sectors, 1),
            iterations, cores,
        )

    even_profile = run(0)
    odd_profile = run(1)
    activity = {
        "even": {c: even_profile.activity_fraction(c, idle[c]) for c in cores},
        "odd": {c: odd_profile.activity_fraction(c, idle[c]) for c in cores},
    }

    always_on = [
        c for c in cores
        if activity["even"][c] > 0.8 and activity["odd"][c] > 0.8
    ]
    even_only = [
        c for c in cores
        if activity["even"][c] > 0.8 and activity["odd"][c] < 0.2
    ]
    odd_only = [
        c for c in cores
        if activity["odd"][c] > 0.8 and activity["even"][c] < 0.2
    ]
    return CoreRoles(
        host_interface_core=always_on[0] if always_on else None,
        even_core=even_only[0] if even_only else None,
        odd_core=odd_only[0] if odd_only else None,
        activity=activity,
    )


# ----------------------------------------------------------------------
# 3. Translation-map structure (memory diffing)
# ----------------------------------------------------------------------


@dataclass
class MapDiscovery:
    """The translation map as recovered over JTAG."""

    array_bases: list[int]
    array_stride_bytes: int
    entry_bytes: int
    select_modulus: int
    entries_fit: bool  # did (array, offset) = f(lba) fit every probe?
    entry_bits_used: int
    measured_map_bytes: int
    theoretical_map_bytes: int

    @property
    def num_arrays(self) -> int:
        return len(self.array_bases)

    @property
    def overhead_ratio(self) -> float:
        if not self.theoretical_map_bytes:
            return 0.0
        return self.measured_map_bytes / self.theoretical_map_bytes


def candidate_map_bases(analysis: FirmwareAnalysis) -> tuple[list[int], list[int]]:
    """Split the firmware's DRAM pointers into (map arrays, other).

    The eight mapping arrays are the dominant uniform-stride family in
    the flash cores' pointer constants; everything else (e.g. the pSLC
    index) falls out as stride outliers.
    """
    pointers = sorted({
        p for name, ptrs in analysis.dram_pointers().items()
        for p in ptrs if name != "core0"
    })
    if len(pointers) < 3:
        return pointers, []
    diffs = np.diff(pointers)
    stride = int(np.bincount(diffs).argmax()) if len(diffs) else 0
    arrays = [pointers[0]]
    others = []
    for p in pointers[1:]:
        if p - arrays[-1] == stride:
            arrays.append(p)
        else:
            others.append(p)
    return arrays, others


def discover_translation_map(
    debugger: Debugger,
    driver,
    array_bases: list[int],
    *,
    verify_probes: int = 16,
    prefill: int = 4096,
    seed: int = 7,
) -> MapDiscovery:
    """Locate live map entries by diffing DRAM around single TRIMs.

    Protocol (two phases, because every JTAG byte costs TCK cycles):

    1. *Hypothesis* — prefill a small LBA region with writes so its
       entries are mapped, then TRIM consecutive sectors one at a time,
       diffing a small window at each candidate base.  Each TRIM flips
       exactly one entry, yielding ``(lba, array, offset)`` triples that
       fix the select modulus and entry stride.
    2. *Verification* — for random LBAs, read only the *predicted* entry
       word before and after a TRIM and check it flips.

    The prefill must be large enough to overflow any write-staging
    buffer (pSLC): entries only reach the DRAM map once data is in the
    main flash area, so probing targets the oldest (drained) prefix.
    """
    span = min(driver.num_sectors, prefill)
    for lba in range(0, span, 4):
        driver.write_sectors(lba, min(4, span - lba))
    driver.flush()

    stride = array_bases[1] - array_bases[0] if len(array_bases) > 1 else 0x1000
    # Hypothesis probes use tiny LBAs, so their entries (at any
    # plausible packing of <= 8 B/entry) sit within the first few
    # hundred bytes of each array -- keep the diff window small, every
    # JTAG byte costs TCK cycles.
    hypothesis_lbas = list(range(2 * len(array_bases)))
    window = min(stride, max(256, len(hypothesis_lbas) * 8))

    observations: list[tuple[int, int, int]] = []
    for lba in hypothesis_lbas:
        before = [debugger.snapshot_region(base, window) for base in array_bases]
        driver.trim_sectors(lba, 1)
        for index, base in enumerate(array_bases):
            after = debugger.snapshot_region(base, window)
            delta = np.nonzero(before[index] != after)[0]
            if len(delta):
                observations.append((lba, index, int(delta[0]) & ~0x3))
                break

    responsive = sorted({array for _, array, _ in observations})
    live_bases = [array_bases[i] for i in responsive]
    modulus = len(live_bases)
    remap = {old: new for new, old in enumerate(responsive)}
    observations = [(lba, remap[a], off) for lba, a, off in observations]
    entry_bytes = _fit_entry_bytes(observations, modulus) if modulus else 4

    fits = bool(observations) and all(
        array == lba % modulus and offset == (lba // modulus) * entry_bytes
        for lba, array, offset in observations
    )
    # Phase 2: verify the fitted layout on random LBAs, one word each.
    rng = np.random.default_rng(seed)
    if fits and modulus:
        # Verify within the oldest half of the prefill: those sectors
        # have certainly been drained out of any staging buffer.
        start = 2 * len(array_bases)
        pool = np.arange(start, max(start + 1, span // 2))
        picks = rng.choice(pool, size=min(verify_probes, len(pool)),
                           replace=False)
        for lba in (int(x) for x in picks):
            addr = live_bases[lba % modulus] + (lba // modulus) * entry_bytes
            before_word = debugger.mdw(addr)[0]
            driver.trim_sectors(lba, 1)
            after_word = debugger.mdw(addr)[0]
            if before_word == after_word:
                fits = False
                break

    bits_used = _scan_entry_bits(debugger, live_bases, entry_bytes,
                                 modulus, span)
    measured = modulus * stride
    # Theoretical: one entry of bits_used bits per exported sector.
    theoretical = driver.num_sectors * bits_used // 8
    return MapDiscovery(
        array_bases=live_bases,
        array_stride_bytes=stride,
        entry_bytes=entry_bytes,
        select_modulus=modulus,
        entries_fit=fits,
        entry_bits_used=bits_used,
        measured_map_bytes=measured,
        theoretical_map_bytes=theoretical,
    )


def _fit_entry_bytes(observations: list[tuple[int, int, int]],
                     modulus: int) -> int:
    """Entry stride from offset deltas between probed LBAs."""
    by_array: dict[int, list[tuple[int, int]]] = {}
    for lba, array, offset in observations:
        by_array.setdefault(array, []).append((lba, offset))
    strides = []
    for pairs in by_array.values():
        pairs.sort()
        for (lba_a, off_a), (lba_b, off_b) in zip(pairs, pairs[1:]):
            d_lba = (lba_b - lba_a) // modulus
            if d_lba > 0 and (off_b - off_a) % d_lba == 0:
                strides.append((off_b - off_a) // d_lba)
    if not strides:
        return 4
    return int(np.bincount(strides).argmax())


def _scan_entry_bits(debugger: Debugger, array_bases: list[int],
                     entry_bytes: int, modulus: int, span: int,
                     samples_per_array: int = 48) -> int:
    """OR together populated entries to find the bits actually used.

    Samples the region known to hold drained, mapped entries (the older
    half of the prefill span) — a full array dump over bit-banged JTAG
    would cost tens of millions of TCK cycles.
    """
    accum = 0
    if not modulus:
        return 1
    entries_mapped = max(1, (span // 2) // modulus)
    step = max(1, entries_mapped // samples_per_array)
    for base in array_bases:
        for entry in range(0, entries_mapped, step):
            value = debugger.mdw(base + entry * entry_bytes)[0]
            if value not in (0xFFFFFFFF, 0xFFFFFFFE):
                accum |= value
    return int(accum).bit_length() or 1


# ----------------------------------------------------------------------
# 4. Demand-loaded map chunks
# ----------------------------------------------------------------------


@dataclass
class ChunkDiscovery:
    """Demand loading of the translation map, as observed."""

    demand_loading: bool
    chunk_bytes_logical: int | None  # LBA-space coverage of one chunk
    resident_chunks: int | None
    eviction_observed: bool


def discover_chunk_loading(
    debugger: Debugger,
    driver,
    array_bases: list[int],
    entry_bytes: int = 4,
    sector_size: int = 4096,
    max_touches: int = 10,
    sample_step: int = 64,
) -> ChunkDiscovery:
    """Touch cold LBA regions; watch map spans materialize and evict.

    Reads are the stimulus (they force map residency without dirtying
    anything).  Array 0 is *sampled* — one entry word every
    ``sample_step`` entries — after each touch; a loaded-entry mask that
    grows in a fixed quantum reveals the chunk size, and any sampled
    position flipping loaded→unloaded is an LRU eviction.
    """
    modulus = len(array_bases)
    if not modulus:
        return ChunkDiscovery(False, None, None, False)
    stride = array_bases[1] - array_bases[0] if modulus > 1 else 0x1000
    base = array_bases[0]
    words_per_array = max(1, stride // 4)
    sample_positions = list(range(0, words_per_array, sample_step))

    def sampled_mask() -> np.ndarray:
        values = [debugger.mdw(base + pos * 4)[0] for pos in sample_positions]
        return np.asarray([v != 0xFFFFFFFF for v in values], dtype=bool)

    masks = [sampled_mask()]
    step = max(1, driver.num_sectors // max_touches)
    for i in range(max_touches):
        lba = min(i * step, driver.num_sectors - 1)
        driver.read_sectors(lba, 1)
        masks.append(sampled_mask())

    counts = [int(m.sum()) for m in masks]
    grew = [b - a for a, b in zip(counts, counts[1:]) if b - a > 0]
    eviction = any(
        bool(np.any(prev & ~cur)) for prev, cur in zip(masks, masks[1:])
    )
    if not grew:
        return ChunkDiscovery(False, None, None, eviction)
    quantum_samples = int(np.bincount(grew).argmax())
    quantum_entries = quantum_samples * sample_step
    # Each entry in array 0 covers `modulus` LBAs of `sector_size` each.
    chunk_bytes = quantum_entries * modulus * sector_size
    peak = max(counts)
    resident = round(peak / quantum_samples) if quantum_samples else None
    return ChunkDiscovery(
        demand_loading=True,
        chunk_bytes_logical=chunk_bytes,
        resident_chunks=resident,
        eviction_observed=eviction,
    )


# ----------------------------------------------------------------------
# 5. pSLC hashed index
# ----------------------------------------------------------------------


@dataclass
class PslcIndexDiscovery:
    """The auxiliary index fronting the pSLC buffer."""

    found: bool
    base: int | None
    bucket_bytes: int | None
    #: |spearman rho| between LPN and bucket position — near 0 for a
    #: hash table, near 1 for a flat array.
    order_correlation: float | None

    @property
    def looks_hashed(self) -> bool:
        return self.found and (self.order_correlation is not None
                               and self.order_correlation < 0.5)


def discover_pslc_index(
    debugger: Debugger,
    driver,
    candidate_bases: list[int],
    window: int = 0x10000,
    burst: int = 24,
) -> PslcIndexDiscovery:
    """Stage a write burst (no flush) and inspect candidate regions.

    Fresh writes live in the pSLC buffer, so their LPNs must appear in
    its index.  Scanning each candidate region for the written LPN tags
    identifies the index; the tag layout's (non-)monotonicity in LPN
    classifies it as hashed or flat.  The burst uses widely-spaced LBAs:
    a flat array keeps them in rank order regardless of spacing, while a
    hash scatters them.
    """
    base_lba = driver.num_sectors // 2
    spacing = max(3, driver.num_sectors // (4 * burst)) | 1
    lbas = [base_lba + spacing * i for i in range(burst)]
    lbas = [lba for lba in lbas if lba < driver.num_sectors]
    for lba in lbas:
        driver.write_sectors(lba, 1)

    for base in candidate_bases:
        words = np.frombuffer(debugger.dump(base, window), dtype="<u4")
        positions = {}
        for lba in lbas:
            hits = np.nonzero(words == lba)[0]
            if len(hits):
                positions[lba] = int(hits[0])
        if len(positions) >= burst // 2:
            stride = _tag_stride(sorted(positions.values()))
            rho = _rank_correlation(
                [lba for lba in lbas if lba in positions],
                [positions[lba] for lba in lbas if lba in positions],
            )
            return PslcIndexDiscovery(
                found=True, base=base,
                bucket_bytes=stride * 4 if stride else None,
                order_correlation=abs(rho),
            )
    return PslcIndexDiscovery(False, None, None, None)


def _tag_stride(positions: list[int]) -> int:
    if len(positions) < 2:
        return 0
    diffs = np.diff(sorted(positions))
    diffs = diffs[diffs > 0]
    if not len(diffs):
        return 0
    return int(np.gcd.reduce(diffs))


def _rank_correlation(x: list, y: list) -> float:
    if len(x) < 3:
        return 1.0
    rx = np.argsort(np.argsort(x)).astype(np.float64)
    ry = np.argsort(np.argsort(y)).astype(np.float64)
    rx -= rx.mean()
    ry -= ry.mean()
    denom = float(np.sqrt((rx ** 2).sum() * (ry ** 2).sum()))
    if denom == 0:
        return 0.0
    return float((rx * ry).sum() / denom)


# ----------------------------------------------------------------------
# The full study
# ----------------------------------------------------------------------


@dataclass
class JtagStudyReport:
    """Everything §3.2 reports, reproduced."""

    idcode: int
    firmware: FirmwareAnalysis
    roles: CoreRoles
    map: MapDiscovery
    chunks: ChunkDiscovery
    pslc: PslcIndexDiscovery
    tck_cycles: int

    HEADERS = ("finding", "value")

    def rows(self) -> list[tuple[str, object]]:
        return [
            ("IDCODE", f"0x{self.idcode:08x}"),
            ("keystream period", self.firmware.keystream_period),
            ("host-interface core", self.roles.host_interface_core),
            ("even-LBA flash core", self.roles.even_core),
            ("odd-LBA flash core", self.roles.odd_core),
            ("LBA-LSB split (code)", bool(self.firmware.lsb_dispatch_sections)),
            ("LBA-LSB split (PCs)", self.roles.split_by_lsb),
            ("map arrays", self.map.num_arrays),
            ("entry stride (B)", self.map.entry_bytes),
            ("array select", f"lba % {self.map.select_modulus}"),
            ("layout fits all probes", self.map.entries_fit),
            ("map measured (MiB)", round(self.map.measured_map_bytes / 2**20, 2)),
            ("map theoretical (MiB)",
             round(self.map.theoretical_map_bytes / 2**20, 2)),
            ("entry bits used", self.map.entry_bits_used),
            ("demand-loaded chunks", self.chunks.demand_loading),
            ("chunk coverage (MiB)",
             round((self.chunks.chunk_bytes_logical or 0) / 2**20, 2)),
            ("chunk eviction seen", self.chunks.eviction_observed),
            ("pSLC index found", self.pslc.found),
            ("pSLC index hashed", self.pslc.looks_hashed),
            ("hash fn (from code)",
             (f"(lba ^ (lba >> {self.firmware.hash_idioms[0].shift})) "
              f"% {self.firmware.hash_idioms[0].buckets}"
              if self.firmware.hash_idioms else None)),
            ("TCK cycles spent", self.tck_cycles),
        ]


def run_full_study(device, expected_idcode: int | None = None) -> JtagStudyReport:
    """End-to-end §3.2 reproduction against a :class:`HackableSSD`."""
    from repro.core.jtag.tap import TapController
    from repro.ssd.firmware.device import IDCODE

    tap = TapController(device, IDCODE)
    probe = JtagProbe(tap)
    debugger = Debugger(probe)
    idcode = debugger.check_connection(expected_idcode)

    firmware = analyze_update_file(device.firmware_update_file)
    arrays, others = candidate_map_bases(firmware)
    roles = attribute_core_roles(debugger, device)
    map_discovery = discover_translation_map(debugger, device, arrays)
    chunks = discover_chunk_loading(debugger, device, arrays,
                                    entry_bytes=map_discovery.entry_bytes)
    pslc = discover_pslc_index(debugger, device, others)
    return JtagStudyReport(
        idcode=idcode,
        firmware=firmware,
        roles=roles,
        map=map_discovery,
        chunks=chunks,
        pslc=pslc,
        tck_cycles=probe.tck_cycles,
    )
