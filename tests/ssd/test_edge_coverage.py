"""Edge coverage: op records, compression properties, recovery with
chunked mapping, FS partial reads."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fs.ext4 import Ext4Model
from repro.ssd.compression import Compact, NoCompression, make_scheme
from repro.ssd.device import SimulatedSSD
from repro.ssd.ftl import Ftl
from repro.ssd.ops import FTL_REASONS, FlashOp, OpKind, OpReason
from repro.ssd.presets import evo840_like, tiny
from repro.ssd.recovery import recover_ftl


class TestOpRecords:
    def test_str_is_compact(self):
        op = FlashOp(OpKind.PROGRAM, 42, OpReason.GC, 4096)
        assert str(op) == "program[gc]@42(4096B)"

    def test_host_reason_not_ftl(self):
        assert OpReason.HOST not in FTL_REASONS
        assert OpReason.GC in FTL_REASONS
        assert OpReason.REFRESH in FTL_REASONS

    def test_ops_are_frozen(self):
        op = FlashOp(OpKind.READ, 1, OpReason.HOST)
        with pytest.raises(AttributeError):
            op.target = 2


class TestCompressionProperties:
    @settings(max_examples=25)
    @given(st.lists(st.tuples(st.integers(0, 100), st.integers(64, 4096)),
                    min_size=1, max_size=60))
    def test_compact_never_beats_payload(self, writes):
        """Bytes appended >= compressed payload (headers cost something),
        and page programs track appended bytes."""
        scheme = Compact(16384, 4096)
        payload = 0
        for lpn, size in writes:
            scheme.update(lpn, size)
            payload += min(size, 4096)
        assert scheme.stats.bytes_appended >= payload
        assert scheme.stats.page_programs == scheme.stats.bytes_appended // 16384

    @settings(max_examples=25)
    @given(st.lists(st.integers(0, 50), min_size=32, max_size=96),
           st.integers(256, 2048))
    def test_better_compression_never_costs_more(self, lpns, size):
        tight = make_scheme("compact")
        loose = make_scheme("compact")
        for lpn in lpns:
            tight.update(lpn, size // 2)
            loose.update(lpn, size)
        assert tight.stats.bytes_appended <= loose.stats.bytes_appended

    def test_none_scheme_ignores_compressibility(self):
        a = NoCompression(16384, 4096)
        b = NoCompression(16384, 4096)
        for lpn in range(16):
            a.update(lpn, 100)
            b.update(lpn, 4096)
        assert a.stats.bytes_appended == b.stats.bytes_appended


class TestRecoveryWithChunkedMapping:
    def test_recovery_on_demand_loaded_map(self):
        """The 840-EVO-style chunked map also rebuilds from OOB."""
        config = evo840_like(scale=4)
        ftl = Ftl(config)
        rng = np.random.default_rng(9)
        for _ in range(6000):
            ftl.write(int(rng.integers(ftl.num_lpns)))
        ftl.flush()
        def effective(f, lpn):
            """A sector's authoritative location: pSLC first, then map."""
            psa = f.pslc.lookup(lpn)
            if psa is not None:
                return psa
            psa = int(f.mapping.l2p[lpn])
            return psa if psa >= 0 else None

        expected = {
            lpn: effective(ftl, lpn)
            for lpn in range(ftl.num_lpns)
            if effective(ftl, lpn) is not None
        }
        recovered, report = recover_ftl(config, ftl.nand)
        for lpn, psa in list(expected.items())[:2000]:
            assert effective(recovered, lpn) == psa
        # Chunk residency restarts cold: nothing resident until used.
        assert recovered.mapping.resident_chunk_ids() == []

    def test_recovered_chunked_device_operational(self):
        config = evo840_like(scale=4)
        ftl = Ftl(config)
        for lpn in range(0, 4000, 4):
            ftl.write(lpn, 2)
        ftl.flush()
        recovered, _ = recover_ftl(config, ftl.nand)
        recovered.write(100, 4)
        recovered.flush()
        recovered.read(100, 4)
        recovered.check_invariants()


class TestFsPartialReads:
    def test_read_partial_ranges(self):
        device = SimulatedSSD(tiny())
        fs = Ext4Model(device, journal_sectors=32,
                       metadata_sectors=32)
        fs.create("a", 10)
        before = device.smart.host_sectors_read
        fs.read("a", offset=3, sectors=4)
        assert device.smart.host_sectors_read == before + 4

    def test_read_across_fragmented_extents(self):
        device = SimulatedSSD(tiny())
        fs = Ext4Model(device, journal_sectors=32,
                       metadata_sectors=32)
        # Fragment free space, then allocate a file across holes.
        for i in range(8):
            fs.create(f"f{i}", 6)
        for i in range(0, 8, 2):
            fs.delete(f"f{i}")
        fs.create("frag", 20)
        assert len(fs.files["frag"].extents) > 1
        before = device.smart.host_sectors_read
        fs.read("frag", offset=5, sectors=10)
        assert device.smart.host_sectors_read == before + 10

    def test_read_out_of_range(self):
        from repro.fs.vfs import FsError
        device = SimulatedSSD(tiny())
        fs = Ext4Model(device, journal_sectors=32,
                       metadata_sectors=32)
        fs.create("a", 4)
        with pytest.raises(FsError):
            fs.read("a", offset=2, sectors=5)
