"""Graceful degradation: retry ladder, RAIN rebuild, retirement, RO mode."""

import pytest

from repro.flash.errors import FailureInjector, ReliabilityModel
from repro.faults import FaultPlan, FaultSpec, PlannedFaultInjector
from repro.obs import CounterSink
from repro.ssd.ftl import Ftl, ReadOnlyError
from repro.ssd.presets import evo840_like, tiny
from repro.ssd.timed import TimedSSD

#: same deliberately fragile flash as the reliability tests: cold data
#: rots out of the ECC budget after ~5 simulated days.
FRAGILE = ReliabilityModel(
    base_rber=1e-7,
    rated_cycles=200,
    retention_rber_per_day=1e-3,
    ecc_correctable=40,
)


def _faulted_ftl(config, *specs, seed=5, sink=None):
    injector = PlannedFaultInjector(FaultPlan(seed=seed, specs=specs),
                                    config.geometry)
    ftl = Ftl(config, injector=injector)
    if sink is not None:
        ftl.attach_sink(sink)
    return ftl, injector


class TestReadRetryLadder:
    def _aged(self, read_retry_steps):
        config = tiny().with_changes(ops_per_day=100,
                                     read_retry_steps=read_retry_steps)
        ftl = Ftl(config, reliability=FRAGILE)
        for lpn in range(32):
            ftl.write(lpn)
        ftl.flush()
        for i in range(1000):
            ftl.write(32 + i % (ftl.num_lpns - 32))
        ftl.flush()
        return ftl

    def test_retries_cure_soft_uncorrectables(self):
        # Each retry step halves the effective raw error rate; enough
        # steps bring aged-but-soft data back inside the ECC budget.
        ftl = self._aged(read_retry_steps=8)
        for lpn in range(32):
            ftl.read(lpn)
        assert ftl.stats.read_retries > 0
        assert ftl.stats.uncorrectable_reads == 0

    def test_no_retries_without_the_knob(self):
        ftl = self._aged(read_retry_steps=0)
        for lpn in range(32):
            ftl.read(lpn)
        assert ftl.stats.read_retries == 0
        assert ftl.stats.uncorrectable_reads > 0

    def test_retry_events_typed(self):
        sink = CounterSink()
        ftl = self._aged(read_retry_steps=8)
        ftl.attach_sink(sink)
        for lpn in range(32):
            ftl.read(lpn)
        assert sink.count("read_retry") == ftl.stats.read_retries

    def test_hard_faults_never_retry_curable(self):
        # An injected (hard) uncorrectable read is physical damage: the
        # ladder runs, fails, and without RAIN the read is lost.
        config = tiny().with_changes(read_retry_steps=3)
        ftl, _ = _faulted_ftl(
            config, FaultSpec("uncorrectable_read", lpns=(0, 1), count=1))
        ftl.write(0)
        ftl.flush()
        ftl.read(0)
        assert ftl.stats.read_retries == 3
        assert ftl.stats.uncorrectable_reads == 1
        assert ftl.stats.rain_reconstructions == 0


class TestRainReconstruction:
    def test_uncorrectable_read_served_via_rain(self):
        sink = CounterSink()
        config = tiny().with_changes(rain_stripe=4, read_retry_steps=2)
        ftl, injector = _faulted_ftl(
            config,
            FaultSpec("uncorrectable_read", lpns=(5, 6), count=1),
            sink=sink,
        )
        for lpn in range(16):
            ftl.write(lpn)
        ftl.flush()
        ftl.read(5)
        assert ftl.stats.rain_reconstructions == 1
        assert ftl.stats.relocated_sectors == 1
        assert ftl.stats.uncorrectable_reads == 0
        assert sink.count("rain_reconstruction") == 1
        assert sink.count("fault_injected") == 1
        # The stripe peers were actually read to rebuild the page.
        assert sink.total("rain_reconstruction") > 0
        # The failing copy is no longer load-bearing: the next read of
        # the same sector hits the relocated page and is clean.
        before = len(injector.log)
        ftl.read(5)
        assert ftl.stats.rain_reconstructions == 1
        assert len(injector.log) == before

    def test_without_rain_sector_is_lost(self):
        config = tiny().with_changes(read_retry_steps=2)
        ftl, _ = _faulted_ftl(
            config, FaultSpec("uncorrectable_read", lpns=(5, 6), count=1))
        for lpn in range(16):
            ftl.write(lpn)
        ftl.flush()
        ftl.read(5)
        assert ftl.stats.rain_reconstructions == 0
        assert ftl.stats.uncorrectable_reads == 1


class TestBlockRetirement:
    def test_program_fail_retires_and_emits(self):
        sink = CounterSink()
        config = tiny()
        ftl, injector = _faulted_ftl(
            config, FaultSpec("program_fail", at_op=10, count=1), sink=sink)
        for lpn in range(64):
            ftl.write(lpn % ftl.num_lpns)
        ftl.flush()
        assert ftl.stats.blocks_retired == 1
        assert injector.injected_counts()["program_fail"] == 1
        assert sink.count("block_retired") == 1

    def test_retired_blocks_reduce_spares(self):
        config = tiny()
        clean = Ftl(config)
        ftl, _ = _faulted_ftl(
            config, FaultSpec("program_fail", at_op=10, count=2))
        for lpn in range(64):
            ftl.write(lpn % ftl.num_lpns)
        ftl.flush()
        assert ftl.spare_blocks() == clean.spare_blocks() - 2

    def test_pslc_drain_erase_is_outside_the_fault_model(self):
        # pSLC retirement is not modelled: a drained buffer block is
        # erased without asking the injector, even one that fails
        # every erase.
        device = TimedSSD(evo840_like(4),
                          injector=FailureInjector(erase_fail_prob=1.0))
        for i in range(29):
            device.write_sectors(8 * i, 8)
        assert device.ftl.stats.pslc_drains == 5
        assert device.ftl.stats.blocks_retired == 0
        assert device.smart.erase_count == 5


class TestReadOnlyMode:
    def _exhaust(self):
        sink = CounterSink()
        config = tiny().with_changes(spare_blocks_min=20)
        ftl, _ = _faulted_ftl(
            config,
            FaultSpec("program_fail", probability=0.10, count=0),
            sink=sink,
        )
        with pytest.raises(ReadOnlyError):
            for i in range(4000):
                ftl.write(i % ftl.num_lpns)
        return ftl, sink

    def test_spare_exhaustion_trips_read_only(self):
        ftl, sink = self._exhaust()
        assert ftl.degraded_read_only
        assert ftl.spare_blocks() < 20
        assert sink.count("degraded_mode") == 1

    def test_read_only_still_reads_and_flushes(self):
        ftl, _ = self._exhaust()
        ftl.flush()
        ftl.read(0)
        with pytest.raises(ReadOnlyError):
            ftl.write(0)
        with pytest.raises(ReadOnlyError):
            ftl.trim(0)
