"""A policy named by its knob string and the same policy handed in as
an object drive a component identically.

Configs name policies by string, resolved through the registries; tests
inject fakes and instrumented policy objects directly.  These tests
check that both ways in give the same RNG draws, victims, flush order,
allocation sequence and device statistics, so the registries stay a
pure naming layer and policy objects stay stateless.
"""

import numpy as np
import pytest

from repro.flash.nand import NandArray
from repro.ssd.allocation import PageAllocator
from repro.ssd.cache import WriteCache
from repro.ssd.device import SimulatedSSD
from repro.ssd.gc import VictimSelector
from repro.ssd.policy import (
    allocation_policies,
    cache_eviction_policies,
    victim_policies,
    wear_policies,
)
from repro.ssd.presets import tiny
from repro.ssd.wearlevel import WearLeveler


def run_churn(device, writes=3000, seed=11):
    rng = np.random.default_rng(seed)
    hot = max(1, device.num_sectors // 4)
    for _ in range(writes):
        if rng.random() < 0.8:
            lba = int(rng.integers(hot))
        else:
            lba = hot + int(rng.integers(device.num_sectors - hot))
        device.write_sectors(lba, 1)
    device.flush()
    stats = device.ftl.stats
    return (device.smart.waf(), device.smart.erase_count,
            stats.gc_migrated_sectors, stats.gc_invocations)


class TestVictimEquivalence:
    @pytest.mark.parametrize(
        "name", ["greedy", "randomized_greedy", "d_choices", "cat"])
    def test_device_run_identical_with_injected_policy(self, name):
        by_string = SimulatedSSD(tiny().with_changes(gc_policy=name))

        by_object = SimulatedSSD(tiny())
        ftl = by_object.ftl
        # Swap in a selector built around the resolved object before any
        # IO; the fresh selector re-seeds the same RNG stream.
        ftl.selector = VictimSelector(
            victim_policies.resolve(name)(),
            ftl.geometry, ftl.nand, ftl.allocator, ftl.block_valid,
            sample_size=tiny().gc_sample_size,
        )
        assert ftl.selector.policy == name
        assert run_churn(by_string) == run_churn(by_object)


class TestCacheEvictionEquivalence:
    def test_flush_order_identical_with_injected_policy(self):
        rng = np.random.default_rng(2)
        lpns = [int(x) for x in rng.integers(64, size=400)]
        for name in cache_eviction_policies.names():
            a = WriteCache(16, eviction=name)
            b = WriteCache(16, eviction=cache_eviction_policies.resolve(name)())
            drained = []
            for cache in (a, b):
                batches = []
                for lpn in lpns:
                    cache.insert(lpn)
                    while len(cache) > cache.capacity:
                        batches.append(cache.take_flush_batch(4))
                while len(cache):
                    batches.append(cache.take_flush_batch(4))
                drained.append(batches)
            assert drained[0] == drained[1], name


class TestAllocationEquivalence:
    def test_allocation_sequence_identical_with_injected_policy(self):
        geometry = tiny().geometry
        for name in allocation_policies.names():
            a = PageAllocator(geometry, NandArray(geometry), name)
            b = PageAllocator(geometry, NandArray(geometry),
                              allocation_policies.resolve(name)())
            assert a.scheme == b.scheme and a.streams == b.streams
            for stream in a.streams:
                pages_a = [a.allocate_page(stream) for _ in range(16)]
                pages_b = [b.allocate_page(stream) for _ in range(16)]
                assert pages_a == pages_b, (name, stream)


class TestWearEquivalence:
    def test_pick_identical_with_injected_policy(self):
        geometry = tiny().geometry
        for name in wear_policies.names():
            picks = []
            for policy in (name, wear_policies.resolve(name)()):
                nand = NandArray(geometry)
                for block in range(8):
                    nand.block_erase_count[block] = block % 3
                    for page in range(geometry.pages_per_block):
                        nand.program(block * geometry.pages_per_block + page)
                allocator = PageAllocator(geometry, nand, "CWDP")
                leveler = WearLeveler(geometry, nand, allocator,
                                      delta=1, policy=policy)
                picks.append(leveler.pick_victim())
            assert picks[0] == picks[1], name
