"""Address patterns: alignment, containment, skew shapes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads.patterns import (
    PATTERNS,
    HotCold,
    Region,
    Sequential,
    Uniform,
    Zipf,
    make_pattern,
)

REGION = Region(1024, 4096)


class TestRegion:
    def test_end(self):
        assert REGION.end == 5120

    def test_slots(self):
        assert REGION.slots(4) == 1024

    def test_validation(self):
        with pytest.raises(ValueError):
            Region(-1, 10)
        with pytest.raises(ValueError):
            Region(0, 0)


class TestSequential:
    def test_advances_and_wraps(self):
        pattern = Sequential(Region(0, 8), bs_sectors=2)
        rng = np.random.default_rng(0)
        lbas = [pattern.next_lba(rng) for _ in range(5)]
        assert lbas == [0, 2, 4, 6, 0]

    def test_region_offset_respected(self):
        pattern = Sequential(Region(100, 8), bs_sectors=4)
        rng = np.random.default_rng(0)
        assert pattern.next_lba(rng) == 100


class TestUniform:
    def test_stays_in_region_and_aligned(self):
        pattern = Uniform(REGION, bs_sectors=4)
        rng = np.random.default_rng(0)
        for _ in range(500):
            lba = pattern.next_lba(rng)
            assert REGION.start <= lba <= REGION.end - 4
            assert (lba - REGION.start) % 4 == 0

    def test_covers_the_region(self):
        pattern = Uniform(Region(0, 64), bs_sectors=1)
        rng = np.random.default_rng(0)
        seen = {pattern.next_lba(rng) for _ in range(2000)}
        assert len(seen) == 64


class TestHotCold:
    def test_traffic_skew(self):
        pattern = HotCold(Region(0, 1000), bs_sectors=1,
                          space_fraction=0.2, traffic_fraction=0.8)
        rng = np.random.default_rng(0)
        hits = [pattern.next_lba(rng) for _ in range(5000)]
        hot = sum(1 for lba in hits if lba < 200)
        assert 0.75 < hot / len(hits) < 0.85

    def test_cold_region_still_reached(self):
        pattern = HotCold(Region(0, 1000), bs_sectors=1)
        rng = np.random.default_rng(0)
        assert any(pattern.next_lba(rng) >= 200 for _ in range(1000))

    def test_one_slot_region_has_no_cold_slot(self):
        # no cold slot to draw: the cold branch used to return slot 1,
        # LBA 108, outside [100, 108).
        pattern = HotCold(Region(100, 8), bs_sectors=8)
        rng = np.random.default_rng(0)
        assert {pattern.next_lba(rng) for _ in range(200)} == {100}

    def test_fraction_validation(self):
        with pytest.raises(ValueError):
            HotCold(REGION, 1, space_fraction=0.0)
        with pytest.raises(ValueError):
            HotCold(REGION, 1, traffic_fraction=1.0)


class TestZipf:
    def test_heavily_skewed(self):
        pattern = Zipf(Region(0, 1000), bs_sectors=1, theta=1.2)
        rng = np.random.default_rng(0)
        hits = [pattern.next_lba(rng) for _ in range(5000)]
        values, counts = np.unique(hits, return_counts=True)
        top = counts.max() / len(hits)
        assert top > 0.1  # the hottest slot dominates

    def test_popularity_not_address_correlated(self):
        pattern = Zipf(Region(0, 1000), bs_sectors=1, theta=1.2, seed=3)
        rng = np.random.default_rng(0)
        hits = [pattern.next_lba(rng) for _ in range(3000)]
        values, counts = np.unique(hits, return_counts=True)
        hottest = values[counts.argmax()]
        assert hottest != 0  # shuffled, not rank-0-at-address-0

    def test_theta_validation(self):
        with pytest.raises(ValueError):
            Zipf(REGION, 1, theta=0)


class TestFactory:
    @pytest.mark.parametrize("name", ["sequential", "uniform", "hotcold", "zipf"])
    def test_make(self, name):
        pattern = make_pattern(name, REGION, 4)
        rng = np.random.default_rng(0)
        assert REGION.start <= pattern.next_lba(rng) < REGION.end

    def test_kwargs_forwarded(self):
        pattern = make_pattern("hotcold", REGION, 1, space_fraction=0.5)
        assert pattern.space_fraction == 0.5

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            make_pattern("bimodal", REGION, 1)

    def test_region_too_small(self):
        with pytest.raises(ValueError):
            make_pattern("uniform", Region(0, 2), 4)


@settings(max_examples=30)
@given(
    name=st.sampled_from(["sequential", "uniform", "hotcold"]),
    bs=st.sampled_from([1, 2, 4, 8]),
    seed=st.integers(0, 100),
    slots=st.sampled_from([1, 2, 3, 64]),
)
def test_all_patterns_contained_property(name, bs, seed, slots):
    region = Region(64, slots * bs)
    pattern = make_pattern(name, region, bs)
    rng = np.random.default_rng(seed)
    for _ in range(100):
        lba = pattern.next_lba(rng)
        assert region.start <= lba
        assert lba + bs <= region.end
        assert (lba - region.start) % bs == 0


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(sorted(PATTERNS)),
    bs=st.sampled_from([1, 4, 8]),
    slots=st.sampled_from([1, 2, 7, 500]),
    seed=st.integers(0, 100),
    blocks=st.lists(st.one_of(st.sampled_from([0, 1]), st.integers(0, 300)),
                    max_size=8),
)
def test_draw_block_is_next_lba_repeated_property(name, bs, slots, seed,
                                                  blocks):
    """Blocks of any sizes equal the same number of scalar draws, and
    leave the generator where those draws leave it — also the alarm for
    a numpy whose array draws stop matching its scalar draws."""
    region = Region(64, slots * bs)
    blocked, scalar = (make_pattern(name, region, bs) for _ in range(2))
    block_rng, scalar_rng = (np.random.default_rng(seed) for _ in range(2))
    drawn = [lba for count in blocks
             for lba in blocked.draw_block(block_rng, count)]
    assert all(type(lba) is int for lba in drawn)
    assert drawn == [scalar.next_lba(scalar_rng) for _ in range(sum(blocks))]
    assert block_rng.bit_generator.state == scalar_rng.bit_generator.state
    # the patterns' own state (Sequential's cursor) moved identically too
    assert blocked.draw_block(block_rng, 3) == [
        scalar.next_lba(scalar_rng) for _ in range(3)]
