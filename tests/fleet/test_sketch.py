"""QuantileSketch: accuracy bound, mergeability, order independence.

The fleet layer's correctness story leans on three properties, each
pinned here (the hypothesis properties are the ISSUE's "merge-of-
sketches equals sketch-of-concatenation within the documented quantile
error bound, and merge is order-independent" satellite):

* a sketch's quantile estimates stay within the documented rank-error
  bound of the exact empirical quantiles;
* merging per-shard sketches is equivalent (within the same bound) to
  sketching the concatenated samples;
* the flat merge is order-independent to the byte, so shard/worker
  count cannot perturb fleet-level output;
* the batched compaction pass returns the bytes of the scalar pass
  that calls the ``k1`` scale function once per centroid
  (``tests/helpers.py``), and makes no Python-level call per value.
"""

import pickle
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.fleet.sketch import (
    QuantileSketch,
    merge_sketches,
    rank_error_bound,
    sketch_of,
)
from tests.helpers import compress_per_centroid

QS = (0.01, 0.1, 0.5, 0.9, 0.99, 0.999)


def assert_within_bound(sketch, data: np.ndarray, compression: int) -> None:
    """Every tested quantile estimate must land between the exact
    empirical quantiles at q +/- rank_error_bound(q)."""
    ordered = np.sort(data)
    n = ordered.size
    for q in QS:
        estimate = sketch.quantile(q)
        eps = rank_error_bound(q, compression)
        lo = ordered[max(0, int(np.floor((q - eps) * (n - 1))))]
        hi = ordered[min(n - 1, int(np.ceil((q + eps) * (n - 1))))]
        assert lo <= estimate <= hi, (q, estimate, lo, hi)


class TestBasics:
    def test_empty_sketch_is_zero(self):
        sketch = QuantileSketch()
        assert len(sketch) == 0
        assert sketch.quantile(0.5) == 0.0
        assert sketch.mean == 0.0

    def test_single_value(self):
        sketch = QuantileSketch()
        sketch.add(42.0)
        assert sketch.quantile(0.0) == 42.0
        assert sketch.quantile(0.5) == 42.0
        assert sketch.quantile(1.0) == 42.0
        assert sketch.mean == 42.0

    def test_extremes_and_mean_are_exact(self):
        rng = np.random.default_rng(7)
        data = rng.lognormal(3.0, 1.0, 10_000)
        sketch = sketch_of(data)
        assert sketch.quantile(0.0) == data.min()
        assert sketch.quantile(1.0) == data.max()
        assert sketch.mean == pytest.approx(data.mean(), rel=1e-12)
        assert sketch.count == data.size

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            QuantileSketch(compression=4)
        with pytest.raises(ValueError):
            QuantileSketch().quantile(1.5)

    def test_centroid_count_stays_bounded(self):
        # O(compression) size whatever the op count: the whole point.
        for compression in (16, 64, 128):
            sketch = QuantileSketch(compression)
            sketch.extend(np.random.default_rng(3).normal(0, 1, 100_000))
            means, _ = sketch.centroids
            assert means.size <= 2 * compression

    def test_payload_is_small(self):
        sketch = sketch_of(np.random.default_rng(5).exponential(1, 50_000))
        assert len(pickle.dumps(sketch.compact())) < 8192

    def test_pickle_roundtrip(self):
        sketch = sketch_of(np.random.default_rng(9).exponential(1, 5_000))
        clone = pickle.loads(pickle.dumps(sketch))
        assert clone.count == sketch.count
        assert clone.quantile(0.99) == sketch.quantile(0.99)

    def test_weights_conserved(self):
        data = np.random.default_rng(11).exponential(1, 30_000)
        sketch = sketch_of(data)
        _, weights = sketch.centroids
        assert weights.sum() == pytest.approx(data.size)


class TestAccuracy:
    @pytest.mark.parametrize("dist", ["exponential", "lognormal", "uniform"])
    def test_bound_holds_on_common_shapes(self, dist):
        rng = np.random.default_rng(13)
        data = getattr(rng, dist)(size=50_000) * 100.0
        assert_within_bound(sketch_of(data), data, 128)

    def test_merge_matches_concatenation(self):
        rng = np.random.default_rng(17)
        data = rng.exponential(100.0, 60_000)
        parts = np.array_split(data, 23)
        merged = merge_sketches([sketch_of(p) for p in parts])
        assert merged.count == data.size
        assert_within_bound(merged, data, 128)


# ----------------------------------------------------------------------
# Hypothesis properties (the ISSUE's sketch satellite)
# ----------------------------------------------------------------------

values = st.floats(min_value=0.0, max_value=1e7,
                   allow_nan=False, allow_infinity=False)
samples = st.lists(values, min_size=1, max_size=400)


@settings(max_examples=60, deadline=None)
@given(chunks=st.lists(samples, min_size=1, max_size=8))
# quantile(0.5) interpolated one ULP past the largest sample
@example(chunks=[[1.2658127094618976, 4194306.090852051, 4194306.090852051]])
def test_property_merge_equals_concatenation(chunks):
    """merge(sketch(c) for c in chunks) ~= sketch(concat(chunks))
    within the documented rank-error bound, for arbitrary data."""
    compression = 64
    data = np.asarray([v for chunk in chunks for v in chunk])
    merged = merge_sketches([sketch_of(c, compression) for c in chunks])
    assert merged.count == data.size
    assert merged.quantile(0.0) == data.min()
    assert merged.quantile(1.0) == data.max()
    assert_within_bound(merged, data, compression)
    # ... and the direct sketch obeys the same bound.
    assert_within_bound(sketch_of(data, compression), data, compression)


@settings(max_examples=60, deadline=None)
@given(chunks=st.lists(samples, min_size=2, max_size=8),
       seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_property_merge_is_order_independent(chunks, seed):
    """Any permutation of the same sketches merges byte-identically."""
    sketches = [sketch_of(c, 64) for c in chunks]
    shuffled = sketches[:]
    np.random.default_rng(seed).shuffle(shuffled)
    a = merge_sketches(sketches)
    b = merge_sketches(shuffled)
    assert a.count == b.count
    assert a.total == b.total
    assert a.minimum == b.minimum and a.maximum == b.maximum
    assert np.array_equal(a.centroids[0], b.centroids[0])
    assert np.array_equal(a.centroids[1], b.centroids[1])
    for q in QS:
        assert a.quantile(q) == b.quantile(q)


@settings(max_examples=40, deadline=None)
@given(data=samples)
def test_property_quantiles_are_monotone_and_in_range(data):
    sketch = sketch_of(data, 64)
    estimates = sketch.quantiles(np.linspace(0.0, 1.0, 21))
    assert all(a <= b + 1e-9 for a, b in zip(estimates, estimates[1:]))
    assert estimates[0] == min(data)
    assert estimates[-1] == max(data)


@st.composite
def compaction_inputs(draw):
    """``(shards, compression, rng)``: 1-8 shards of values drawn from
    a small pool, so ties are common.  One shard is compacted as raw
    values of weight 1; more are sketched each at their own compression
    and merged, which compacts their centroids (weights above 1)."""
    compression = draw(st.integers(min_value=8, max_value=512))
    size = draw(st.integers(min_value=1, max_value=5_000))
    distinct = draw(st.integers(min_value=1, max_value=size))
    count = draw(st.sampled_from([1, 2, 3, 8]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.choice(rng.lognormal(3.0, 1.5, distinct), size)
    shards = [part for part in np.array_split(values, count) if part.size]
    return shards, compression, rng


@settings(max_examples=120, deadline=None)
@given(case=compaction_inputs())
def test_property_compaction_matches_scalar_pass(case):
    """The batched pass returns, byte for byte, the centroids of the
    scalar pass that calls the k1 scale function once per centroid."""
    shards, compression, rng = case
    if len(shards) == 1:
        means, weights = shards[0], np.ones(shards[0].size)
        got = sketch_of(shards[0], compression).centroids
    else:
        parts = [sketch_of(shard, int(rng.integers(8, 513)))
                 for shard in shards]
        means = np.concatenate([part.centroids[0] for part in parts])
        weights = np.concatenate([part.centroids[1] for part in parts])
        got = merge_sketches(parts, compression).centroids
    want = compress_per_centroid(means, weights, compression)
    assert got[0].dtype == got[1].dtype == np.float64
    assert got[0].tobytes() == want[0].tobytes()
    assert got[1].tobytes() == want[1].tobytes()


def test_compaction_makes_no_call_per_value():
    """Compacting 10,000 raw values makes Python-level calls per output
    centroid and per block, not one (or four) per value."""
    values = np.random.default_rng(23).lognormal(3.0, 1.0, 10_000)
    sketch = QuantileSketch()
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event in ("call", "c_call"):
            calls += 1

    sys.setprofile(count)
    try:
        sketch.extend(values)
    finally:
        sys.setprofile(None)
    assert sketch.count == values.size
    assert calls < values.size // 10, calls
