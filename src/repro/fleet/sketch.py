"""Mergeable fixed-size quantile sketches for fleet aggregation.

A fleet run produces one latency distribution per (device, tenant).
Concatenating raw per-op samples back across process boundaries costs
O(ops) — gigabytes at thousands of devices — so workers return a
:class:`QuantileSketch` instead: a t-digest-style centroid summary whose
size is bounded by its ``compression`` parameter whatever the op count.
Fleet p99/p99.9/p99.99 and per-tenant SLO accounting are computed by
*merging* sketches, never by concatenating samples.

Design points that matter for the fleet layer's correctness story:

* **Deterministic, order-independent merging.**  :func:`merge_sketches`
  is a *flat* operation: it gathers every centroid from every input,
  sorts them by ``(mean, weight)``, and compresses once.  Any
  permutation of the same inputs therefore produces a byte-identical
  result — which is what lets ``--shards 1`` and ``--shards 8`` (and
  ``--jobs 1`` vs ``--jobs 4``) yield identical fleet SLO output.
  Pairwise ``a.merge(b)`` is defined in terms of the flat merge, so it
  is commutative; chains of pairwise merges are *not* guaranteed
  byte-stable across regroupings, which is why the fleet aggregator
  only ever calls the flat form.

* **Documented error bound.**  Compression uses the t-digest ``k1``
  (arcsine) scale function, which caps each centroid's quantile span
  near *q* at about ``2*pi*sqrt(q*(1-q)) / compression``; interpolated
  quantile estimates therefore carry an absolute *rank* error of at
  most ``rank_error_bound(q, compression) = RANK_ERROR_FACTOR *
  max(sqrt(q*(1-q)), 1/compression) / compression`` of the population
  — tightest near the tails, which is where SLO verdicts live.  The
  bound includes one additional level of merging (sketch-of-sketches),
  the only shape the fleet layer produces, and is enforced by a
  hypothesis property test.

* **Exact extremes.**  ``min``/``max``/``count``/``sum`` are tracked
  exactly, so ``quantile(0.0)``/``quantile(1.0)`` and the mean are not
  estimates.

* **Batched compaction, scalar bytes.**  A compaction pass computes
  the ``k1`` scale of every centroid without a Python call per
  centroid, and still returns the bytes of the scalar pass that called
  a scale function for each.  Three facts make that exact: weights are
  counts, so the scalar pass's running weights are exactly the prefix
  sums the batch divides; the batch evaluates the scale by the same
  IEEE operations and ``math.asin``; and the fold test and running-mean
  recurrence are unchanged, applied in the same order.  Workers
  compact every device's sketches and the parent merges them all
  serially after the pool drains, so this pass's host cost grows with
  the fleet.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

#: default sketch size parameter (the t-digest δ): centroid count stays
#: O(compression) whatever the op count.
DEFAULT_COMPRESSION = 128

#: buffered raw values before an automatic compaction pass.
_BUFFER_LIMIT = 512

#: centroids a compaction pass reads into Python floats at a time.
_BLOCK = 1024

#: slack factor in the documented rank-error bound (see module doc):
#: pi for the interpolation half-centroid error, x2 for one level of
#: sketch-of-sketches merging, the rest margin.
RANK_ERROR_FACTOR = 8.0


def rank_error_bound(q: float, compression: int) -> float:
    """Documented absolute rank-error bound at quantile *q* (fraction
    of the population, e.g. 0.004 means +/- 0.4% of ranks)."""
    spread = max(math.sqrt(q * (1.0 - q)), 1.0 / compression)
    return RANK_ERROR_FACTOR * spread / compression


def _lerp(a: float, b: float, frac: float) -> float:
    """``a + (b - a) * frac``, clamped between *a* and *b*: in floating
    point the product can land one ULP past *b* at ``frac == 1``."""
    return min(max(a + (b - a) * frac, min(a, b)), max(a, b))


class QuantileSketch:
    """Fixed-size mergeable summary of a nonnegative sample stream.

    ``add`` buffers raw values and compacts them in batches, and
    ``extend`` compacts its batch at once; after :meth:`compact` the
    centroid list stays within about ``compression`` entries (the
    classic merging-digest bound), so the pickled payload size is
    O(compression) whatever the op count.
    """

    __slots__ = ("compression", "count", "total", "minimum", "maximum",
                 "_means", "_weights", "_buffer")

    def __init__(self, compression: int = DEFAULT_COMPRESSION) -> None:
        if compression < 8:
            raise ValueError(f"compression must be >= 8, got {compression}")
        self.compression = int(compression)
        self.count = 0
        self.total = 0.0
        self.minimum = float("inf")
        self.maximum = float("-inf")
        self._means = np.empty(0, dtype=np.float64)
        self._weights = np.empty(0, dtype=np.float64)
        self._buffer: list[float] = []

    # -- ingestion ------------------------------------------------------

    def add(self, value: float) -> None:
        """Add one observation (buffered, and compacted every
        ``_BUFFER_LIMIT`` values)."""
        self._buffer.append(float(value))
        if len(self._buffer) >= _BUFFER_LIMIT:
            self.compact()

    def extend(self, values: Iterable[float]) -> None:
        """Add a batch of observations and fold it, after any values
        :meth:`add` buffered, into the centroids in one compaction pass
        (the per-device ingest path)."""
        fresh = np.asarray(values if isinstance(values, np.ndarray)
                           else list(values), dtype=np.float64)
        if self._buffer:
            fresh = np.concatenate((self._buffer, fresh))
            self._buffer = []
        if fresh.size:
            self._fold(fresh)

    def compact(self) -> "QuantileSketch":
        """Fold buffered values into the centroid list (idempotent).

        Called automatically before queries, merges, and by the shard
        worker before returning a payload, so transported sketches are
        always at their O(compression) floor.
        """
        if self._buffer:
            fresh = np.asarray(self._buffer, dtype=np.float64)
            self._buffer = []
            self._fold(fresh)
        return self

    def _fold(self, fresh: np.ndarray) -> None:
        self.count += fresh.size
        self.total += float(fresh.sum())
        self.minimum = min(self.minimum, float(fresh.min()))
        self.maximum = max(self.maximum, float(fresh.max()))
        means = np.concatenate([self._means, fresh])
        weights = np.concatenate([self._weights, np.ones(fresh.size)])
        self._means, self._weights = _compress(means, weights, self.compression)

    # -- properties -----------------------------------------------------

    @property
    def mean(self) -> float:
        self.compact()
        return self.total / self.count if self.count else 0.0

    @property
    def centroids(self) -> tuple[np.ndarray, np.ndarray]:
        """(means, weights) after compaction — the transport payload."""
        self.compact()
        return self._means, self._weights

    def __len__(self) -> int:
        return self.count + len(self._buffer)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        self.compact()
        return (f"QuantileSketch(n={self.count}, centroids={self._means.size},"
                f" compression={self.compression})")

    # -- queries --------------------------------------------------------

    def quantile(self, q: float) -> float:
        """Estimate the *q*-quantile (q in [0, 1]); 0.0 when empty.

        Piecewise-linear interpolation between centroid means, with the
        tracked exact extremes as endpoints — the standard t-digest
        estimator.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"q must be in [0, 1], got {q}")
        self.compact()
        if self.count == 0:
            return 0.0
        means, weights = self._means, self._weights
        if means.size == 1:
            return float(means[0])
        if q <= 0.0:
            return self.minimum
        if q >= 1.0:
            return self.maximum
        target = q * self.count
        # Centroid i covers ranks centered at cum[i] (weight before it
        # plus half its own); interpolate between those anchor points,
        # and between the extremes and the terminal centroids.
        anchors = np.cumsum(weights) - weights / 2.0
        if target <= anchors[0]:
            span = max(anchors[0], 1e-12)
            return _lerp(self.minimum, float(means[0]), target / span)
        if target >= anchors[-1]:
            span = max(self.count - anchors[-1], 1e-12)
            frac = (target - anchors[-1]) / span
            return _lerp(float(means[-1]), self.maximum, frac)
        hi = int(np.searchsorted(anchors, target))
        lo = hi - 1
        span = max(anchors[hi] - anchors[lo], 1e-12)
        frac = (target - anchors[lo]) / span
        return _lerp(float(means[lo]), float(means[hi]), frac)

    def quantiles(self, qs: Sequence[float]) -> list[float]:
        return [self.quantile(q) for q in qs]

    # -- merging --------------------------------------------------------

    def merge(self, other: "QuantileSketch") -> "QuantileSketch":
        """New sketch summarizing both inputs (commutative; see
        :func:`merge_sketches` for the n-way order-independent form)."""
        return merge_sketches([self, other])


def merge_sketches(sketches: Sequence[QuantileSketch],
                   compression: int | None = None) -> QuantileSketch:
    """Flat, order-independent merge of any number of sketches.

    All centroids from all inputs are gathered, sorted by
    ``(mean, weight)``, and compressed in a single deterministic pass —
    so the result is byte-identical for any permutation *and any
    grouping* of the same inputs.  This is the only merge the fleet
    aggregator uses, which is what makes shard count and worker count
    invisible in fleet-level output.
    """
    sketches = [s for s in sketches if s is not None]
    if not sketches:
        return QuantileSketch()
    if compression is None:
        compression = max(s.compression for s in sketches)
    out = QuantileSketch(compression)
    parts_m = []
    parts_w = []
    totals = []
    for sketch in sketches:
        means, weights = sketch.centroids
        if means.size == 0:
            continue
        parts_m.append(means)
        parts_w.append(weights)
        totals.append(sketch.total)
        out.count += sketch.count
        out.minimum = min(out.minimum, sketch.minimum)
        out.maximum = max(out.maximum, sketch.maximum)
    if not parts_m:
        return out
    # fsum: exactly-rounded total, so summation order (and therefore
    # input permutation) cannot perturb the merged mean's last bit.
    out.total = math.fsum(totals)
    means = np.concatenate(parts_m)
    weights = np.concatenate(parts_w)
    out._means, out._weights = _compress(means, weights, compression)
    return out


def sketch_of(values: Iterable[float],
              compression: int = DEFAULT_COMPRESSION) -> QuantileSketch:
    """Convenience: a compacted sketch of *values*."""
    sketch = QuantileSketch(compression)
    sketch.extend(values)
    return sketch.compact()


def _compress(means: np.ndarray, weights: np.ndarray,
              compression: int) -> tuple[np.ndarray, np.ndarray]:
    """One deterministic merge pass over unsorted centroids.

    Sorts by ``(mean, weight)`` — a total order, so equal centroids
    from different inputs always arrive in the same sequence — then
    greedily folds neighbors while the running centroid spans at most
    one unit of the ``k1`` scale ``norm * asin(2q - 1)`` (Dunning's
    merging digest).  The pass is a pure function of the sorted
    centroid multiset, which is what makes :func:`merge_sketches`
    order-independent.

    The pass is batched: the scale's argument ``2q - 1`` is computed
    for every centroid in array operations, and ``math.asin`` is mapped
    over it in C.  Yet the result is byte-identical to the scalar pass
    that calls a scale function once per centroid (``tests/helpers.py``
    keeps it as the reference):

    * Weights are counts: 1.0 per raw value, and merges only add them.
      So the scalar pass's running weight ``before + cur_w + w`` is
      exactly the prefix sum ``cum[i]``, and its total is exactly
      ``cum[-1]``, whatever the order of the additions.
    * So the scale it tests at centroid ``i`` is ``k[i] = norm *
      asin(2 * (cum[i] / total) - 1)``, computed here by the same IEEE
      operations and ``math.asin`` (``np.arcsin`` may differ in the
      last bit).  A centroid that opens at ``i`` spans from ``k[i - 1]``,
      the scale of the weight before it.
    * The fold test ``k[i] - k_left <= 1.0`` and the running-mean
      recurrence are the scalar pass's own, in the same order, so the
      pass needs no search over ``k`` and does not lean on its
      monotonicity.  The loop that applies them makes no call per
      centroid.  It reads ``_BLOCK`` centroids at a time, so its
      Python floats stay few however many centroids a fleet merge
      gathers.
    """
    order = np.lexsort((weights, means))
    means = means[order]
    weights = weights[order]
    del order  # a fleet merge gathers every device's centroids
    norm = compression / (2.0 * math.pi)
    # 0 < cum / total <= 1, so 2q - 1 needs no clamp to asin's domain.
    q = np.cumsum(weights)
    q /= q[-1]
    q *= 2.0
    q -= 1.0
    out_m = []
    out_w = []
    cur_m = means.item(0)
    cur_w = weights.item(0)
    k_left = norm * math.asin(-1.0)  # the scale at weight 0
    k_prev = norm * math.asin(q.item(0))
    for lo in range(1, means.size, _BLOCK):
        hi = lo + _BLOCK
        for m, w, a in zip(means[lo:hi].tolist(), weights[lo:hi].tolist(),
                           map(math.asin, q[lo:hi].tolist())):
            k_i = norm * a
            if k_i - k_left <= 1.0:
                cur_w += w
                cur_m += (m - cur_m) * (w / cur_w)
            else:
                out_m.append(cur_m)
                out_w.append(cur_w)
                k_left = k_prev
                cur_m = m
                cur_w = w
            k_prev = k_i
    out_m.append(cur_m)
    out_w.append(cur_w)
    return np.array(out_m), np.array(out_w)
