"""Counters, gauges, and fixed-bucket histograms, with immutable
snapshots.

Observers name the instruments they need (cleaning cycles, cleaned
emptiness, free-pool depth, stall pages) and a registry creates each on
first use; :meth:`MetricsRegistry.snapshot` copies them all into the
``type: "metrics"`` export row.  Windowed store figures come from the
store's own :meth:`~repro.store.stats.StatsSnapshot.delta`, not from
here.
"""

from __future__ import annotations

import dataclasses
from bisect import bisect_left
from typing import Dict, List, Mapping, Optional, Sequence, Tuple


class Counter:
    """A monotonically increasing integer."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, n: int = 1) -> None:
        if n < 0:
            raise ValueError("counters only increase; got %d" % n)
        self.value += n


class Gauge:
    """An instantaneous value (free segments, fill factor, ...)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


def percentile_from_buckets(
    edges: Sequence[float],
    counts: Sequence[int],
    q: float,
    lo: float = 0.0,
    hi: Optional[float] = None,
) -> float:
    """Estimate the ``q``-quantile (``q`` in [0, 1]) of a fixed-bucket
    histogram by linear interpolation inside the covering bucket.

    ``counts`` has one entry per edge plus the overflow bucket.  Bucket
    ``i`` spans ``(edges[i-1], edges[i]]`` (the first spans ``[lo,
    edges[0]]``); the overflow bucket spans ``(edges[-1], hi]``.

    ``hi`` — the largest value actually observed, when the caller
    tracked it — clamps every bucket's upper bound.  That is the
    small-sample-count fix: with a handful of observations, naive
    interpolation against a bucket's full width reads far above any
    real observation (one sample of 3 in a ``(2, 64]`` bucket would
    "interpolate" to ~64 at every quantile), and the overflow bucket
    has no finite upper edge at all without it.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError("quantile must be in [0, 1]; got %r" % (q,))
    total = sum(counts)
    if total <= 0:
        return 0.0
    target = q * total
    cum = 0.0
    for i, n in enumerate(counts):
        if n <= 0:
            continue
        lower = lo if i == 0 else float(edges[i - 1])
        if i < len(edges):
            upper = float(edges[i])
        else:
            # Overflow bucket: without a tracked max the last edge is
            # the only finite bound we have.
            upper = float(edges[-1]) if hi is None else hi
        if hi is not None:
            upper = min(upper, hi)
        lower = min(lower, upper)
        if cum + n >= target:
            frac = (target - cum) / n
            return lower + frac * (upper - lower)
        cum += n
    # Rounding fallthrough (q == 1.0 with float accumulation).
    return hi if hi is not None else float(edges[-1])


class Histogram:
    """Fixed-bucket histogram.

    ``edges`` are ascending upper bounds; an observation lands in the
    first bucket whose edge is ``>= value``, or in the overflow bucket
    beyond the last edge.  Running ``total``/``count`` support a mean
    without retaining observations, and ``max_observed`` bounds
    percentile interpolation (see :func:`percentile_from_buckets`).
    """

    __slots__ = ("edges", "bucket_counts", "total", "count", "max_observed")

    def __init__(self, edges: Sequence[float]) -> None:
        edges = tuple(float(e) for e in edges)
        if not edges:
            raise ValueError("a histogram needs at least one bucket edge")
        if any(b <= a for a, b in zip(edges, edges[1:])):
            raise ValueError("bucket edges must be strictly ascending")
        self.edges = edges
        #: One count per edge plus the overflow bucket.
        self.bucket_counts = [0] * (len(edges) + 1)
        self.total = 0.0
        self.count = 0
        #: Largest value observed; caps percentile interpolation.
        self.max_observed = 0.0

    def observe(self, value: float) -> None:
        value = float(value)
        # First edge >= value; past the last edge, the overflow bucket.
        self.bucket_counts[bisect_left(self.edges, value)] += 1
        self.total += value
        self.count += 1
        if value > self.max_observed:
            self.max_observed = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Interpolated ``q``-quantile (``q`` in [0, 1]) of everything
        observed so far, clamped to the largest real observation."""
        return percentile_from_buckets(
            self.edges,
            self.bucket_counts,
            q,
            hi=self.max_observed if self.count else None,
        )


@dataclasses.dataclass(frozen=True)
class MetricsSnapshot:
    """Immutable copy of a registry's instruments at one instant."""

    counters: Mapping[str, int]
    gauges: Mapping[str, float]
    #: name -> (edges, bucket counts incl. overflow, total, count)
    histograms: Mapping[
        str, Tuple[Tuple[float, ...], Tuple[int, ...], float, int]
    ]

    def to_dict(self) -> Dict:
        """JSON-ready form (the ``type: "metrics"`` export row body).

        Each histogram carries interpolated ``p99``/``p999`` estimates
        alongside its raw buckets; snapshots don't retain the observed
        maximum, so the estimates are clamped at the last bucket edge.
        """
        return {
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "histograms": {
                name: {
                    "edges": list(edges),
                    "counts": list(buckets),
                    "total": total,
                    "count": count,
                    "p99": percentile_from_buckets(edges, buckets, 0.99),
                    "p999": percentile_from_buckets(edges, buckets, 0.999),
                }
                for name, (edges, buckets, total, count) in self.histograms.items()
            },
        }


class MetricsRegistry:
    """Named instruments, created on first use."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = Counter()
        return counter

    def gauge(self, name: str) -> Gauge:
        gauge = self._gauges.get(name)
        if gauge is None:
            gauge = self._gauges[name] = Gauge()
        return gauge

    def histogram(
        self, name: str, edges: Optional[Sequence[float]] = None
    ) -> Histogram:
        histogram = self._histograms.get(name)
        if histogram is None:
            if edges is None:
                raise KeyError(
                    "histogram %r does not exist yet; pass bucket edges" % name
                )
            histogram = self._histograms[name] = Histogram(edges)
        elif (
            edges is not None
            and edges != histogram.edges
            and tuple(float(e) for e in edges) != histogram.edges
        ):
            raise ValueError("histogram %r already exists with other edges" % name)
        return histogram

    def names(self) -> List[str]:
        """All instrument names, sorted."""
        return sorted(
            set(self._counters) | set(self._gauges) | set(self._histograms)
        )

    def snapshot(self) -> MetricsSnapshot:
        """Immutable copy of every instrument."""
        return MetricsSnapshot(
            counters={n: c.value for n, c in self._counters.items()},
            gauges={n: g.value for n, g in self._gauges.items()},
            histograms={
                n: (h.edges, tuple(h.bucket_counts), h.total, h.count)
                for n, h in self._histograms.items()
            },
        )
