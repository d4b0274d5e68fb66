"""Fixed-bucket log2 histograms for latency and step counts.

A :class:`Histogram` has 48 power-of-two buckets (bucket ``i`` holds
values ``v`` with ``v.bit_length() == i``, i.e. ``2^(i-1) <= v < 2^i``;
bucket 0 holds zeros).  Observation is two integer ops and an array
increment — cheap enough to leave on unconditionally in the host's
serving path — and quantiles come back as bucket upper bounds (never
above the largest observation), which is the right fidelity for "p99
latency is under 2^k µs" style gates.

Used by :class:`~repro.host.metrics.SessionMetrics` (per-request
latency in µs, per-request steps) and
:class:`~repro.host.metrics.HostMetrics` (per-tick duration and steps),
and surfaced into ``BENCH_results.json`` by the benchmark drivers.
"""

from __future__ import annotations

from typing import Any

__all__ = ["BUCKETS", "Histogram"]

#: Number of log2 buckets.  Bucket 47 holds everything from 2^46 up —
#: about 22 years in µs, comfortably "never" for latency and steps.
BUCKETS = 48


class Histogram:
    """A log2-bucketed histogram of non-negative integers."""

    __slots__ = ("counts", "count", "total", "min", "max")

    def __init__(self) -> None:
        self.counts = [0] * BUCKETS
        self.count = 0
        self.total = 0
        self.min = 0
        self.max = 0

    def observe(self, value: float) -> None:
        """Record one observation (floats are truncated; negatives
        clamp to zero)."""
        v = int(value)
        if v < 0:
            v = 0
        idx = v.bit_length()
        if idx >= BUCKETS:
            idx = BUCKETS - 1
        self.counts[idx] += 1
        self.total += v
        if self.count == 0 or v < self.min:
            self.min = v
        if v > self.max:
            self.max = v
        self.count += 1

    def merge(self, other: "Histogram") -> None:
        """Fold ``other``'s observations into this histogram."""
        if other.count == 0:
            return
        for i, c in enumerate(other.counts):
            self.counts[i] += c
        if self.count == 0 or other.min < self.min:
            self.min = other.min
        if other.max > self.max:
            self.max = other.max
        self.count += other.count
        self.total += other.total

    def quantile(self, q: float) -> int:
        """Upper bound of the bucket containing the ``q``-quantile
        (``0 <= q <= 1``), clamped to the largest observation; 0 on an
        empty histogram."""
        if self.count == 0:
            return 0
        rank = q * self.count
        seen = 0
        bound = (1 << (BUCKETS - 1)) - 1
        for idx, c in enumerate(self.counts):
            seen += c
            if seen >= rank and c:
                bound = (1 << idx) - 1 if idx else 0
                break
        return min(bound, self.max)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def as_dict(self) -> dict[str, Any]:
        """Summary plus the non-empty buckets, JSON-ready."""
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "mean": round(self.mean, 3),
            "p50": self.quantile(0.50),
            "p90": self.quantile(0.90),
            "p99": self.quantile(0.99),
            "buckets": {
                str((1 << idx) - 1 if idx else 0): c
                for idx, c in enumerate(self.counts)
                if c
            },
        }

    def __repr__(self) -> str:
        if not self.count:
            return "#<histogram empty>"
        return (
            f"#<histogram n={self.count} min={self.min} "
            f"p50={self.quantile(0.5)} p99={self.quantile(0.99)} max={self.max}>"
        )
