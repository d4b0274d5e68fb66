"""Log2 histogram unit behaviour."""

from __future__ import annotations

from repro.obs.histogram import BUCKETS, Histogram


def test_empty_histogram():
    h = Histogram()
    assert h.count == 0
    assert h.quantile(0.5) == 0
    assert h.mean == 0.0
    assert h.as_dict()["buckets"] == {}


def test_bucket_boundaries_are_powers_of_two():
    h = Histogram()
    for v in (0, 1, 2, 3, 4, 7, 8):
        h.observe(v)
    buckets = h.as_dict()["buckets"]
    # v=0 -> bucket "0"; v=1 -> "1"; v∈{2,3} -> "3"; v∈{4..7} -> "7";
    # v=8 -> "15".
    assert buckets == {"0": 1, "1": 1, "3": 2, "7": 2, "15": 1}


def test_summary_statistics():
    h = Histogram()
    for v in (5, 10, 20):
        h.observe(v)
    assert h.count == 3
    assert h.total == 35
    assert h.min == 5
    assert h.max == 20
    assert abs(h.mean - 35 / 3) < 1e-9


def test_quantiles_return_bucket_upper_bounds():
    h = Histogram()
    for _ in range(99):
        h.observe(10)  # bucket upper bound 15
    h.observe(1000)  # bucket upper bound 1023
    assert h.quantile(0.5) == 15
    assert h.quantile(0.99) == 15
    # The top bucket's bound (1023) is above every observation.
    assert h.quantile(1.0) == 1000


def test_quantiles_never_exceed_the_largest_observation():
    h = Histogram()
    for _ in range(10):
        h.observe(20000)  # bucket upper bound 32767
    assert h.quantile(0.5) == h.quantile(0.99) == h.max == 20000
    summary = h.as_dict()
    assert summary["p50"] == summary["p90"] == summary["p99"] == 20000
    assert summary["buckets"] == {"32767": 10}


def test_negative_values_clamp_to_zero_and_floats_truncate():
    h = Histogram()
    h.observe(-5)
    h.observe(2.9)
    assert h.min == 0
    assert h.max == 2
    assert h.as_dict()["buckets"] == {"0": 1, "3": 1}


def test_huge_values_clamp_to_last_bucket():
    h = Histogram()
    h.observe(1 << 200)
    assert h.counts[BUCKETS - 1] == 1
    assert h.quantile(0.5) == (1 << (BUCKETS - 1)) - 1


def test_merge_combines_counts_and_extremes():
    a, b = Histogram(), Histogram()
    a.observe(2)
    a.observe(100)
    b.observe(1)
    b.observe(5000)
    a.merge(b)
    assert a.count == 4
    assert a.min == 1
    assert a.max == 5000
    assert a.total == 2 + 100 + 1 + 5000
    empty = Histogram()
    a.merge(empty)  # merging an empty histogram changes nothing
    assert a.count == 4 and a.min == 1
