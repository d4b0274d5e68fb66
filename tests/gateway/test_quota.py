"""Admission control: token buckets and the per-tenant quota table
(driven by an injected fake clock — no sleeps)."""

from __future__ import annotations

import random

import pytest

from repro.clock import ManualClock
from repro.gateway.quota import GatewayLimits, QuotaTable, TokenBucket


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


# -- TokenBucket ----------------------------------------------------------


def test_bucket_starts_full_and_drains():
    clock = FakeClock()
    bucket = TokenBucket(rate=10.0, burst=3, clock=clock)
    assert [bucket.try_acquire()[0] for _ in range(3)] == [True, True, True]
    ok, wait = bucket.try_acquire()
    assert not ok
    assert wait == pytest.approx(0.1)  # one token at 10/s


def test_bucket_refills_at_rate():
    clock = FakeClock()
    bucket = TokenBucket(rate=10.0, burst=2, clock=clock)
    bucket.try_acquire(), bucket.try_acquire()
    clock.advance(0.1)  # one token back
    assert bucket.try_acquire()[0]
    assert not bucket.try_acquire()[0]


def test_bucket_never_exceeds_burst():
    clock = FakeClock()
    bucket = TokenBucket(rate=100.0, burst=2, clock=clock)
    clock.advance(60.0)  # a long idle spell banks nothing beyond burst
    assert bucket.try_acquire()[0]
    assert bucket.try_acquire()[0]
    assert not bucket.try_acquire()[0]


def test_bucket_retry_after_shrinks_as_tokens_refill():
    clock = FakeClock()
    bucket = TokenBucket(rate=2.0, burst=1, clock=clock)
    bucket.try_acquire()
    _, wait1 = bucket.try_acquire()
    clock.advance(0.25)
    _, wait2 = bucket.try_acquire()
    assert wait2 < wait1


def test_bucket_rejects_nonpositive_rate():
    with pytest.raises(ValueError):
        TokenBucket(rate=0)


# -- QuotaTable -----------------------------------------------------------


def test_global_inflight_cap():
    table = QuotaTable(GatewayLimits(max_inflight=2, tenant_max_inflight=10))
    assert table.admit("a") is None
    assert table.admit("b") is None
    reason, wait = table.admit("c")
    assert reason == "inflight"
    assert wait > 0
    table.release("a")
    assert table.admit("c") is None


def test_tenant_inflight_cap():
    table = QuotaTable(GatewayLimits(max_inflight=100, tenant_max_inflight=1))
    assert table.admit("a") is None
    reason, _ = table.admit("a")
    assert reason == "tenant-inflight"
    # Another tenant is unaffected.
    assert table.admit("b") is None
    table.release("a")
    assert table.admit("a") is None


def test_anonymous_requests_share_one_bucket():
    table = QuotaTable(GatewayLimits(max_inflight=100, tenant_max_inflight=1))
    assert table.admit(None) is None
    reason, _ = table.admit(None)
    assert reason == "tenant-inflight"
    table.release(None)
    assert table.admit(None) is None


def test_tenant_rate_limit_with_retry_after():
    clock = FakeClock()
    limits = GatewayLimits(
        max_inflight=100, tenant_max_inflight=100, tenant_rate=10.0, tenant_burst=1
    )
    table = QuotaTable(limits, clock=clock)
    assert table.admit("a") is None
    reason, wait = table.admit("a")
    assert reason == "tenant-rate"
    assert wait == pytest.approx(0.1)
    clock.advance(0.1)
    assert table.admit("a") is None
    # Rate buckets are per tenant.
    assert table.admit("b") is None


def test_refilled_buckets_are_dropped_without_changing_decisions():
    """10 000 one-shot tenants leave no bucket behind once every bucket
    has had ``burst / rate`` seconds to refill, and admission decides
    exactly as if each tenant kept its bucket forever."""
    rate, burst = 100.0, 4
    clock = ManualClock()
    limits = GatewayLimits(
        max_inflight=100, tenant_max_inflight=100, tenant_rate=rate, tenant_burst=burst
    )
    table = QuotaTable(limits, clock=clock)
    kept: dict[str, TokenBucket] = {}
    rng = random.Random(7)

    def admit(tenant: str) -> None:
        bucket = kept.setdefault(tenant, TokenBucket(rate, burst, clock=clock))
        ok, wait = bucket.try_acquire()
        refusal = table.admit(tenant)
        assert refusal == (None if ok else ("tenant-rate", wait))
        if refusal is None:
            table.release(tenant)

    for i in range(10_000):
        admit(f"once-{i}")
        for _ in range(rng.randrange(3)):  # a few regulars, some over their rate
            admit(f"regular-{rng.randrange(5)}")
        clock.advance(rng.choice((0.0, 0.0, 0.001, 0.01)))
    assert len(table._buckets) < 10_000

    clock.advance(burst / rate)
    admit("late")
    assert list(table._buckets) == ["late"]


def test_release_is_balanced():
    table = QuotaTable(GatewayLimits(max_inflight=4))
    table.admit("a")
    table.admit("a")
    table.release("a")
    table.release("a")
    assert table.inflight == 0
    assert table.tenant_inflight == {}
