"""Clock-skew regression tests: every deadline/quota computation in
the serving stack reads the injected monotonic clock (``repro.clock``),
never the wall clock — so an NTP step, VM suspend, or a user changing
the system time can neither fire nor suppress a deadline, and tests
can drive expiry by hand without sleeping."""

from __future__ import annotations

import time

import pytest

from repro.clock import MONOTONIC, ManualClock
from repro.cluster import Cluster
from repro.errors import DeadlineExceeded, HostSaturated
from repro.gateway import GatewayLimits, QuotaTable, TokenBucket
from repro.host.handle import HandleState

from .conftest import run, serving


# -- the clock itself ------------------------------------------------------


def test_manual_clock_advances_and_refuses_reverse():
    clock = ManualClock(10.0)
    assert clock() == 10.0
    assert clock.advance(2.5) == 12.5
    assert clock() == 12.5
    with pytest.raises(ValueError):
        clock.advance(-0.1)
    assert clock() == 12.5  # unchanged after the refused step


def test_production_clock_is_monotonic():
    assert MONOTONIC is time.monotonic


# -- quota arithmetic follows the injected clock, not real time ------------


def test_token_bucket_refills_on_injected_clock_only():
    clock = ManualClock()
    bucket = TokenBucket(rate=10.0, burst=1, clock=clock)
    ok, _ = bucket.try_acquire()
    assert ok
    ok, wait = bucket.try_acquire()
    assert not ok
    assert wait == pytest.approx(0.1)
    # Real time passing does nothing: the bucket reads only `clock`.
    time.sleep(0.02)
    ok, _ = bucket.try_acquire()
    assert not ok
    clock.advance(0.1)
    ok, _ = bucket.try_acquire()
    assert ok


def test_quota_table_rate_refusals_follow_injected_clock():
    clock = ManualClock()
    limits = GatewayLimits(tenant_rate=2.0, tenant_burst=1)
    table = QuotaTable(limits, clock=clock)
    assert table.admit("t") is None
    refusal = table.admit("t")
    assert refusal is not None
    reason, wait = refusal
    assert reason == "tenant-rate"
    assert wait == pytest.approx(0.5)
    clock.advance(0.5)
    assert table.admit("t") is None


def test_gateway_threads_clock_into_quota():
    """The gateway's ``clock=`` lands on its QuotaTable, so rate
    refusal math over the wire is driven by the injected clock."""
    clock = ManualClock()

    async def scenario():
        limits = GatewayLimits(tenant_rate=1.0, tenant_burst=1)
        async with serving(limits=limits, clock=clock) as (gw, client):
            assert gw.quota.clock is clock
            assert await client.eval("s", "1", tenant="t") == "1"
            with pytest.raises(HostSaturated) as exc_info:
                await client.eval("s", "2", tenant="t")
            # retry_after_ms reflects the manual clock's refill math:
            # a full token at 1 req/s is 1000ms away.
            assert 900 <= exc_info.value.retry_after_ms <= 1000
            clock.advance(1.0)
            assert await client.eval("s", "3", tenant="t") == "3"

    run(scenario())


# -- cluster deadlines follow the injected clock ---------------------------


def test_cluster_queued_deadline_expires_by_injected_clock():
    """A queued request's deadline fires when the *injected* clock
    passes it.  Nothing runs until the front is ticked, so the clock is
    advanced by hand with no busy request to race and no real waiting."""
    clock = ManualClock()
    with Cluster(workers=0, clock=clock, session_defaults={"prelude": False}) as c:
        doomed = c.submit_async("victim", "(+ 1 1)", deadline=5.0)
        clock.advance(10.0)  # the deadline passes without any real time
        c.tick()
        assert doomed.state is HandleState.FAILED
        with pytest.raises(DeadlineExceeded):
            doomed.result()
        assert c.sessions() == []  # it never reached a shard


def test_cluster_deadline_not_fired_early_by_real_time(monkeypatch):
    """Real time passing does not expire a queued deadline while the
    injected clock stands still.  Only that front-side check reads the
    injected clock: the shard is sent the allowance left on it and
    enforces that in real time, so the allowance here is one no run
    can miss."""
    clock = ManualClock()
    with Cluster(workers=0, clock=clock, session_defaults={"prelude": False}) as c:
        runtime = c.shards[0].runtime
        handle_op = runtime.handle
        sent = []

        def spy(op, payload):
            sent.append(payload["deadline"])
            return handle_op(op, payload)

        monkeypatch.setattr(runtime, "handle", spy)
        handle = c.submit_async("s", "(+ 20 22)", deadline=30.0)
        time.sleep(0.01)  # real time passes; the injected clock does not
        clock.advance(10.0)
        assert handle.result(timeout=30.0) == "42"
        assert sent == [20.0]
