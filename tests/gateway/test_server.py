"""The gateway happy paths: submit/poll/result/cancel/stats over Host
and Cluster backends, streaming, budgets over the wire, and obs."""

from __future__ import annotations

import asyncio
import threading

import pytest

from repro.cluster import Cluster
from repro.errors import GatewayRequestError
from repro.gateway import Gateway, GatewayClient, GatewayLimits
from repro.gateway.server import ANSWERED_WINDOW
from repro.host import Host
from repro.obs import Recorder

from tests.gateway.conftest import run, serving

LOOP = "(let loop ((i 0)) (loop (+ i 1)))"


# -- request round trips --------------------------------------------------


def test_eval_round_trip():
    async def main():
        async with serving() as (gw, client):
            assert await client.eval("alice", "(+ 1 2)") == "3"
            # Session state persists across requests.
            await client.eval("alice", "(define x 40)")
            assert await client.eval("alice", "(+ x 2)") == "42"
            assert gw.stats["gateway.completed"] == 3

    run(main())


def test_sessions_are_isolated_per_name():
    async def main():
        async with serving() as (_, client):
            await client.eval("a", "(define who 'a)")
            await client.eval("b", "(define who 'b)")
            assert await client.eval("a", "who") == "a"
            assert await client.eval("b", "who") == "b"

    run(main())


def test_submit_then_poll_then_result():
    async def main():
        async with serving() as (_, client):
            rid = await client.submit("s", "(* 6 7)")
            state = await client.poll(rid)
            assert state["state"] in ("pending", "running", "done")
            assert await client.result(rid) == "42"
            # Poll after terminal returns the cached outcome.
            state = await client.poll(rid)
            assert state["state"] == "done"
            assert state["value"] == "42"

    run(main())


def test_concurrent_requests_interleave():
    async def main():
        async with serving() as (_, client):
            rids = [
                await client.submit("s", f"(+ {i} {i})") for i in range(10)
            ]
            values = await asyncio.gather(*(client.result(r) for r in rids))
            assert values == [str(2 * i) for i in range(10)]

    run(main())


def test_many_connections_share_one_gateway():
    async def main():
        async with serving() as (gw, _):
            clients = await asyncio.gather(
                *(GatewayClient.connect(gw.host, gw.port) for _ in range(8))
            )
            try:
                values = await asyncio.gather(
                    *(c.eval(f"s{i}", f"(* {i} 2)") for i, c in enumerate(clients))
                )
                assert values == [str(i * 2) for i in range(8)]
            finally:
                for c in clients:
                    await c.close()

    run(main())


def test_cancel_running_request():
    async def main():
        async with serving() as (gw, client):
            rid = await client.submit("s", LOOP)
            assert await client.cancel(rid) is True
            with pytest.raises(GatewayRequestError) as info:
                await client.result(rid)
            assert info.value.code == "cancelled"
            # A terminal request is no longer cancellable.
            assert await client.cancel(rid) is False
            assert gw.stats["gateway.cancelled"] == 1

    run(main())


def test_ping():
    async def main():
        async with serving() as (_, client):
            assert await client.ping() is True

    run(main())


# -- per-request budgets over the wire ------------------------------------


def test_max_steps_enforced_remotely():
    async def main():
        async with serving() as (_, client):
            rid = await client.submit("s", LOOP, max_steps=5000)
            with pytest.raises(GatewayRequestError) as info:
                await client.result(rid)
            assert info.value.code == "eval-error"
            assert "StepBudgetExceeded" in str(info.value)

    run(main())


def test_deadline_enforced_remotely():
    async def main():
        async with serving() as (_, client):
            rid = await client.submit("s", LOOP, deadline=0.05)
            with pytest.raises(GatewayRequestError) as info:
                await client.result(rid)
            assert "DeadlineExceeded" in str(info.value)

    run(main())


def test_result_timeout_leaves_request_running():
    async def main():
        async with serving() as (_, client):
            rid = await client.submit("s", LOOP, max_steps=2_000_000)
            with pytest.raises(TimeoutError):
                await client.result(rid, timeout=0.05)
            state = await client.poll(rid)
            assert state["state"] in ("pending", "running")
            await client.cancel(rid)

    run(main())


# -- streaming ------------------------------------------------------------


def test_stream_delivers_terminal_transition():
    async def main():
        async with serving() as (_, client):
            rid = await client.submit("s", "(+ 2 3)", stream=True)
            states = [ev["state"] async for ev in client.events(rid)]
            assert states[-1] == "done"
            assert set(states) <= {"running", "done"}

    run(main())


def test_stream_carries_value_and_steps():
    async def main():
        async with serving() as (_, client):
            rid = await client.submit("s", "(* 7 6)", stream=True)
            last = None
            async for ev in client.events(rid):
                last = ev
            assert last["value"] == "42"
            assert last["steps"] > 0

    run(main())


def test_stream_delivers_session_output_host_backend():
    """Host backend: display/write output streams as ``output`` events
    interleaved with the state transitions, all output arriving before
    the terminal state event."""

    async def main():
        async with serving() as (gw, client):
            rid = await client.submit(
                "s", '(display "hel") (display "lo") (+ 1 2)', stream=True
            )
            events = [ev async for ev in client.events(rid)]
            output = [ev["text"] for ev in events if ev.get("event") == "output"]
            assert "".join(output) == "hello"
            # Every output event precedes the terminal state event.
            terminal_at = max(
                i for i, ev in enumerate(events) if ev.get("state") == "done"
            )
            last_output_at = max(
                i for i, ev in enumerate(events) if ev.get("event") == "output"
            )
            assert last_output_at < terminal_at
            assert gw.stats["gateway.output_events"] >= 1

    run(main())


def test_stream_delivers_session_output_cluster_backend():
    """Cluster backend: the shard returns the output delta with the
    result, so exactly one ``output`` event lands just before the
    terminal state event."""

    async def main():
        cluster = Cluster(workers=0, session_defaults={"prelude": False})
        try:
            async with Gateway(cluster) as gw:
                client = await GatewayClient.connect(gw.host, gw.port)
                try:
                    rid = await client.submit(
                        "c", '(display "from-shard") 7', stream=True
                    )
                    events = [ev async for ev in client.events(rid)]
                    output = [
                        ev["text"] for ev in events if ev.get("event") == "output"
                    ]
                    assert output == ["from-shard"]
                    assert events[-1]["state"] == "done"
                    assert events[-1]["value"] == "7"
                finally:
                    await client.close()
        finally:
            cluster.close()

    run(main())


def test_no_output_events_without_stream():
    """A plain submit gets no event frames: output from sessions other
    clients are streaming never leaks into a non-streaming request."""

    async def main():
        async with serving() as (gw, client):
            rid = await client.submit("s", '(display "quiet") (+ 1 1)')
            assert await client.result(rid) == "2"
            assert gw.stats["gateway.output_events"] == 0

    run(main())


def test_stream_output_skips_prior_session_output():
    """A second streamed request on the same session sees only its own
    output, not the backlog the first request produced."""

    async def main():
        async with serving() as (_, client):
            rid1 = await client.submit("s", '(display "first")', stream=True)
            async for _ in client.events(rid1):
                pass
            rid2 = await client.submit("s", '(display "second")', stream=True)
            output = [
                ev["text"]
                async for ev in client.events(rid2)
                if ev.get("event") == "output"
            ]
            assert "".join(output) == "second"

    run(main())


def test_stream_output_goes_to_the_request_that_wrote_it():
    """Two streamed requests queued on one session: each one's output
    events carry exactly what it displayed while it ran, even though
    the second was submitted before the first had written anything."""

    async def main():
        async with serving() as (_, client):
            await client.eval("s", "(define (spin n) (if (= n 0) 0 (spin (- n 1))))")
            rid_a = await client.submit(
                "s", '(spin 40000) (display "late-A")', stream=True
            )
            rid_b = await client.submit("s", '(display "B")', stream=True)

            async def output_of(rid):
                return [
                    ev["text"]
                    async for ev in client.events(rid)
                    if ev.get("event") == "output"
                ]

            out_a, out_b = await asyncio.gather(output_of(rid_a), output_of(rid_b))
            assert "".join(out_a) == "late-A"
            assert "".join(out_b) == "B"

    run(main())


def test_stream_reports_running_even_within_one_tick():
    """A request that starts and finishes inside one host tick still
    streams both of its transitions."""

    async def main():
        async with serving() as (_, client):
            rid = await client.submit("s", "(+ 2 3)", stream=True)
            states = [ev["state"] async for ev in client.events(rid)]
            assert states == ["running", "done"]

    run(main())


def test_every_streamed_cluster_request_ends_in_a_terminal_event():
    """The pump can tick a cluster request to its end before its submit
    ack is written; the gateway holds those events until the ack is out,
    so no stream loses its terminal event."""

    async def main():
        cluster = Cluster(workers=0, session_defaults={"prelude": False})
        try:
            async with Gateway(cluster) as gw:
                client = await GatewayClient.connect(gw.host, gw.port)
                try:
                    rids = [
                        await client.submit(
                            f"c{i % 4}", f"(+ {i} 1)", tenant=f"t{i % 4}", stream=True
                        )
                        for i in range(100)
                    ]

                    async def last_state(rid):
                        return [ev async for ev in client.events(rid)][-1]["state"]

                    finals = await asyncio.wait_for(
                        asyncio.gather(*(last_state(r) for r in rids)), 5.0
                    )
                    assert finals == ["done"] * 100
                finally:
                    await client.close()
        finally:
            cluster.close()

    run(main())


def _counting_ticks(tier):
    """Wrap ``tier.tick`` to count its calls; returns the count cell."""
    calls = [0]
    tick = tier.tick

    def counting_tick(*args):
        calls[0] += 1
        return tick(*args)

    tier.tick = counting_tick
    return calls


def _tier(backend, workers=0):
    if backend == "host":
        return Host()
    return Cluster(workers=workers, session_defaults={"prelude": False})


@pytest.mark.parametrize("backend", ["host", "cluster"])
def test_idle_gateway_does_not_tick(backend):
    """Once its work is done, the gateway's driver sleeps on an event
    instead of waking up to look for work: at most one tier tick in
    0.5 s."""
    tier = _tier(backend)

    async def main():
        async with serving(tier) as (_, client):
            assert await client.eval("s", "(+ 1 2)") == "3"
            await asyncio.sleep(0.05)  # let the driver go idle
            calls = _counting_ticks(tier)
            await asyncio.sleep(0.5)
            assert calls[0] <= 1

    try:
        run(main())
    finally:
        if backend == "cluster":
            tier.close()


@pytest.mark.parametrize("backend", ["host", "cluster"])
def test_serving_starts_no_thread(backend):
    """The gateway serves from the event loop's own thread: starting it
    and answering a request leaves the thread count unchanged."""
    tier = _tier(backend)

    async def main():
        before = threading.active_count()
        async with serving(tier) as (_, client):
            assert await client.eval("s", "(+ 1 2)") == "3"
            assert threading.active_count() == before

    try:
        run(main())
    finally:
        if backend == "cluster":
            tier.close()


def test_outstanding_shard_is_waited_on_not_polled():
    """While one ~0.3 s request runs on a worker process, the driver
    waits for the shard's pipe to become readable: a bounded number of
    cluster ticks, where a spin or a timer would take hundreds."""
    cluster = _tier("cluster", workers=1)
    calls = _counting_ticks(cluster)
    spin = "(let loop ((i 0)) (if (< i 60000) (loop (+ i 1)) i))"

    async def main():
        async with serving(cluster) as (_, client):
            assert await client.eval("s", spin) == "60000"

    try:
        run(main())
    finally:
        cluster.close()
    assert calls[0] <= 10


def test_events_requires_stream_submit():
    async def main():
        async with serving() as (_, client):
            rid = await client.submit("s", "(+ 1 1)")
            await client.result(rid)
            with pytest.raises(GatewayRequestError):
                async for _ in client.events(rid):
                    pass

    run(main())


# -- the cluster backend --------------------------------------------------


def test_cluster_backend_round_trip():
    async def main():
        cluster = Cluster(workers=0, session_defaults={"prelude": False})
        try:
            async with Gateway(cluster) as gw:
                client = await GatewayClient.connect(gw.host, gw.port)
                try:
                    assert await client.eval("c", "(+ 20 22)") == "42"
                    await client.eval("c", "(define saved 7)")
                    assert await client.eval("c", "saved") == "7"
                    stats = await client.stats()
                    assert stats["cluster.completed"] == 3
                    assert stats["gateway.completed"] == 3
                finally:
                    await client.close()
        finally:
            cluster.close()

    run(main())


def test_cluster_backend_eval_error_carries_original_type():
    async def main():
        cluster = Cluster(workers=0, session_defaults={"prelude": False})
        try:
            async with Gateway(cluster) as gw:
                client = await GatewayClient.connect(gw.host, gw.port)
                try:
                    rid = await client.submit("c", "(+ 1 nope)")
                    with pytest.raises(GatewayRequestError) as info:
                        await client.result(rid)
                    assert "UnboundVariableError" in str(info.value)
                finally:
                    await client.close()
        finally:
            cluster.close()

    run(main())


def test_cluster_session_defaults_rejected_on_gateway():
    with Cluster(workers=0) as cluster, pytest.raises(ValueError):
        Gateway(cluster, session_defaults={"prelude": False})


def test_backend_type_checked():
    with pytest.raises(TypeError):
        Gateway(object())


# -- stats and observability ----------------------------------------------


def test_stats_op_merges_backend_and_gateway():
    async def main():
        async with serving() as (gw, client):
            await client.eval("s", "(+ 1 1)")
            stats = await client.stats()
            assert stats["gateway.submits"] == 1
            assert stats["gateway.inflight"] == 0
            assert stats["host.ticks"] > 0
            # The op's gateway part is Gateway.stats, every counter of it.
            gateway_part = {k: v for k, v in stats.items() if k.startswith("gateway.")}
            assert gateway_part == gw.stats
            assert gateway_part["gateway.tracked_requests"] == 1

    run(main())


def test_connection_keeps_a_bounded_window_of_answered_requests():
    """A long-lived connection holds at most ``ANSWERED_WINDOW``
    answered records: the oldest answered id is forgotten, the newest
    still polls."""

    async def main():
        async with serving() as (gw, client):
            rids = []
            for i in range(3 * ANSWERED_WINDOW):
                rids.append(await client.submit("s", f"(+ {i} 1)"))
                assert await client.result(rids[-1]) == str(i + 1)
            stats = gw.stats
            assert stats["gateway.tracked_requests"] <= (
                ANSWERED_WINDOW + stats["gateway.inflight"]
            )
            with pytest.raises(GatewayRequestError) as info:
                await client.poll(rids[0])
            assert info.value.code == "unknown-request"
            assert (await client.poll(rids[-1]))["value"] == str(3 * ANSWERED_WINDOW)

    run(main())


def test_running_request_outlives_the_answered_window(monkeypatch):
    """However many answers pass it, a request that has not finished
    is never forgotten."""
    monkeypatch.setattr("repro.gateway.server.ANSWERED_WINDOW", 4)

    async def main():
        async with serving() as (gw, client):
            running = await client.submit("busy", LOOP)
            for i in range(12):
                assert await client.eval("s", f"(+ {i} 1)") == str(i + 1)
            assert gw.stats["gateway.tracked_requests"] == 4 + 1
            assert (await client.poll(running))["state"] in ("pending", "running")
            assert await client.cancel(running) is True

    run(main())


def test_requests_land_in_recorder_as_complete_events():
    async def main():
        rec = Recorder()
        async with serving(Host(), record=rec) as (_, client):
            await client.eval("s", "(+ 1 1)")
            await client.eval("s", "(+ 2 2)")
        events = rec.events_of("gateway.request")
        assert len(events) == 2
        assert all(e.phase == "X" and e.dur > 0 for e in events)

    run(main())


def test_request_latency_histogram_populated():
    async def main():
        async with serving() as (gw, client):
            await client.eval("s", "(+ 1 1)")
            hist = gw.histograms()["gateway.request_us"]
            assert hist["count"] == 1

    run(main())


def test_tenant_rides_through_to_the_backend_handle():
    async def main():
        host = Host()
        async with serving(host) as (_, client):
            rid = await client.submit("s", "(+ 1 1)", tenant="acme")
            await client.result(rid)
        # The session's handle carried the tenant label.
        # (The handle is gone from the gateway registry; check metrics
        # instead: the submit was admitted under the tenant.)
        assert host["s"].metrics.submits == 1

    run(main())


def test_gateway_restart_not_allowed():
    async def main():
        gw = Gateway(Host())
        await gw.start()
        with pytest.raises(Exception):
            await gw.start()
        await gw.close()
        await gw.close()  # idempotent

    run(main())


def test_limits_surface_on_gateway():
    gw = Gateway(Host(), limits=GatewayLimits(max_inflight=7))
    assert gw.limits.max_inflight == 7
    assert "new" in repr(gw)
