"""The gateway error paths: malformed/oversize frames, unknown ops,
disconnect mid-request, quota refusals, the shed contract under a burst
past the inflight cap, and backend fault containment."""

from __future__ import annotations

import asyncio
import gc
import json
import math

import pytest

from repro.errors import GatewayBusy, GatewayClosed, HostSaturated
from repro.gateway import Gateway, GatewayClient, GatewayLimits
from repro.host import Host

from tests.gateway.conftest import run, serving

LOOP = "(let loop ((i 0)) (loop (+ i 1)))"


async def _raw_connection(gw):
    """A raw reader/writer pair (no client), for speaking bad frames."""
    return await asyncio.open_connection(gw.host, gw.port)


async def _read_frame(reader):
    line = await reader.readline()
    assert line, "server closed unexpectedly"
    return json.loads(line)


# -- malformed frames -----------------------------------------------------


def test_malformed_frame_recoverable():
    async def main():
        async with serving() as (gw, _):
            reader, writer = await _raw_connection(gw)
            writer.write(b"{this is not json}\n")
            await writer.drain()
            reply = await _read_frame(reader)
            assert reply["ok"] is False
            assert reply["error"]["code"] == "bad-frame"
            # The connection survives and stays line-synchronised.
            writer.write(
                b'{"op":"submit","id":1,"session":"s","source":"(+ 1 2)"}\n'
            )
            await writer.drain()
            reply = await _read_frame(reader)
            assert reply["ok"] is True
            assert gw.stats["gateway.protocol_errors"] == 1
            writer.close()
            await writer.wait_closed()

    run(main())


def test_non_object_frame_rejected():
    async def main():
        async with serving() as (gw, _):
            reader, writer = await _raw_connection(gw)
            writer.write(b"[1,2,3]\n")
            await writer.drain()
            reply = await _read_frame(reader)
            assert reply["error"]["code"] == "bad-frame"
            writer.close()
            await writer.wait_closed()

    run(main())


def test_blank_lines_ignored():
    async def main():
        async with serving() as (gw, _):
            reader, writer = await _raw_connection(gw)
            writer.write(b"\n\n")
            writer.write(b'{"op":"ping","id":1}\n')
            await writer.drain()
            reply = await _read_frame(reader)
            assert reply["id"] == 1 and reply["ok"] is True
            writer.close()
            await writer.wait_closed()

    run(main())


# -- oversize frames ------------------------------------------------------


def test_oversize_frame_is_fatal():
    async def main():
        limits = GatewayLimits(max_frame_bytes=1024)
        async with serving(Host(), limits=limits) as (gw, _):
            reader, writer = await _raw_connection(gw)
            frame = {"op": "submit", "id": 1, "session": "s", "source": "x" * 4096}
            writer.write(json.dumps(frame).encode() + b"\n")
            await writer.drain()
            reply = await _read_frame(reader)
            assert reply["error"]["code"] == "oversize"
            # The server closes: EOF follows.
            assert await reader.readline() == b""
            assert gw.stats["gateway.protocol_errors"] == 1
            writer.close()
            await writer.wait_closed()

    run(main())


def test_frame_under_the_limit_is_fine():
    async def main():
        limits = GatewayLimits(max_frame_bytes=4096)
        async with serving(Host(), limits=limits) as (gw, client):
            value = await client.eval("s", "(string-length \"%s\")" % ("y" * 512))
            assert value == "512"

    run(main())


# -- unknown ops / requests / invalid fields ------------------------------


def test_unknown_op():
    async def main():
        async with serving() as (gw, _):
            reader, writer = await _raw_connection(gw)
            writer.write(b'{"op":"frobnicate","id":1}\n')
            await writer.drain()
            reply = await _read_frame(reader)
            assert reply["error"]["code"] == "unknown-op"
            writer.close()
            await writer.wait_closed()

    run(main())


def test_unknown_request_id():
    async def main():
        async with serving() as (_, client):
            for op in ("poll", "result", "cancel"):
                with pytest.raises(Exception) as info:
                    await client.call(op, request=999)
                assert getattr(info.value, "code", None) == "unknown-request"

    run(main())


def test_invalid_submit_fields():
    async def main():
        async with serving() as (gw, _):
            reader, writer = await _raw_connection(gw)
            frame = {"op": "submit", "id": 0, "session": "s", "source": LOOP}
            writer.write(json.dumps(frame).encode() + b"\n")
            await writer.drain()
            running = (await _read_frame(reader))["request"]
            bad_frames = [
                {"op": "submit", "id": 1},  # no session/source
                {"op": "submit", "id": 2, "session": "", "source": "1"},
                {"op": "submit", "id": 3, "session": "s", "source": 42},
                {"op": "submit", "id": 4, "session": "s", "source": "1", "max_steps": -1},
                {"op": "submit", "id": 5, "session": "s", "source": "1", "deadline_ms": 0},
                {"op": "submit", "id": 6, "session": "s", "source": "1", "tenant": 9},
                # JSON booleans are not numbers, and NaN or Infinity is no budget.
                {"op": "submit", "id": 7, "session": "s", "source": "1", "max_steps": True},
                {"op": "submit", "id": 8, "session": "s", "source": "1", "deadline_ms": True},
                {"op": "submit", "id": 9, "session": "s", "source": "1", "deadline_ms": math.nan},
                {"op": "submit", "id": 10, "session": "s", "source": "1", "deadline_ms": math.inf},
                {"op": "result", "id": 11, "request": running, "timeout_ms": math.nan},
            ]
            for frame in bad_frames:
                writer.write(json.dumps(frame).encode() + b"\n")
            await writer.drain()
            for frame in bad_frames:
                reply = await _read_frame(reader)
                assert reply["id"] == frame["id"]
                assert reply["error"]["code"] == "invalid"
            assert gw.stats["gateway.protocol_errors"] == len(bad_frames)
            writer.close()
            await writer.wait_closed()

    run(main())


# -- disconnect mid-request -----------------------------------------------


def test_disconnect_cancels_inflight_requests():
    async def main():
        host = Host()
        async with serving(host) as (gw, _):
            doomed = await GatewayClient.connect(gw.host, gw.port)
            await doomed.submit("s", LOOP)
            await doomed.submit("s", LOOP)
            await doomed.close()
            # The gateway notices the disconnect, cancels the handles,
            # and the backend drains to idle — no leaked work.
            for _ in range(200):
                if gw.stats["gateway.tracked_requests"] == 0 and host.idle:
                    break
                await asyncio.sleep(0.01)
            assert gw.stats["gateway.disconnect_cancels"] == 2
            assert gw.stats["gateway.tracked_requests"] == 0
            assert host.idle
            assert gw.quota.inflight == 0

    run(main())


def test_disconnect_with_terminal_requests_drops_records():
    async def main():
        async with serving() as (gw, _):
            client = await GatewayClient.connect(gw.host, gw.port)
            rid = await client.submit("s", "(+ 1 1)")
            await client.result(rid)
            await client.close()
            for _ in range(100):
                if gw.stats["gateway.tracked_requests"] == 0:
                    break
                await asyncio.sleep(0.01)
            assert gw.stats["gateway.tracked_requests"] == 0
            assert gw.stats["gateway.disconnect_cancels"] == 0

    run(main())


# -- client-side connection loss ------------------------------------------


class _FakeWriter:
    """A stream writer for a client built on an injected reader; a
    ``drain_error`` plays a connection that is already gone."""

    def __init__(self, drain_error: Exception | None = None):
        self.drain_error = drain_error
        self.frames: list[bytes] = []

    def write(self, data: bytes) -> None:
        self.frames.append(data)

    async def drain(self) -> None:
        if self.drain_error is not None:
            raise self.drain_error

    def close(self) -> None:
        pass

    async def wait_closed(self) -> None:
        pass


def test_client_write_failure_is_gateway_closed_and_leaks_nothing():
    """A write on a lost connection raises GatewayClosed, closes the
    client, and leaves no pending entry for the later EOF to fail (and
    asyncio to log as "never retrieved")."""

    async def main():
        loop = asyncio.get_running_loop()
        logged: list[str] = []
        loop.set_exception_handler(lambda _loop, context: logged.append(context["message"]))
        reader = asyncio.StreamReader()
        client = GatewayClient(reader, _FakeWriter(ConnectionResetError("reset by peer")))
        with pytest.raises(GatewayClosed, match="reset by peer"):
            await client.submit("s", "(+ 1 2)", stream=True)
        assert client._closed
        assert client._pending == {} and client._streams == {}
        with pytest.raises(GatewayClosed):
            await client.submit("s", "(+ 1 2)")
        assert client._pending == {}
        reader.feed_eof()
        await client._reader_task
        gc.collect()
        assert logged == []

    run(main())


def test_close_drops_connected_clients():
    """``Gateway.close()`` closes every live connection: a client still
    connected gets ``GatewayClosed`` on its next call, not silence."""

    async def main():
        gw = await Gateway(Host()).start()
        client = await GatewayClient.connect(gw.host, gw.port)
        try:
            assert await client.ping() is True
            await gw.close()
            with pytest.raises(GatewayClosed):
                await asyncio.wait_for(client.submit("s", "(+ 1 1)"), 2.0)
        finally:
            await client.close()

    run(main())


def test_client_cancelled_call_leaks_nothing():
    async def main():
        client = GatewayClient(asyncio.StreamReader(), _FakeWriter())
        call = asyncio.ensure_future(client.submit("s", "(+ 1 2)", stream=True))
        await asyncio.sleep(0)  # written; now awaiting a reply that never comes
        assert len(client._pending) == 1
        call.cancel()
        with pytest.raises(asyncio.CancelledError):
            await call
        assert client._pending == {} and client._streams == {}
        await client.close()

    run(main())


# -- quota refusal --------------------------------------------------------


def test_inflight_cap_sheds_with_retry_after():
    async def main():
        limits = GatewayLimits(max_inflight=1)
        async with serving(Host(), limits=limits) as (gw, client):
            rid = await client.submit("s", LOOP)  # occupies the one slot
            with pytest.raises(GatewayBusy) as info:
                await client.submit("s", "(+ 1 1)")
            assert info.value.retry_after_ms >= 1
            # GatewayBusy IS a HostSaturated: remote refusals unify
            # with the in-process backpressure type.
            assert isinstance(info.value, HostSaturated)
            assert gw.stats["gateway.shed"] == 1
            await client.cancel(rid)
            # The terminal state frees the slot.
            with pytest.raises(Exception):
                await client.result(rid)
            assert await client.eval("s", "(+ 1 1)") == "2"

    run(main())


def test_overload_burst_answers_every_frame_exactly_once():
    """Four connections burst sixteen submits past ``max_inflight``
    while the backend is held: every frame gets one answer — a result
    or a ``busy`` carrying ``retry_after_ms`` — with no protocol errors.

    While the host's ticks do nothing, the two requests that won a slot
    cannot finish, so every later submit is refused."""

    async def main():
        limits = GatewayLimits(max_inflight=2)
        host = Host()
        release = asyncio.Event()
        tick = host.tick
        # Until released, a tick runs nothing: no admitted request can finish.
        host.tick = lambda: tick() if release.is_set() else 0
        async with serving(host, limits=limits) as (gw, _):
            clients = await asyncio.gather(
                *(GatewayClient.connect(gw.host, gw.port) for _ in range(4))
            )

            async def one(client, i):
                try:
                    rid = await client.submit(f"s{i % 4}", f"(+ {i} 1)")
                except GatewayBusy as exc:
                    assert exc.retry_after_ms >= 1
                    return "busy"
                return await client.result(rid)

            async def refused():
                while gw.stats["gateway.shed"] < 8:
                    await asyncio.sleep(0.005)

            try:
                tasks = [
                    asyncio.ensure_future(one(client, 4 * k + j))
                    for k, client in enumerate(clients)
                    for j in range(4)
                ]
                await asyncio.wait_for(refused(), 10.0)
                release.set()
                answers = await asyncio.wait_for(asyncio.gather(*tasks), 30.0)
            finally:
                release.set()
                for client in clients:
                    await client.close()
            served = {i: a for i, a in enumerate(answers) if a != "busy"}
            assert all(a == str(i + 1) for i, a in served.items())
            stats = gw.stats
            assert len(served) >= 2 and stats["gateway.shed"] >= 8
            assert len(served) + stats["gateway.shed"] == 16
            assert stats["gateway.completed"] == len(served)
            assert stats["gateway.protocol_errors"] == 0
            assert stats["gateway.inflight"] == 0

    run(main())


def test_tenant_rate_limit_sheds():
    async def main():
        limits = GatewayLimits(tenant_rate=5.0, tenant_burst=2)
        async with serving(Host(), limits=limits) as (gw, client):
            await client.eval("s", "(+ 1 1)", tenant="t")
            await client.eval("s", "(+ 1 1)", tenant="t")
            with pytest.raises(GatewayBusy) as info:
                await client.submit("s", "(+ 1 1)", tenant="t")
            assert info.value.retry_after_ms >= 1

    run(main())


def test_backend_saturation_maps_to_busy():
    async def main():
        # A tiny host queue, a permissive gateway: the *backend*'s
        # HostSaturated comes back as the same busy contract.
        host = Host(max_pending=1)
        async with serving(host) as (gw, client):
            await client.submit("s", LOOP)
            with pytest.raises(GatewayBusy):
                await client.submit("s", "(+ 1 1)")
            assert gw.stats["gateway.shed"] == 1
            assert gw.quota.inflight == 1  # the shed submit released its slot

    run(main())


# -- backend fault containment --------------------------------------------


def test_backend_fault_contained_to_internal_reply():
    async def main():
        # Bad session_defaults make every auto-create explode inside
        # the backend; the gateway contains it as an `internal` reply
        # and keeps serving.
        gw = Gateway(Host(), session_defaults={"engine": "no-such-engine"})
        async with gw:
            client = await GatewayClient.connect(gw.host, gw.port)
            try:
                with pytest.raises(Exception) as info:
                    await client.submit("s", "(+ 1 1)")
                assert getattr(info.value, "code", None) == "internal"
                assert await client.ping() is True  # connection survives
                assert gw.quota.inflight == 0  # the slot was released
            finally:
                await client.close()

    run(main())


def test_eval_error_does_not_poison_the_session():
    async def main():
        async with serving() as (_, client):
            with pytest.raises(Exception):
                rid = await client.submit("s", "(+ 1 nope)")
                await client.result(rid)
            assert await client.eval("s", "(+ 1 1)") == "2"

    run(main())
