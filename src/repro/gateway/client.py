"""An asyncio client for the gateway wire protocol.

:class:`GatewayClient` owns one TCP connection and multiplexes any
number of concurrent requests over it: a background reader task
dispatches replies to per-call futures by frame ``id`` and routes
``stream: true`` events (``state`` transitions and session ``output``
deltas) to per-request queues.  Refusals map back to the same
exception types the in-process frontends raise — ``busy`` becomes
:class:`~repro.errors.GatewayBusy` (a
:class:`~repro.errors.HostSaturated`), so retry loops written against
a local :class:`~repro.host.host.Host` work unchanged against a
remote gateway::

    client = await GatewayClient.connect(gw.host, gw.port)
    rid = await client.submit("alice", "(+ 1 2)")
    assert await client.result(rid) == "3"
    await client.close()

:class:`GatewayClientPool` holds *N* such connections with
auto-reconnect (jittered exponential backoff) and optional *hedged*
evals: when a submit's first attempt has not answered within a
p99-derived delay, a second attempt is launched on a different
connection and the first terminal answer wins — the loser is
cancelled server-side.  Hedging is opt-in per call (or per pool)
because it only suits idempotent sources; see ``docs/SERVING.md``.
"""

from __future__ import annotations

import asyncio
import itertools
import random
from collections import deque
from time import perf_counter
from typing import Any, AsyncIterator

from repro.errors import (
    FrameError,
    GatewayBusy,
    GatewayClosed,
    GatewayRequestError,
)
from repro.gateway.protocol import MAX_FRAME_BYTES, decode_frame, encode_frame

__all__ = ["GatewayClient", "GatewayClientPool"]


def _swallow(task: "asyncio.Future[Any]") -> None:
    """Done-callback that retrieves a fire-and-forget task's outcome so
    asyncio never logs "exception was never retrieved"."""
    if not task.cancelled():
        task.exception()


class GatewayClient:
    """One NDJSON connection to a :class:`~repro.gateway.server.Gateway`.

    All methods are coroutine-safe: many tasks may share one client
    (frame ids disambiguate the replies).  Use
    :meth:`GatewayClient.connect` to build one.
    """

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        *,
        max_frame_bytes: int = MAX_FRAME_BYTES,
    ):
        self._reader = reader
        self._writer = writer
        self._max_frame_bytes = max_frame_bytes
        self._ids = itertools.count(1)
        self._pending: dict[int, asyncio.Future[dict[str, Any]]] = {}
        self._events: dict[int, asyncio.Queue[dict[str, Any]]] = {}
        #: frame id -> event queue of a ``stream`` submit not yet acked.
        self._streams: dict[int, asyncio.Queue[dict[str, Any]]] = {}
        self._write_lock = asyncio.Lock()
        self._closed = False
        self._reader_task = asyncio.ensure_future(self._read_loop())

    @classmethod
    async def connect(
        cls,
        host: str,
        port: int,
        *,
        max_frame_bytes: int = MAX_FRAME_BYTES,
    ) -> "GatewayClient":
        reader, writer = await asyncio.open_connection(
            host, port, limit=max_frame_bytes + 1
        )
        return cls(reader, writer, max_frame_bytes=max_frame_bytes)

    async def close(self) -> None:
        """Close the connection (idempotent); outstanding calls fail
        with :class:`~repro.errors.GatewayClosed`."""
        if self._closed:
            return
        self._closed = True
        self._reader_task.cancel()
        try:
            await self._reader_task
        except (asyncio.CancelledError, Exception):  # noqa: BLE001
            pass
        try:
            self._writer.close()
            await self._writer.wait_closed()
        except (ConnectionError, OSError):
            pass
        self._fail_pending(GatewayClosed("connection closed"))

    async def __aenter__(self) -> "GatewayClient":
        return self

    async def __aexit__(self, *exc: Any) -> None:
        await self.close()

    # -- the reader task -------------------------------------------------

    async def _read_loop(self) -> None:
        try:
            while True:
                line = await self._reader.readline()
                if not line:
                    raise GatewayClosed("server closed the connection")
                frame = decode_frame(line, max_bytes=self._max_frame_bytes)
                if "event" in frame:
                    # Any event kind ("state", "output", future ones)
                    # rides the same per-request queue, in wire order.
                    rid = frame.get("request")
                    queue = self._events.get(rid)
                    if queue is not None:
                        queue.put_nowait(frame)
                    continue
                queue = self._streams.pop(frame.get("id"), None)
                if queue is not None and frame.get("ok"):
                    # A stream submit's events may follow its ack in
                    # the same read: route them from here on.
                    self._events[frame["request"]] = queue
                fut = self._pending.pop(frame.get("id"), None)
                if fut is not None and not fut.done():
                    fut.set_result(frame)
        except asyncio.CancelledError:
            raise
        except Exception as exc:  # noqa: BLE001 - fan the failure out
            self._closed = True
            self._fail_pending(
                exc
                if isinstance(exc, (GatewayClosed, FrameError))
                else GatewayClosed(f"connection lost: {exc}")
            )

    def _fail_pending(self, exc: BaseException) -> None:
        for fut in self._pending.values():
            if not fut.done():
                fut.set_exception(exc)
        self._pending.clear()
        self._streams.clear()
        for queue in self._events.values():
            queue.put_nowait({"event": "state", "state": "lost", "error": str(exc)})

    # -- the call primitive ----------------------------------------------

    async def call(self, op: str, **fields: Any) -> dict[str, Any]:
        """Send one ``op`` frame and await its reply (raw dict, ``ok``
        already verified — refusals raise, see :meth:`_raise_for`)."""
        if self._closed:
            raise GatewayClosed("client is closed")
        fid = next(self._ids)
        frame = {"op": op, "id": fid}
        frame.update((k, v) for k, v in fields.items() if v is not None)
        fut: asyncio.Future[dict[str, Any]] = asyncio.get_running_loop().create_future()
        self._pending[fid] = fut
        if op == "submit" and fields.get("stream"):
            self._streams[fid] = asyncio.Queue()
        async with self._write_lock:
            self._writer.write(encode_frame(frame))
            await self._writer.drain()
        reply = await fut
        if not reply.get("ok", False):
            self._raise_for(reply)
        return reply

    @staticmethod
    def _raise_for(reply: dict[str, Any]) -> None:
        error = reply.get("error") or {}
        code = error.get("code", "internal")
        message = error.get("message", "request refused")
        if code == "busy":
            raise GatewayBusy(
                message,
                retry_after_ms=int(error.get("retry_after_ms", 0)),
            )
        raise GatewayRequestError(message, code=code)

    # -- the shared submit contract --------------------------------------

    async def submit(
        self,
        session: str,
        source: str,
        *,
        max_steps: int | None = None,
        deadline: float | None = None,
        tenant: str | None = None,
        stream: bool = False,
    ) -> int:
        """Submit ``source`` for evaluation on ``session``; returns the
        server's request id.  The keyword surface is the shared submit
        contract (``docs/API.md``); ``deadline`` is seconds, converted
        to ``deadline_ms`` on the wire.  Refused submits raise
        :class:`~repro.errors.GatewayBusy` (sheds, carrying
        ``retry_after_ms``) or :class:`~repro.errors.GatewayRequestError`.

        With ``stream=True`` the server pushes each handle-state
        transition; consume them via :meth:`events`.
        """
        reply = await self.call(
            "submit",
            session=session,
            source=source,
            max_steps=max_steps,
            deadline_ms=None if deadline is None else deadline * 1000.0,
            tenant=tenant,
            stream=True if stream else None,
        )
        return reply["request"]

    async def poll(self, request: int) -> dict[str, Any]:
        """The request's current state: ``{"state": ..., "steps": ...}``
        plus value/error fields once terminal."""
        reply = await self.call("poll", request=request)
        return {k: v for k, v in reply.items() if k not in ("id", "ok", "request")}

    async def result(self, request: int, *, timeout: float | None = None) -> str | None:
        """Block until the request is terminal and return its printed
        value.  Failures raise :class:`~repro.errors.GatewayRequestError`
        with code ``eval-error`` (or ``cancelled``);  an elapsed
        ``timeout`` (seconds) raises :class:`TimeoutError` with the
        request still running."""
        reply = await self.call(
            "result",
            request=request,
            timeout_ms=None if timeout is None else timeout * 1000.0,
        )
        if reply.get("timeout"):
            raise TimeoutError(
                f"request {request} still {reply.get('state')} after {timeout}s"
            )
        state = reply.get("state")
        if state == "done":
            return reply.get("value")
        error = reply.get("error") or {}
        code = "cancelled" if state == "cancelled" else "eval-error"
        raise GatewayRequestError(
            f"request {request} {state}: "
            f"{error.get('type', '?')}: {error.get('message', '')}",
            code=code,
        )

    async def cancel(self, request: int) -> bool:
        """Ask the server to cancel; True if it was still cancellable."""
        reply = await self.call("cancel", request=request)
        return bool(reply.get("cancelled"))

    async def stats(self) -> dict[str, Any]:
        """The combined backend + gateway stats dict."""
        reply = await self.call("stats")
        return reply["stats"]

    async def ping(self) -> bool:
        reply = await self.call("ping")
        return bool(reply.get("pong"))

    async def eval(
        self,
        session: str,
        source: str,
        *,
        max_steps: int | None = None,
        deadline: float | None = None,
        tenant: str | None = None,
        timeout: float | None = None,
    ) -> str | None:
        """Submit + result in one call: the remote analogue of
        ``Interpreter.eval`` (the value comes back printed, as a
        string)."""
        rid = await self.submit(
            session, source, max_steps=max_steps, deadline=deadline, tenant=tenant
        )
        return await self.result(rid, timeout=timeout)

    # -- streaming -------------------------------------------------------

    async def events(self, request: int) -> AsyncIterator[dict[str, Any]]:
        """Yield events for a ``stream=True`` submit — state
        transitions (``"event": "state"``) interleaved with session
        output deltas (``"event": "output"``, carrying ``text``) —
        ending after the terminal state event (``done``/``failed``/
        ``cancelled``; a dropped connection yields a synthetic
        ``lost``).  Output events have no ``state`` key, so they never
        end the iteration."""
        queue = self._events.get(request)
        if queue is None:
            raise GatewayRequestError(
                f"request {request} was not submitted with stream=True",
                code="invalid",
            )
        try:
            while True:
                event = await queue.get()
                yield event
                if event.get("state") in ("done", "failed", "cancelled", "lost"):
                    return
        finally:
            self._events.pop(request, None)


class GatewayClientPool:
    """*N* gateway connections behind one client surface.

    The pool round-robins submits across its connections, transparently
    reconnects a dead one (jittered exponential backoff, so a restarted
    gateway is not stampeded), and can *hedge* idempotent evals: if the
    first attempt has not produced a terminal answer within
    :meth:`hedge_delay` seconds (by default the pool's observed p99 eval
    latency), a second attempt is launched on a *different* connection;
    the first terminal answer wins and the loser is cancelled — locally
    and, fire-and-forget, server-side.  Hedging trades duplicate work
    for tail latency, so it is opt-in (``hedge=True`` on the pool or per
    ``eval`` call) and must only be used for idempotent sources.

    Counters (``client.hedge.*``, ``client.pool.*``) are exposed via
    :meth:`pool_stats`.  Usage::

        pool = await GatewayClientPool.connect(gw.host, gw.port, size=4)
        value = await pool.eval("alice", "(+ 1 2)", hedge=True)
        await pool.close()
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        size: int = 4,
        max_frame_bytes: int = MAX_FRAME_BYTES,
        hedge: bool = False,
        hedge_delay: "float | str" = "auto",
        reconnect_base: float = 0.05,
        reconnect_cap: float = 2.0,
        rng: random.Random | None = None,
    ):
        if size < 1:
            raise ValueError(f"pool size must be >= 1, got {size}")
        self.host = host
        self.port = port
        self.size = size
        self._max_frame_bytes = max_frame_bytes
        self._hedge = hedge
        self._hedge_delay_cfg = hedge_delay
        self._reconnect_base = reconnect_base
        self._reconnect_cap = reconnect_cap
        self._rng = rng if rng is not None else random.Random()
        self._clients: list[GatewayClient | None] = [None] * size
        self._route: dict[int, int] = {}  # request id -> connection slot
        self._latencies: deque[float] = deque(maxlen=512)  # eval round trips, s
        self._rr = itertools.count()
        self._reconnecting: set[int] = set()
        self._closed = False
        self.counters: dict[str, int] = {
            "client.hedge.launched": 0,  # backup attempts actually started
            "client.hedge.wins": 0,  # evals where the backup answered first
            "client.hedge.cancelled": 0,  # loser attempts cancelled server-side
            "client.pool.reconnects": 0,  # connections re-established
        }

    @classmethod
    async def connect(
        cls, host: str, port: int, *, size: int = 4, **kwargs: Any
    ) -> "GatewayClientPool":
        """Open ``size`` connections; fails fast if any refuses."""
        pool = cls(host, port, size=size, **kwargs)
        try:
            for i in range(size):
                pool._clients[i] = await GatewayClient.connect(
                    host, port, max_frame_bytes=pool._max_frame_bytes
                )
        except BaseException:
            await pool.close()
            raise
        return pool

    async def close(self) -> None:
        """Close every connection (idempotent); reconnectors stand down."""
        self._closed = True
        for i, client in enumerate(self._clients):
            self._clients[i] = None
            if client is not None:
                await client.close()

    async def __aenter__(self) -> "GatewayClientPool":
        return self

    async def __aexit__(self, *exc: Any) -> None:
        await self.close()

    # -- connection management -------------------------------------------

    def _mark_dead(self, idx: int) -> None:
        """Retire a connection and start its background reconnector."""
        client = self._clients[idx]
        self._clients[idx] = None
        if client is not None and not client._closed:
            task = asyncio.ensure_future(client.close())
            task.add_done_callback(_swallow)
        if not self._closed and idx not in self._reconnecting:
            self._reconnecting.add(idx)
            asyncio.ensure_future(self._reconnect(idx))

    async def _reconnect(self, idx: int) -> None:
        attempt = 0
        try:
            while not self._closed:
                # Jittered exponential backoff: a herd of pools hitting
                # a restarted gateway spreads out instead of stampeding.
                delay = min(
                    self._reconnect_cap, self._reconnect_base * (2**attempt)
                ) * (0.5 + self._rng.random())
                await asyncio.sleep(delay)
                if self._closed:
                    return
                try:
                    client = await GatewayClient.connect(
                        self.host, self.port, max_frame_bytes=self._max_frame_bytes
                    )
                except (ConnectionError, OSError):
                    attempt += 1
                    continue
                if self._closed:
                    await client.close()
                    return
                self._clients[idx] = client
                self.counters["client.pool.reconnects"] += 1
                return
        finally:
            self._reconnecting.discard(idx)

    async def _acquire(self, avoid: int | None = None) -> tuple[int, GatewayClient]:
        """A live connection, round-robin; prefers slots != ``avoid``
        (hedging wants connection diversity) but will reuse it rather
        than fail.  Naps while every slot is mid-reconnect."""
        while True:
            if self._closed:
                raise GatewayClosed("pool is closed")
            for _ in range(self.size):
                idx = next(self._rr) % self.size
                if idx == avoid:
                    continue
                client = self._clients[idx]
                if client is None:
                    continue
                if client._closed:
                    self._mark_dead(idx)
                    continue
                return idx, client
            if avoid is not None:
                avoid = None  # a shared connection beats no connection
                continue
            await asyncio.sleep(0.01)

    # -- the client surface ----------------------------------------------

    async def submit(
        self,
        session: str,
        source: str,
        *,
        max_steps: int | None = None,
        deadline: float | None = None,
        tenant: str | None = None,
        stream: bool = False,
    ) -> int:
        """The shared submit contract over whichever connection is
        next; connection failures retry on another (``busy`` sheds
        propagate — backpressure is the caller's signal, not ours)."""
        rid, _ = await self._submit_routed(
            session,
            source,
            max_steps=max_steps,
            deadline=deadline,
            tenant=tenant,
            stream=stream,
        )
        return rid

    async def _submit_routed(
        self,
        session: str,
        source: str,
        *,
        max_steps: int | None,
        deadline: float | None,
        tenant: str | None,
        stream: bool = False,
        avoid: int | None = None,
        box: dict[str, int] | None = None,
    ) -> tuple[int, int]:
        last_exc: BaseException | None = None
        for _ in range(self.size + 1):
            idx, client = await self._acquire(avoid=avoid)
            if box is not None:
                # Publish the slot *before* the submit round-trip: a
                # hedging caller must know which connection to avoid
                # even while this submit is still in flight on a slow
                # one (that slow reply is exactly why it is hedging).
                box["idx"] = idx
                box.pop("rid", None)
            try:
                rid = await client.submit(
                    session,
                    source,
                    max_steps=max_steps,
                    deadline=deadline,
                    tenant=tenant,
                    stream=stream,
                )
            except (GatewayBusy, GatewayRequestError):
                raise
            except (GatewayClosed, ConnectionError, OSError) as exc:
                last_exc = exc
                self._mark_dead(idx)
                continue
            self._route[rid] = idx
            if box is not None:
                box["rid"] = rid
            return rid, idx
        raise last_exc if last_exc is not None else GatewayClosed(
            "no gateway connection available"
        )

    def _client_for(self, request: int) -> GatewayClient:
        """The connection a request was submitted on (request ids are
        per-gateway, but the server drops a request's record when its
        submitting connection dies, so cross-connection lookups are
        best-effort only)."""
        idx = self._route.get(request)
        if idx is not None:
            client = self._clients[idx]
            if client is not None and not client._closed:
                return client
        for client in self._clients:
            if client is not None and not client._closed:
                return client
        raise GatewayClosed(f"no live connection for request {request}")

    async def poll(self, request: int) -> dict[str, Any]:
        return await self._client_for(request).poll(request)

    async def result(self, request: int, *, timeout: float | None = None) -> str | None:
        client = self._client_for(request)
        try:
            value = await client.result(request, timeout=timeout)
        except TimeoutError:
            raise  # still running: keep the route for the retry
        except GatewayRequestError:
            self._route.pop(request, None)
            raise
        self._route.pop(request, None)
        return value

    async def cancel(self, request: int) -> bool:
        return await self._client_for(request).cancel(request)

    async def stats(self) -> dict[str, Any]:
        """Server-side stats (via any live connection) merged with the
        pool's own ``client.*`` counters."""
        _, client = await self._acquire()
        stats = await client.stats()
        stats.update(self.pool_stats())
        return stats

    def pool_stats(self) -> dict[str, int]:
        out = dict(self.counters)
        out["client.pool.size"] = self.size
        out["client.pool.live"] = sum(
            1 for c in self._clients if c is not None and not c._closed
        )
        return out

    async def ping(self) -> bool:
        _, client = await self._acquire()
        return await client.ping()

    # -- hedged eval ------------------------------------------------------

    def hedge_delay(self) -> float:
        """Seconds to wait before launching the backup attempt: the
        configured float, or (``"auto"``) the pool's observed p99 eval
        latency — 50ms until 16 samples exist, never below 1ms."""
        cfg = self._hedge_delay_cfg
        if cfg != "auto":
            return float(cfg)
        if len(self._latencies) < 16:
            return 0.05
        ordered = sorted(self._latencies)
        p99 = ordered[min(len(ordered) - 1, int(0.99 * len(ordered)))]
        return max(0.001, p99)

    async def eval(
        self,
        session: str,
        source: str,
        *,
        max_steps: int | None = None,
        deadline: float | None = None,
        tenant: str | None = None,
        timeout: float | None = None,
        hedge: bool | None = None,
    ) -> str | None:
        """Submit + result, with optional hedging (``hedge=None`` uses
        the pool default).  Only hedge idempotent sources: a hedged
        eval may execute twice."""
        use_hedge = self._hedge if hedge is None else hedge
        kwargs = dict(
            max_steps=max_steps, deadline=deadline, tenant=tenant, timeout=timeout
        )
        if not use_hedge:
            return await self._eval_once(session, source, **kwargs)
        return await self._eval_hedged(session, source, **kwargs)

    async def _eval_once(
        self,
        session: str,
        source: str,
        *,
        max_steps: int | None,
        deadline: float | None,
        tenant: str | None,
        timeout: float | None,
        avoid: int | None = None,
        box: dict[str, int] | None = None,
    ) -> str | None:
        """One submit+result attempt, retrying connection loss (the
        server cancels a dead connection's requests, so a resubmit
        cannot double-execute).  ``box`` publishes the live attempt's
        ``rid``/``idx`` so a hedging caller can cancel the loser."""
        last_exc: BaseException | None = None
        for _ in range(self.size + 1):
            t0 = perf_counter()
            rid, idx = await self._submit_routed(
                session,
                source,
                max_steps=max_steps,
                deadline=deadline,
                tenant=tenant,
                avoid=avoid,
                box=box,
            )
            client = self._clients[idx]
            if client is None or client._closed:
                self._route.pop(rid, None)
                continue
            try:
                value = await client.result(rid, timeout=timeout)
            except (GatewayClosed, ConnectionError, OSError) as exc:
                last_exc = exc
                self._mark_dead(idx)
                self._route.pop(rid, None)
                if box is not None:
                    box.pop("rid", None), box.pop("idx", None)
                continue
            self._route.pop(rid, None)
            self._latencies.append(perf_counter() - t0)
            return value
        raise last_exc if last_exc is not None else GatewayClosed(
            "no gateway connection available"
        )

    async def _eval_hedged(self, session: str, source: str, **kwargs: Any) -> str | None:
        primary_box: dict[str, int] = {}
        backup_box: dict[str, int] = {}
        primary = asyncio.ensure_future(
            self._eval_once(session, source, box=primary_box, **kwargs)
        )
        done, _ = await asyncio.wait({primary}, timeout=self.hedge_delay())
        if done:
            return primary.result()
        self.counters["client.hedge.launched"] += 1
        backup = asyncio.ensure_future(
            self._eval_once(
                session,
                source,
                avoid=primary_box.get("idx"),
                box=backup_box,
                **kwargs,
            )
        )
        pending = {primary, backup}
        failures: list[BaseException] = []
        try:
            while pending:
                done, pending = await asyncio.wait(
                    pending, return_when=asyncio.FIRST_COMPLETED
                )
                for task in done:
                    exc = task.exception()
                    if exc is not None:
                        failures.append(exc)
                        continue
                    # First clean terminal answer wins.
                    if task is backup:
                        self.counters["client.hedge.wins"] += 1
                    for loser in pending:
                        loser.cancel()
                    self._abort_attempt(
                        primary_box if task is backup else backup_box
                    )
                    return task.result()
            raise failures[0]
        finally:
            for task in (primary, backup):
                if not task.done():
                    task.cancel()
                task.add_done_callback(_swallow)

    def _abort_attempt(self, box: dict[str, int]) -> None:
        """Fire-and-forget server-side cancel of a losing hedge
        attempt — never awaited inline, so a wedged loser connection
        cannot stall the winning answer."""
        rid = box.get("rid")
        idx = box.get("idx")
        if rid is None:
            return
        self._route.pop(rid, None)
        client = self._clients[idx] if idx is not None else None
        if client is not None and not client._closed:
            self.counters["client.hedge.cancelled"] += 1
            task = asyncio.ensure_future(client.cancel(rid))
            task.add_done_callback(_swallow)
