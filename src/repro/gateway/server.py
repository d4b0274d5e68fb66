"""The :class:`Gateway`: an asyncio front door over a Host or Cluster.

The gateway owns a TCP listener speaking the NDJSON protocol of
:mod:`repro.gateway.protocol` and a *backend* — a
:class:`~repro.host.host.Host` or :class:`~repro.cluster.cluster.Cluster`
— that actually evaluates.  Everything runs on the asyncio thread:

* **Connection handlers** parse frames, admit or shed against the
  :class:`~repro.gateway.quota.QuotaTable`, and call the backend's
  submit, cancel and stats directly.  Host and Cluster are
  synchronous and single-owner (ROADMAP: the machine stays
  synchronous; concurrency lives in the continuation algebra), and
  none of those calls evaluates anything.
* **One driver task** ticks the backend while it has work.  A host
  tick runs bounded quanta, then the driver yields to the loop.  A
  cluster tick never blocks (``tick(0)``); when no shard answered, the
  driver waits until a shard's reply pipe or sentinel is readable or
  a submit arrives.  An idle backend leaves the driver asleep on an
  :class:`asyncio.Event`: no thread, no timer, no polling.

Nobody polls a request either: the gateway subscribes to each handle
at submit (:meth:`~repro.host.handle.Handle.subscribe`), and the
listener hands each reported transition or output delta straight to
the gateway.  The submit ack takes the connection's write lock before
the driver can tick again, so no event frame precedes its ack.

Backpressure is structural: a submit is either *admitted* (counted
against the tenant's and the gateway's inflight caps, token bucket
debited) or *shed* with a ``busy`` reply carrying ``retry_after_ms`` —
including when the backend itself refuses with
:class:`~repro.errors.HostSaturated`.  The gateway never buffers work
it has not admitted, so memory stays bounded no matter the offered
load, and a connection keeps only its last :data:`ANSWERED_WINDOW`
answered requests for a later ``poll`` or ``result``.  See
``docs/SERVING.md`` for the wire contract.
"""

from __future__ import annotations

import asyncio
import itertools
import math
from collections import deque
from time import perf_counter
from typing import Any, Callable

from repro.clock import MONOTONIC
from repro.cluster.cluster import Cluster
from repro.cluster.handle import ClusterHandle
from repro.errors import FrameError, GatewayError, HostSaturated, ShardDied
from repro.gateway.protocol import OPS, decode_frame, encode_frame, error_frame
from repro.gateway.quota import GatewayLimits, QuotaTable
from repro.host.handle import EvalHandle, HandleState
from repro.host.host import Host
from repro.obs.metrics import COUNTER, HISTOGRAM, declare
from repro.obs.recorder import Recorder, as_recorder

__all__ = ["ANSWERED_WINDOW", "GATEWAY_METRICS", "Gateway", "RECOVERY_METRICS"]

#: Answered requests one connection keeps for a later ``poll`` or
#: ``result``; past it the oldest answered one is forgotten.  A request
#: that has not reached a terminal state is never forgotten.
ANSWERED_WINDOW = 256

#: Gateway counters and latencies (``gateway.*`` in ``stats``).  Like
#: everything else in the gateway, they live on the asyncio thread.
GATEWAY_METRICS = declare(
    "gateway",
    [
        ("connections", COUNTER, "connections accepted"),
        ("disconnects", COUNTER, "connections ended, for any reason"),
        ("frames", COUNTER, "client frames parsed"),
        ("submits", COUNTER, "submits admitted to the backend"),
        ("completed", COUNTER, "admitted requests that reached DONE"),
        ("failed", COUNTER, "admitted requests that reached FAILED"),
        ("cancelled", COUNTER, "admitted requests that reached CANCELLED"),
        ("shed", COUNTER, "submits refused with a busy reply"),
        ("protocol_errors", COUNTER, "bad-frame, oversize, unknown-op and invalid replies"),
        ("disconnect_cancels", COUNTER, "requests cancelled because their client left"),
        ("output_events", COUNTER, "streamed session-output event frames sent"),
        ("request_us", HISTOGRAM, "admission to terminal state, per request, in µs"),
        ("result_wait_us", HISTOGRAM, "time a blocking result op waited, in µs"),
    ],
)

#: The failure-transparency counters (``gateway.recovery.*``, the
#: wire-visible contract of docs/SERVING.md).
RECOVERY_METRICS = declare(
    "gateway.recovery",
    [
        ("replays", COUNTER, "terminal answers recovered by snapshot replay"),
        ("failures", COUNTER, "shard deaths answered with recovered: false"),
    ],
)

_gateway_ids = itertools.count()


def _failure_info(exc: BaseException) -> dict[str, str]:
    return {"type": type(exc).__name__, "message": str(exc)}


def _positive(frame: dict[str, Any], key: str, kind: type | tuple[type, ...]) -> Any:
    """``frame[key]`` if it is a positive finite number of ``kind``,
    None if absent; else :class:`_Invalid`.  A JSON ``true`` is not a
    number, and ``NaN`` or ``Infinity`` is no budget."""
    value = frame.get(key)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, kind) or not 0 < value < math.inf:
        noun = "integer" if kind is int else "number"
        raise _Invalid(f"{key!r} must be a positive finite {noun}")
    return value


class _HostBackend:
    """Adapter: a :class:`Host` as a gateway backend; unknown session
    names auto-create a session from ``session_defaults``."""

    def __init__(self, host: Host, session_defaults: dict[str, Any] | None):
        self.host = host
        self.session_defaults = dict(session_defaults or {})
        self.session_defaults.setdefault("prelude", False)

    def submit(
        self,
        session: str,
        source: str,
        *,
        max_steps: int | None,
        deadline: float | None,
        tenant: str | None,
    ) -> EvalHandle:
        if session not in self.host._by_name:
            self.host.session(name=session, **self.session_defaults)
        return self.host.submit(
            session, source, max_steps=max_steps, deadline=deadline, tenant=tenant
        )

    def outcome(self, handle: EvalHandle) -> dict[str, Any]:
        """Terminal payload fields: printed value or failure info."""
        if handle.state is HandleState.DONE:
            from repro.datum.printer import scheme_repr

            values = handle.values
            return {"value": scheme_repr(values[-1]) if values else None}
        exc = handle.exception()
        return {"error": _failure_info(exc) if exc is not None else None}

    def stats(self) -> dict[str, Any]:
        return dict(self.host.stats)

    def histograms(self) -> dict[str, Any]:
        return self.host.histograms()


class _ClusterBackend:
    """Adapter: a :class:`Cluster` as a gateway backend."""

    def __init__(self, cluster: Cluster):
        self.cluster = cluster

    def submit(
        self,
        session: str,
        source: str,
        *,
        max_steps: int | None,
        deadline: float | None,
        tenant: str | None,
    ) -> ClusterHandle:
        return self.cluster.submit_async(
            session, source, max_steps=max_steps, deadline=deadline, tenant=tenant
        )

    def outcome(self, handle: ClusterHandle) -> dict[str, Any]:
        result = handle._result
        if handle.state is HandleState.DONE:
            payload: dict[str, Any] = {
                "value": result.value if result is not None else None
            }
            if result is not None and result.recovered:
                payload["recovered"] = True
            return payload
        if result is not None and not result.ok:
            # In-band shard failure: surface the original error type,
            # not the ClusterEvalError wrapper.
            payload = {
                "error": {
                    "type": result.error_type or "error",
                    "message": result.error or "",
                }
            }
            if result.recovered:
                payload["recovered"] = True
            return payload
        exc = handle.exception()
        payload = {"error": _failure_info(exc) if exc is not None else None}
        if isinstance(exc, ShardDied):
            # A shard died and no snapshot could replay the session:
            # the frame is still answered (failure transparency), but
            # the caller must know the session state is gone.
            payload["recovered"] = False
        return payload

    def stats(self) -> dict[str, Any]:
        return dict(self.cluster.stats)

    def histograms(self) -> dict[str, Any]:
        return self.cluster.histograms()


class _Request:
    """One admitted request, tracked from admission to terminal state."""

    __slots__ = (
        "rid",
        "tenant",
        "stream",
        "conn",
        "handle",
        "admitted_ts",
        "waiters",
        "terminal",
        "released",
    )

    def __init__(self, rid: int, tenant: str | None, stream: bool, conn: "_Connection"):
        self.rid = rid
        self.tenant = tenant
        self.stream = stream
        self.conn: "_Connection | None" = conn
        self.handle: Any = None
        self.admitted_ts = perf_counter()
        self.waiters: list[asyncio.Future] = []  # blocking `result` ops
        self.terminal: dict[str, Any] | None = None  # final state payload
        self.released = False


class _Connection:
    """Per-connection state: the writer plus the requests it owns."""

    __slots__ = ("writer", "requests", "answered", "closed", "lock")

    def __init__(self, writer: asyncio.StreamWriter):
        self.writer = writer
        self.requests: set[int] = set()
        self.answered: deque[int] = deque()  # terminal ids, oldest first
        self.closed = False
        self.lock = asyncio.Lock()  # serialise interleaved writes

    async def send(self, frame: dict[str, Any]) -> None:
        if self.closed:
            return
        try:
            async with self.lock:
                self.writer.write(encode_frame(frame))
                await self.writer.drain()
        except (ConnectionError, RuntimeError):
            self.closed = True


class Gateway:
    """An asyncio NDJSON gateway in front of a Host or Cluster.

    Parameters
    ----------
    backend:
        A :class:`~repro.host.host.Host` or
        :class:`~repro.cluster.cluster.Cluster`.  The gateway drives it
        from the event loop; the caller must not use it while the
        gateway is running.
    host / port:
        Listen address.  ``port=0`` (default) binds an ephemeral port;
        read the bound one from :attr:`port` after :meth:`start`.
    limits:
        The admission envelope (:class:`~repro.gateway.quota.GatewayLimits`).
    session_defaults:
        Host backends only: constructor kwargs for sessions the gateway
        auto-creates on first submit (``prelude=False`` unless
        overridden).  Cluster backends carry their own.
    record:
        Observability: ``True`` builds a fresh
        :class:`~repro.obs.recorder.Recorder`, or pass one; each
        admitted request lands as a ``gateway.request`` complete event
        (admission → terminal state) on the ``gateway`` track.
    clock:
        The monotonic clock for quota/deadline arithmetic (see
        :mod:`repro.clock`).  Injectable so tests can drive token
        refill deterministically; defaults to ``time.monotonic``.
        Latency *measurement* stays on ``perf_counter`` regardless.

    Usage::

        async with Gateway(Host(), port=0) as gw:
            client = await GatewayClient.connect(gw.host, gw.port)
            ...
    """

    def __init__(
        self,
        backend: Host | Cluster,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        limits: GatewayLimits | None = None,
        session_defaults: dict[str, Any] | None = None,
        record: "Recorder | bool | None" = None,
        name: str | None = None,
        clock: Callable[[], float] = MONOTONIC,
    ):
        if isinstance(backend, Host):
            self.backend: Any = _HostBackend(backend, session_defaults)
        elif isinstance(backend, Cluster):
            if session_defaults:
                raise ValueError(
                    "session_defaults belongs to the Cluster constructor "
                    "for cluster backends"
                )
            self.backend = _ClusterBackend(backend)
        else:
            raise TypeError(
                f"backend must be a Host or Cluster, got {type(backend).__name__}"
            )
        self._tier = backend  # both tiers are driven through idle and tick()
        self.name = name if name is not None else f"gateway-{next(_gateway_ids)}"
        self.host = host
        self.port = port
        self.limits = limits if limits is not None else GatewayLimits()
        self.metrics = GATEWAY_METRICS()
        self.recovery = RECOVERY_METRICS()
        self.recorder = as_recorder(record)
        self.quota = QuotaTable(self.limits, clock=clock)
        self._requests: dict[int, _Request] = {}
        self._rids = itertools.count(1)
        self._connections: set[_Connection] = set()
        self._server: asyncio.AbstractServer | None = None
        self._driver: asyncio.Task[None] | None = None
        self._work = asyncio.Event()  # set by a submit or a readable shard
        self._closed = False

    # -- lifecycle -------------------------------------------------------

    async def start(self) -> "Gateway":
        """Bind the listener and start the driver task; returns self."""
        if self._server is not None:
            raise GatewayError(f"gateway {self.name} already started")
        self._server = await asyncio.start_server(
            self._handle_connection,
            self.host,
            self.port,
            limit=self.limits.max_frame_bytes + 1,
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._driver = asyncio.create_task(self._drive(), name=f"{self.name}-driver")
        return self

    async def close(self) -> None:
        """Stop accepting, close every connection and stop the driver
        (idempotent).  The backend object survives and is usable again
        once closed."""
        if self._closed:
            return
        self._closed = True
        if self._server is not None:
            self._server.close()
            for conn in self._connections:
                conn.writer.close()
            await self._server.wait_closed()
        if self._driver is not None:
            self._driver.cancel()
            await asyncio.wait([self._driver])

    async def __aenter__(self) -> "Gateway":
        return await self.start()

    async def __aexit__(self, *exc: Any) -> None:
        await self.close()

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        await self._server.serve_forever()

    # -- the driver task --------------------------------------------------

    async def _drive(self) -> None:
        """Tick the backend while it has work, yielding to the loop
        after each tick; sleep on ``_work`` while it has none.  A
        cluster tick that finished nothing waits for a shard to become
        readable or a submit to arrive."""
        tier = self._tier
        work = self._work
        while True:
            if tier.idle:
                work.clear()
                await work.wait()
            elif isinstance(tier, Host):
                tier.tick()
                await asyncio.sleep(0)
            elif tier.tick(0) or not (waitables := tier.waitables):
                await asyncio.sleep(0)  # a freed or inline shard is ready now
            else:
                await self._readable(waitables)

    async def _readable(self, waitables: list[Any]) -> None:
        """Until one of ``waitables`` is readable or ``_work`` is set."""
        loop = asyncio.get_running_loop()
        fds = [obj if isinstance(obj, int) else obj.fileno() for obj in waitables]
        self._work.clear()
        for fd in fds:
            loop.add_reader(fd, self._work.set)
        try:
            await self._work.wait()
        finally:
            for fd in fds:
                loop.remove_reader(fd)

    # -- state delivery ----------------------------------------------------

    def _on_event(self, req: _Request, state: HandleState | None, text: str) -> None:
        if state is None:
            self._on_output(req, text)
        else:
            self._on_state(req, state)

    def _on_output(self, req: _Request, text: str) -> None:
        """Forward a session-output delta as an ``output`` event frame."""
        conn = req.conn
        if conn is None or conn.closed or req.terminal is not None:
            return
        self.metrics.output_events += 1
        asyncio.ensure_future(
            conn.send({"event": "output", "request": req.rid, "text": text})
        )

    def _on_state(self, req: _Request, state: HandleState) -> None:
        handle = req.handle
        payload: dict[str, Any] = {"state": state.value, "steps": handle.steps}
        if state.terminal:
            payload.update(self.backend.outcome(handle))
            req.terminal = payload
            # The payload is all an answered record needs; dropping the
            # handle also breaks the record -> handle -> listener cycle.
            req.handle = None
            self._finish(req, payload)
        conn = req.conn
        if req.stream and conn is not None and not conn.closed:
            event = {"event": "state", "request": req.rid, **payload}
            asyncio.ensure_future(conn.send(event))
        if state.terminal:
            # `result` ops wait for a terminal state only; intermediate
            # transitions are observable via poll/stream.
            for fut in req.waiters:
                if not fut.done():
                    fut.set_result(payload)
            req.waiters.clear()
            if conn is None or conn.closed:
                # Nobody can ever fetch this result; drop the record.
                self._requests.pop(req.rid, None)
            else:
                self._retire(conn, req.rid)

    def _retire(self, conn: _Connection, rid: int) -> None:
        """Keep an answered record within its connection's window,
        forgetting the oldest answered one past it."""
        conn.answered.append(rid)
        if len(conn.answered) > ANSWERED_WINDOW:
            oldest = conn.answered.popleft()
            conn.requests.discard(oldest)
            self._requests.pop(oldest, None)

    def _finish(self, req: _Request, payload: dict[str, Any]) -> None:
        """Terminal-state accounting: quota release, counters, obs."""
        if req.released:
            return
        req.released = True
        self.quota.release(req.tenant)
        state = payload["state"]
        if state == "done":
            self.metrics.completed += 1
        elif state == "failed":
            self.metrics.failed += 1
        else:
            self.metrics.cancelled += 1
        recovered = payload.get("recovered")
        if recovered is True:
            # A shard died under this request and a snapshot replay on
            # a respawned worker still produced the answer.
            self.recovery.replays += 1
        elif recovered is False:
            self.recovery.failures += 1
        dur = perf_counter() - req.admitted_ts
        self.metrics.request_us.observe(dur * 1e6)
        rec = self.recorder
        if rec is not None and rec.enabled:
            # X-events only: this runs inside a backend tick, which may
            # hold a span open on this same recorder.
            rec.complete(
                "gateway.request",
                req.admitted_ts,
                dur,
                detail=f"{req.tenant or '-'} {state}",
            )

    # -- the connection handler --------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        conn = _Connection(writer)
        self._connections.add(conn)
        self.metrics.connections += 1
        try:
            while True:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    # The line outgrew the stream limit: the connection
                    # is no longer line-synchronised — refuse and close.
                    self.metrics.protocol_errors += 1
                    await conn.send(
                        error_frame(
                            None,
                            "oversize",
                            f"frame exceeds {self.limits.max_frame_bytes} bytes",
                        )
                    )
                    return
                except ConnectionError:
                    return
                if not line:
                    return  # EOF
                if line.strip() == b"":
                    continue
                try:
                    frame = decode_frame(
                        line, max_bytes=self.limits.max_frame_bytes
                    )
                except FrameError as exc:
                    self.metrics.protocol_errors += 1
                    await conn.send(error_frame(None, exc.code, str(exc)))
                    if exc.code == "oversize":
                        return
                    continue
                self.metrics.frames += 1
                await self._dispatch(conn, frame)
        finally:
            conn.closed = True
            self._connections.discard(conn)
            self.metrics.disconnects += 1
            self._abandon(conn)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass

    def _abandon(self, conn: _Connection) -> None:
        """The client left: cancel its non-terminal requests (no leaked
        work) and drop its terminal records (no leaked memory)."""
        for rid in list(conn.requests):
            req = self._requests.get(rid)
            if req is None:
                continue
            if req.terminal is not None:
                self._requests.pop(rid, None)
            else:
                req.conn = None  # events have nowhere to go
                handle = req.handle
                if handle is not None:
                    self.metrics.disconnect_cancels += 1
                    handle.cancel()
        conn.requests.clear()

    async def _dispatch(self, conn: _Connection, frame: dict[str, Any]) -> None:
        fid = frame.get("id")
        op = frame.get("op")
        if op not in OPS:
            self.metrics.protocol_errors += 1
            await conn.send(error_frame(fid, "unknown-op", f"unknown op {op!r}"))
            return
        try:
            if op == "submit":
                await self._op_submit(conn, fid, frame)
            elif op == "poll":
                await self._op_poll(conn, fid, frame)
            elif op == "result":
                await self._op_result(conn, fid, frame)
            elif op == "cancel":
                await self._op_cancel(conn, fid, frame)
            elif op == "stats":
                await self._op_stats(conn, fid)
            else:  # ping
                await conn.send({"id": fid, "ok": True, "pong": True})
        except _Invalid as exc:
            self.metrics.protocol_errors += 1
            await conn.send(error_frame(fid, "invalid", str(exc)))
        except Exception as exc:  # noqa: BLE001 - the connection survives
            await conn.send(error_frame(fid, "internal", f"{type(exc).__name__}: {exc}"))

    # -- ops -------------------------------------------------------------

    async def _op_submit(
        self, conn: _Connection, fid: Any, frame: dict[str, Any]
    ) -> None:
        session = frame.get("session")
        source = frame.get("source")
        if not isinstance(session, str) or not session:
            raise _Invalid("submit needs a non-empty string 'session'")
        if not isinstance(source, str):
            raise _Invalid("submit needs a string 'source'")
        max_steps = _positive(frame, "max_steps", int)
        deadline_ms = _positive(frame, "deadline_ms", (int, float))
        tenant = frame.get("tenant")
        if tenant is not None and not isinstance(tenant, str):
            raise _Invalid("'tenant' must be a string")
        stream = bool(frame.get("stream", False))

        refusal = self.quota.admit(tenant)
        if refusal is not None:
            reason, wait = refusal
            self.metrics.shed += 1
            await conn.send(
                error_frame(
                    fid,
                    "busy",
                    f"gateway {self.name}: {reason} limit reached",
                    retry_after_ms=max(1, int(wait * 1000)),
                )
            )
            return

        rid = next(self._rids)
        req = _Request(rid, tenant, stream, conn)
        deadline = None if deadline_ms is None else deadline_ms / 1000.0
        try:
            req.handle = self.backend.submit(
                session, source, max_steps=max_steps, deadline=deadline, tenant=tenant
            )
        except HostSaturated as exc:
            # The backend itself refused: same shed contract as a
            # quota refusal — structured busy, nothing buffered.
            self.quota.release(tenant)
            self.metrics.shed += 1
            await conn.send(
                error_frame(
                    fid,
                    "busy",
                    str(exc),
                    retry_after_ms=self.limits.retry_after_ms,
                )
            )
            return
        except Exception as exc:  # noqa: BLE001 - contained backend fault
            self.quota.release(tenant)
            await conn.send(
                error_frame(fid, "internal", f"{type(exc).__name__}: {exc}")
            )
            return
        self.metrics.submits += 1
        self._requests[rid] = req
        conn.requests.add(rid)

        def listener(state: HandleState | None, text: str) -> None:
            if stream or (state is not None and state.terminal):
                self._on_event(req, state, text)

        # Registered first, so a handle already terminal here is counted
        # once.  Nothing has awaited since the submit, so the ack below
        # takes the write lock before the driver can tick and before any
        # event frame this listener sends.
        req.handle.subscribe(listener)
        self._work.set()
        await conn.send(
            {"id": fid, "ok": True, "request": rid, "state": HandleState.PENDING.value}
        )

    def _lookup(self, frame: dict[str, Any]) -> _Request:
        rid = frame.get("request")
        req = self._requests.get(rid) if isinstance(rid, int) else None
        if req is None:
            raise _Unknown(f"not tracking request {rid!r}")
        return req

    async def _op_poll(self, conn: _Connection, fid: Any, frame: dict[str, Any]) -> None:
        try:
            req = self._lookup(frame)
        except _Unknown as exc:
            await conn.send(error_frame(fid, "unknown-request", str(exc)))
            return
        if req.terminal is not None:
            payload = req.terminal
        else:
            handle = req.handle
            payload = {"state": handle.state.value, "steps": handle.steps}
        await conn.send({"id": fid, "ok": True, "request": req.rid, **payload})

    async def _op_result(
        self, conn: _Connection, fid: Any, frame: dict[str, Any]
    ) -> None:
        try:
            req = self._lookup(frame)
        except _Unknown as exc:
            await conn.send(error_frame(fid, "unknown-request", str(exc)))
            return
        timeout_ms = _positive(frame, "timeout_ms", (int, float))
        t0 = perf_counter()
        payload = req.terminal
        if payload is None:
            fut: asyncio.Future[dict[str, Any]] = asyncio.get_running_loop().create_future()
            req.waiters.append(fut)
            try:
                timeout = None if timeout_ms is None else timeout_ms / 1000.0
                payload = await asyncio.wait_for(fut, timeout)
            except asyncio.TimeoutError:
                if fut in req.waiters:
                    req.waiters.remove(fut)
                payload = req.terminal  # it may have landed since the timeout
            if payload is None:
                handle = req.handle
                await conn.send(
                    {
                        "id": fid,
                        "ok": True,
                        "request": req.rid,
                        "state": handle.state.value,
                        "steps": handle.steps,
                        "timeout": True,
                    }
                )
                return
        self.metrics.result_wait_us.observe((perf_counter() - t0) * 1e6)
        await conn.send({"id": fid, "ok": True, "request": req.rid, **payload})

    async def _op_cancel(
        self, conn: _Connection, fid: Any, frame: dict[str, Any]
    ) -> None:
        try:
            req = self._lookup(frame)
        except _Unknown as exc:
            await conn.send(error_frame(fid, "unknown-request", str(exc)))
            return
        if req.terminal is not None:
            await conn.send(
                {"id": fid, "ok": True, "request": req.rid, "cancelled": False}
            )
            return
        cancelled = req.handle.cancel()
        await conn.send(
            {"id": fid, "ok": True, "request": req.rid, "cancelled": bool(cancelled)}
        )

    async def _op_stats(self, conn: _Connection, fid: Any) -> None:
        stats = self.backend.stats()
        stats.update(self.stats)
        await conn.send({"id": fid, "ok": True, "stats": stats})

    # -- introspection ---------------------------------------------------

    @property
    def stats(self) -> dict[str, int]:
        """Gateway counters (``gateway.*``); backend stats stay on the
        backend object (or come over the wire via the ``stats`` op)."""
        out = self.metrics.as_dict()
        out.update(self.recovery.as_dict())
        out["gateway.inflight"] = self.quota.inflight
        out["gateway.tracked_requests"] = len(self._requests)
        return out

    def histograms(self) -> dict[str, Any]:
        """Latency distribution summaries, JSON-ready."""
        return self.metrics.histograms()

    def __repr__(self) -> str:
        state = "closed" if self._closed else ("open" if self._server else "new")
        return (
            f"#<gateway {self.name} {self.host}:{self.port} {state} "
            f"inflight={self.quota.inflight}>"
        )


class _Invalid(Exception):
    """A well-formed frame with bad fields (becomes an ``invalid`` reply)."""


class _Unknown(Exception):
    """An unrecognised request id (becomes ``unknown-request``)."""
