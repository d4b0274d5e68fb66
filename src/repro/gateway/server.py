"""The :class:`Gateway`: an asyncio front door over a Host or Cluster.

The gateway owns a TCP listener speaking the NDJSON protocol of
:mod:`repro.gateway.protocol` and a *backend* — a
:class:`~repro.host.host.Host` or :class:`~repro.cluster.cluster.Cluster`
— that actually evaluates.  The split of work between threads is the
whole design:

* **The asyncio thread** owns every socket, the request registry, the
  admission state (:class:`~repro.gateway.quota.QuotaTable`) and the
  metrics.  Connection handlers parse frames, admit or shed, and await
  futures.  Nothing here ever blocks on evaluation.
* **The pump thread** owns the backend.  The host tier is deliberately
  synchronous and not thread-safe (ROADMAP: the machine stays
  synchronous; concurrency lives in the continuation algebra), so all
  backend calls — submit, cancel, stats, ``host.tick()`` — run here,
  fed by a command queue.  Between commands it ticks a Host backend
  while the host has work; otherwise it blocks on the queue.  A Cluster
  backend brings its own dispatcher thread, so its pump only runs
  commands.

Nobody polls a request: the gateway subscribes to each handle at
submit (:meth:`~repro.host.handle.Handle.subscribe`), and the listener
marshals each reported transition or output delta to the loop, which
holds them until the submit ack is written.

Backpressure is structural: a submit is either *admitted* (counted
against the tenant's and the gateway's inflight caps, token bucket
debited) or *shed* with a ``busy`` reply carrying ``retry_after_ms`` —
including when the backend itself refuses with
:class:`~repro.errors.HostSaturated`.  The gateway never buffers work
it has not admitted, so memory stays bounded no matter the offered
load.  See ``docs/SERVING.md`` for the wire contract and
``benchmarks/bench_gateway.py`` for the overload harness.
"""

from __future__ import annotations

import asyncio
import itertools
import queue as queue_mod
import threading
from time import perf_counter
from typing import Any, Callable

from repro.clock import MONOTONIC
from repro.cluster.cluster import Cluster
from repro.cluster.handle import ClusterHandle
from repro.errors import FrameError, GatewayError, HostSaturated, ShardDied
from repro.gateway.metrics import GatewayMetrics
from repro.gateway.protocol import OPS, decode_frame, encode_frame, error_frame
from repro.gateway.quota import GatewayLimits, QuotaTable
from repro.host.handle import EvalHandle, HandleState
from repro.host.host import Host
from repro.obs.recorder import Recorder

__all__ = ["Gateway"]

_gateway_ids = itertools.count()


def _failure_info(exc: BaseException) -> dict[str, str]:
    return {"type": type(exc).__name__, "message": str(exc)}


class _HostBackend:
    """Adapter: a :class:`Host` as a gateway backend.  Every method
    runs on the pump thread (the host is not thread-safe); unknown
    session names auto-create a session from ``session_defaults``."""

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
    """Adapter: a :class:`Cluster` as a gateway backend.  The cluster
    front is thread-safe (its own dispatcher thread does the blocking
    shard round-trips), so the pump thread only forwards commands."""

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
        "held",
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
        # Events that arrived before the submit ack was written (then None).
        self.held: list[tuple[HandleState | None, str]] | None = []
        self.admitted_ts = perf_counter()
        self.waiters: list[asyncio.Future] = []  # blocking `result` ops
        self.terminal: dict[str, Any] | None = None  # final state payload
        self.released = False


class _Connection:
    """Per-connection state: the writer plus the requests it owns."""

    __slots__ = ("writer", "requests", "closed", "lock")

    def __init__(self, writer: asyncio.StreamWriter):
        self.writer = writer
        self.requests: set[int] = set()
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
        from a dedicated pump thread; the caller must not use it
        concurrently while the gateway is running.
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
        self.name = name if name is not None else f"gateway-{next(_gateway_ids)}"
        self.host = host
        self.port = port
        self.limits = limits if limits is not None else GatewayLimits()
        self.metrics = GatewayMetrics()
        if record is True:
            self.recorder: Recorder | None = Recorder()
        elif record is False:
            self.recorder = None
        else:
            self.recorder = record
        self.quota = QuotaTable(self.limits, clock=clock)
        self._requests: dict[int, _Request] = {}
        self._rids = itertools.count(1)
        self._server: asyncio.AbstractServer | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._cmds: queue_mod.Queue[Callable[[], None] | None] = queue_mod.Queue()
        self._pump: threading.Thread | None = None
        self._closed = False

    # -- lifecycle -------------------------------------------------------

    async def start(self) -> "Gateway":
        """Bind the listener and start the pump thread; returns self."""
        if self._server is not None:
            raise GatewayError(f"gateway {self.name} already started")
        self._loop = asyncio.get_running_loop()
        self._server = await asyncio.start_server(
            self._handle_connection,
            self.host,
            self.port,
            limit=self.limits.max_frame_bytes + 1,
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._pump = threading.Thread(
            target=self._pump_loop, name=f"{self.name}-pump", daemon=True
        )
        self._pump.start()
        return self

    async def close(self) -> None:
        """Stop accepting, drop connections, stop the pump thread
        (idempotent).  The backend object survives and is usable again
        once closed."""
        if self._closed:
            return
        self._closed = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        self._cmds.put(None)
        if self._pump is not None:
            await asyncio.get_running_loop().run_in_executor(None, self._pump.join)

    async def __aenter__(self) -> "Gateway":
        return await self.start()

    async def __aexit__(self, *exc: Any) -> None:
        await self.close()

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        await self._server.serve_forever()

    # -- the pump thread -------------------------------------------------

    def _pump_loop(self) -> None:
        """Run commands as they come.  While a Host backend has work,
        drain the queue without blocking and tick the host between
        drains; otherwise block until the next command."""
        host = self.backend.host if isinstance(self.backend, _HostBackend) else None
        while True:
            busy = host is not None and not host.idle
            try:
                command = self._cmds.get(block=not busy)
            except queue_mod.Empty:
                host.tick()  # type: ignore[union-attr]  # busy implies a host
                continue
            if command is None:
                return
            command()

    def _call_soon(self, fn: Callable[..., None], *args: Any) -> None:
        loop = self._loop
        if loop is not None and not loop.is_closed():
            try:
                loop.call_soon_threadsafe(fn, *args)
            except RuntimeError:  # pragma: no cover - loop shut down
                pass

    def _run_on_pump(self, fn: Callable[[], Any]) -> "asyncio.Future[Any]":
        """Run ``fn`` on the pump thread; resolve an asyncio future
        with its result (or exception) back on the loop."""
        assert self._loop is not None
        fut: asyncio.Future[Any] = self._loop.create_future()

        def command() -> None:
            try:
                result = fn()
            except BaseException as exc:  # noqa: BLE001 - marshalled
                self._call_soon(self._settle, fut, None, exc)
            else:
                self._call_soon(self._settle, fut, result, None)

        self._cmds.put(command)
        return fut

    @staticmethod
    def _settle(
        fut: "asyncio.Future[Any]", result: Any, exc: BaseException | None
    ) -> None:
        if fut.cancelled():
            return
        if exc is not None:
            fut.set_exception(exc)
        else:
            fut.set_result(result)

    # -- state delivery (loop thread) ------------------------------------

    def _on_event(self, req: _Request, state: HandleState | None, text: str) -> None:
        if req.held is not None:
            req.held.append((state, text))  # the submit ack is not out yet
        elif state is None:
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
            self.metrics.recovery_replays += 1
        elif recovered is False:
            self.metrics.recovery_failures += 1
        dur = perf_counter() - req.admitted_ts
        self.metrics.request_us.observe(dur * 1e6)
        rec = self.recorder
        if rec is not None and rec.enabled:
            # X-events only: the pump thread shares this recorder, so
            # the gateway never touches the (thread-unsafe) span stack.
            rec.complete(
                "gateway.request",
                req.admitted_ts,
                dur,
                detail=f"{req.tenant or '-'} {state}",
            )

    # -- the connection handler (loop thread) ----------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        conn = _Connection(writer)
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
                    self._cmds.put(handle.cancel)
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
        max_steps = frame.get("max_steps")
        if max_steps is not None and (not isinstance(max_steps, int) or max_steps <= 0):
            raise _Invalid("'max_steps' must be a positive integer")
        deadline_ms = frame.get("deadline_ms")
        if deadline_ms is not None and (
            not isinstance(deadline_ms, (int, float)) or deadline_ms <= 0
        ):
            raise _Invalid("'deadline_ms' must be a positive number")
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

        def listener(state: HandleState | None, text: str) -> None:
            # Runs on whichever thread moved the handle: only marshal.
            if stream or (state is not None and state.terminal):
                self._call_soon(self._on_event, req, state, text)

        def _do_submit() -> Any:
            # Subscribed before a Host backend can tick it; a Cluster
            # request may have moved already, and reports where it is.
            handle = self.backend.submit(
                session,
                source,
                max_steps=max_steps,
                deadline=deadline,
                tenant=tenant,
            )
            handle.subscribe(listener)
            return handle

        try:
            req.handle = await self._run_on_pump(_do_submit)
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
        try:
            await conn.send(
                {"id": fid, "ok": True, "request": rid, "state": HandleState.PENDING.value}
            )
        finally:  # release what the handle reported meanwhile, in order
            held, req.held = req.held, None
            for state, text in held:
                self._on_event(req, state, text)

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
        timeout_ms = frame.get("timeout_ms")
        if timeout_ms is not None and (
            not isinstance(timeout_ms, (int, float)) or timeout_ms <= 0
        ):
            raise _Invalid("'timeout_ms' must be a positive number")
        t0 = perf_counter()
        payload = req.terminal
        if payload is None:
            assert self._loop is not None
            fut: asyncio.Future[dict[str, Any]] = self._loop.create_future()
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
        handle = req.handle
        cancelled = await self._run_on_pump(handle.cancel)
        await conn.send(
            {"id": fid, "ok": True, "request": req.rid, "cancelled": bool(cancelled)}
        )

    async def _op_stats(self, conn: _Connection, fid: Any) -> None:
        backend_stats = await self._run_on_pump(self.backend.stats)
        stats = dict(backend_stats)
        stats.update(self.metrics.as_dict())
        stats["gateway.inflight"] = self.quota.inflight
        await conn.send({"id": fid, "ok": True, "stats": stats})

    # -- introspection ---------------------------------------------------

    @property
    def stats(self) -> dict[str, int]:
        """Gateway counters (``gateway.*``); backend stats stay on the
        backend object (or come over the wire via the ``stats`` op)."""
        out = self.metrics.as_dict()
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
