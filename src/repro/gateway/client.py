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
"""

from __future__ import annotations

import asyncio
import itertools
from typing import Any, AsyncIterator

from repro.errors import (
    FrameError,
    GatewayBusy,
    GatewayClosed,
    GatewayRequestError,
)
from repro.gateway.protocol import MAX_FRAME_BYTES, decode_frame, encode_frame

__all__ = ["GatewayClient"]


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
            self._closed = True  # so close() returns at once: release the socket here
            self._writer.close()
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
        already verified — refusals raise, see :meth:`_raise_for`).  A
        write on a lost connection raises
        :class:`~repro.errors.GatewayClosed` and closes the client."""
        if self._closed:
            raise GatewayClosed("client is closed")
        fid = next(self._ids)
        frame = {"op": op, "id": fid}
        frame.update((k, v) for k, v in fields.items() if v is not None)
        fut: asyncio.Future[dict[str, Any]] = asyncio.get_running_loop().create_future()
        self._pending[fid] = fut
        if op == "submit" and fields.get("stream"):
            self._streams[fid] = asyncio.Queue()
        try:
            async with self._write_lock:
                self._writer.write(encode_frame(frame))
                await self._writer.drain()
            reply = await fut
        except OSError as exc:  # the write failed; a reply fails as GatewayClosed
            self._closed = True
            if fut.done():
                fut.exception()  # the reader failed it meanwhile: mark it seen
            raise GatewayClosed(f"connection lost: {exc}") from exc
        finally:
            # Failed, cancelled or answered, the call owns no entry now.
            self._pending.pop(fid, None)
            self._streams.pop(fid, None)
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

