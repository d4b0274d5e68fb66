"""Shard workers: one :class:`~repro.host.host.Host` per OS process.

A shard is deliberately dumb.  It holds live sessions, evaluates
requests against them, and after every completed request hands the
front a fresh snapshot of the session it touched.  All placement,
persistence and recovery intelligence lives in the front
(:mod:`repro.cluster.cluster`); a shard can be SIGKILLed at any moment
and the cluster loses at most the requests in flight on it — everything
else rehydrates from the front's snapshot store, except a session whose
last snapshot failed, which has no stored state to replay.

The same request-handling logic (:class:`ShardRuntime`) backs both the
worker process loop (:func:`shard_main`) and the cluster's in-process
``workers=0`` mode, so inline tests exercise exactly the code the
processes run.

Everything crossing the pipes is picklable by construction: command
tuples of scalars/bytes, and reply dicts of scalars/bytes.  Evaluated
values cross as their printed representation — live machine values
(closures, continuations, placeholders) never leave the shard except
inside a snapshot blob.
"""

from __future__ import annotations

from time import perf_counter
from typing import Any

from repro.errors import ReproError, SnapshotError
from repro.host.host import Host
from repro.host.session import Session

__all__ = ["ShardRuntime", "shard_main"]


class ShardRuntime:
    """The shard-side request handler: a Host plus the snapshot
    choreography around each evaluation."""

    def __init__(self, index: int):
        self.index = index
        self.host = Host(name=f"shard-{index}")

    # -- operations ------------------------------------------------------

    def handle(self, op: str, payload: dict[str, Any]) -> dict[str, Any]:
        """Execute one command; returns a picklable reply dict.
        Evaluation failures are reported in-band (``status: "error"``);
        only infrastructure bugs raise."""
        if op == "submit":
            return self._submit(payload)
        if op == "evict":
            return self._snapshot_op(payload, evict=True)
        if op == "snapshot":
            return self._snapshot_op(payload, evict=False)
        if op == "ping":
            return {"sessions": sorted(s.name for s in self.host)}
        if op == "stats":
            return {
                "host": self.host.stats,
                "sessions": self.host.session_stats(),
            }
        raise ValueError(f"shard {self.index}: unknown op {op!r}")

    def _session_for(self, payload: dict[str, Any]) -> tuple[Session, dict[str, Any]]:
        """The resident session for this request, rehydrating from the
        provided blob or creating it fresh; second element carries
        restore timing for the front's histograms."""
        session_id = payload["session_id"]
        info: dict[str, Any] = {"restored": False, "restore_us": 0.0}
        try:
            return self.host[session_id], info
        except KeyError:
            pass
        blob = payload.get("blob")
        if blob is not None:
            t0 = perf_counter()
            session = Session.restore(blob, name=session_id)
            info["restored"] = True
            info["restore_us"] = (perf_counter() - t0) * 1e6
        else:
            kwargs = payload.get("session_kwargs") or {}
            session = Session(name=session_id, **kwargs)
        self.host.add_session(session)
        return session, info

    def _submit(self, payload: dict[str, Any]) -> dict[str, Any]:
        session, info = self._session_for(payload)
        output_before = len(session.output.parts)
        reply: dict[str, Any] = {
            "session_id": session.name,
            "shard": self.index,
            "restored": info["restored"],
            "restore_us": info["restore_us"],
        }
        try:
            handle = self.host.submit(
                session,
                payload["source"],
                max_steps=payload.get("max_steps"),
                deadline=payload.get("deadline"),
            )
            while not handle.done():
                self.host.tick()
            reply["steps"] = handle.steps
            if handle.exception() is not None:
                exc = handle.exception()
                reply["status"] = "error"
                reply["error_type"] = type(exc).__name__
                reply["error"] = str(exc)
            else:
                reply["status"] = "ok"
                from repro.datum.printer import scheme_repr

                values = handle.values
                reply["value"] = scheme_repr(values[-1]) if values else None
        except ReproError as exc:
            # Session-fatal faults (lifetime budget, snapshot problems):
            # still in-band — the shard itself is healthy.
            reply["status"] = "error"
            reply["error_type"] = type(exc).__name__
            reply["error"] = str(exc)
            reply.setdefault("steps", 0)
        reply["output"] = "".join(session.output.parts[output_before:])
        self._attach_snapshot(reply, session)
        return reply

    def _attach_snapshot(self, reply: dict[str, Any], session: Session) -> None:
        """Snapshot-on-idle: every reply carries the session's fresh
        blob, or ``snapshot_error`` when the session cannot be
        snapshotted; the front then never keeps an older blob as the
        session's state."""
        try:
            t0 = perf_counter()
            blob = session.snapshot()
            reply["snapshot"] = blob
            reply["snapshot_us"] = (perf_counter() - t0) * 1e6
        except SnapshotError as exc:
            reply["snapshot"] = None
            reply["snapshot_error"] = str(exc)

    def _snapshot_op(self, payload: dict[str, Any], *, evict: bool) -> dict[str, Any]:
        """Snapshot a resident session for the front to persist; with
        ``evict``, also drop it from shard memory (a later submit
        rehydrates it anywhere) — unless the snapshot failed, which
        keeps it resident."""
        session_id = payload["session_id"]
        try:
            session = self.host[session_id]
        except KeyError:
            return {"session_id": session_id, "resident": False, "snapshot": None}
        reply: dict[str, Any] = {"session_id": session_id, "resident": True}
        self._attach_snapshot(reply, session)
        if evict and reply["snapshot"] is not None:
            self.host.remove_session(session)
        return reply


def shard_main(index: int, commands: Any, replies: Any) -> None:
    """Worker-process entry point: serve commands until ``shutdown``
    or end-of-file, over the worker's ends of two one-way pipes.

    Commands are ``(op, payload)``; replies are ``("ok", reply_dict)``
    or ``("err", repr(exception))`` (``shutdown`` gets none).  Only
    infrastructure failures take the ``err`` shape — evaluation errors
    ride inside an ``ok`` reply's ``status`` field.
    """
    runtime = ShardRuntime(index)
    while True:
        try:
            op, payload = commands.recv()
        except EOFError:
            return
        if op == "shutdown":
            return
        try:
            reply = runtime.handle(op, payload)
        except BaseException as exc:  # noqa: BLE001 - must not kill the loop
            replies.send(("err", f"{type(exc).__name__}: {exc}"))
        else:
            replies.send(("ok", reply))
