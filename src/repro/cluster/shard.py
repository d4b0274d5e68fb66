"""Shard workers: one :class:`~repro.host.host.Host` per OS process.

A shard is deliberately dumb.  It holds live sessions and evaluates
requests against them.  Each reply carries a *log entry* for the
request it answers: its source, budget, steps taken, outcome and the
uid streams' positions when it started.  The shard snapshots a session
only when the front asks — to evict or migrate it, on ``snapshot_now``,
and for a checkpoint, which rides as a flag on a submit — or when a
request cannot be replayed exactly (a deadline that cut an engine's fuel
run short mid-step).  All placement, persistence and recovery
intelligence lives in the front (:mod:`repro.cluster.cluster`); a shard
can be SIGKILLed at any moment and the cluster loses at most the
requests in flight on it.  Every other session comes back on any shard
from its last checkpoint (or its creation kwargs) plus its logged
requests, which :meth:`ShardRuntime._replay` re-runs — except a session
whose last snapshot failed, which has no replay point.  A reply also
says how long its request ran and, after a rebuild, how long the replay
took: the front weighs both against a checkpoint's cost.

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

import json
from time import perf_counter
from typing import Any

from repro.datum.printer import scheme_repr
from repro.errors import DeadlineExceeded, ReproError, SnapshotError
from repro.host.host import Host
from repro.host.session import Session
from repro.snapshot.codec import uid_streams

__all__ = ["ShardRuntime", "shard_main"]

#: A request stopped by its deadline after N steps leaves the state a
#: budget of N leaves, so a replay may end either way.
_INTERRUPTED = {"DeadlineExceeded": "StepBudgetExceeded"}


class ShardRuntime:
    """The shard-side request handler: a Host plus the log and snapshot
    choreography around each evaluation."""

    def __init__(self, index: int):
        self.index = index
        self.host = Host(name=f"shard-{index}")
        self._streams = uid_streams()

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

    def _session_for(self, payload: dict[str, Any]) -> tuple[Session | None, dict[str, Any]]:
        """The resident session for this request, or one rehydrated from
        the provided blob (or created fresh) with the provided log
        replayed onto it.  The second element is the reply's start: the
        session's id, this shard, and restore and replay facts for the
        front.  The session is None when the log did not replay."""
        session_id = payload["session_id"]
        reply: dict[str, Any] = {"session_id": session_id, "shard": self.index}
        try:
            return self.host[session_id], reply
        except KeyError:
            pass
        blob = payload.get("blob")
        if blob is not None:
            t0 = perf_counter()
            session = Session.restore(blob, name=session_id)
            reply["restored"] = True
            reply["restore_us"] = (perf_counter() - t0) * 1e6
        else:
            kwargs = payload.get("session_kwargs") or {}
            session = Session(name=session_id, **kwargs)
        self.host.add_session(session)
        records = payload.get("replay") or ()
        reply["replayed"] = len(records)
        t0 = perf_counter()
        error = self._replay(session, records)
        reply["replay_us"] = (perf_counter() - t0) * 1e6
        if error is not None:
            self.host.remove_session(session)
            reply["replay_error"] = error
            return None, reply
        return session, reply

    def _run(
        self, session: Session, source: str, max_steps: int | None, deadline: float | None
    ) -> tuple[int, str | None, BaseException | None]:
        """Evaluate one request to completion: (steps, printed value of
        the last form, failure)."""
        try:
            handle = self.host.submit(session, source, max_steps=max_steps, deadline=deadline)
            while not handle.done():
                self.host.tick()
        except ReproError as exc:
            # A request the frontend refuses (a reader or expansion
            # error): still in-band — the shard itself is healthy.
            return 0, None, exc
        exc = handle.exception()
        values = handle.values
        value = scheme_repr(values[-1]) if exc is None and values else None
        return handle.steps, value, exc

    def _replay(self, session: Session, records: Any) -> str | None:
        """Re-run each logged request on ``session``: its budget is the
        steps it took, with no deadline, and each uid stream starts
        where it did, so gensym names and the like come out the same.
        Returns how the first one that did not end with its logged steps
        and outcome diverged, or None.  Afterwards no stream is below
        where it was, so uids this process handed out stay unused."""
        streams = self._streams
        floor = [stream.peek() for stream in streams]
        try:
            for record in records:
                source, _, steps, starts, status, outcome = json.loads(record)
                for stream, start in zip(streams, starts):
                    stream.reset(start)
                got_steps, value, exc = self._run(session, source, steps, None)
                got = ("ok", value) if exc is None else ("error", type(exc).__name__)
                if status == "error":
                    outcome = _INTERRUPTED.get(outcome, outcome)
                if (got_steps, got) != (steps, (status, outcome)):
                    return (
                        f"replay of {source!r} ended {got[1]} after {got_steps} steps, "
                        f"logged {outcome} after {steps}"
                    )
        finally:
            for stream, low in zip(streams, floor):
                stream.advance(low)
        return None

    def _submit(self, payload: dict[str, Any]) -> dict[str, Any]:
        session, reply = self._session_for(payload)
        if session is None:
            return reply
        output_before = len(session.output.parts)
        source = payload["source"]
        max_steps = payload.get("max_steps")
        starts = [stream.peek() for stream in self._streams]
        t0 = perf_counter()
        steps, value, exc = self._run(session, source, max_steps, payload.get("deadline"))
        reply["run_us"] = (perf_counter() - t0) * 1e6
        reply["steps"] = steps
        if exc is None:
            reply["status"] = "ok"
            reply["value"] = value
            outcome = value
        else:
            reply["status"] = "error"
            reply["error_type"] = outcome = type(exc).__name__
            reply["error"] = str(exc)
        reply["output"] = "".join(session.output.parts[output_before:])
        mid_step = isinstance(exc, DeadlineExceeded) and exc.mid_step
        if payload.get("checkpoint") or mid_step:
            self._attach_snapshot(reply, session)
        else:
            entry = [source, max_steps, steps, starts, reply["status"], outcome]
            reply["entry"] = json.dumps(entry, separators=(",", ":")).encode()
        return reply

    def _attach_snapshot(self, reply: dict[str, Any], session: Session) -> None:
        """Put the session's fresh blob in the reply, or
        ``snapshot_error`` when the session cannot be snapshotted."""
        try:
            t0 = perf_counter()
            blob = session.snapshot()
            reply["snapshot"] = blob
            reply["snapshot_us"] = (perf_counter() - t0) * 1e6
        except SnapshotError as exc:
            reply["snapshot"] = None
            reply["snapshot_error"] = str(exc)

    def _snapshot_op(self, payload: dict[str, Any], *, evict: bool) -> dict[str, Any]:
        """Snapshot a session for the front to persist — a resident one,
        or one the payload rehydrates; with ``evict``, also drop it from
        shard memory (a later submit rehydrates it anywhere) — unless
        the snapshot failed, which keeps it resident."""
        session_id = payload["session_id"]
        if "replay" not in payload:
            try:
                self.host[session_id]
            except KeyError:
                return {"session_id": session_id, "resident": False, "snapshot": None}
        session, reply = self._session_for(payload)
        if session is None:
            return reply
        reply["resident"] = True
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
