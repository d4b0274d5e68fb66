"""The cluster front: sharded, snapshot-backed session serving.

A :class:`Cluster` owns N shard worker processes (one
:class:`~repro.host.host.Host` each, see :mod:`repro.cluster.shard`)
and routes each session id to a shard by stable hash.  Sessions are
*mobile*: every completed request ships a fresh snapshot back to the
front's :class:`~repro.cluster.store.SnapshotStore`, so any session can
be evicted from shard memory, rehydrated on a different shard
(:meth:`Cluster.migrate`), or — when a worker is SIGKILLed mid-service
— replayed from its last snapshot on a respawned worker without the
other shards noticing.

``workers=0`` runs the same :class:`~repro.cluster.shard.ShardRuntime`
logic inline in the calling process (no ``multiprocessing``): handy for
tests, debugging, and platforms where fork is unavailable.

The front is driven like a Host, by one owner thread.
:meth:`Cluster.submit_async` only queues the request on a bounded
front-side queue and returns a :class:`~repro.cluster.handle.ClusterHandle`
(poll/result/cancel parity with the host tier's ``EvalHandle`` — same
:class:`~repro.host.handle.HandleState` state machine, same
:class:`~repro.errors.HostSaturated` refusal when the queue is full).
:meth:`Cluster.tick` sends every shard with nothing outstanding the
oldest queued request routed to it, then waits on all of them at once
and finishes whatever answered.  A handle drives ``tick`` itself when
waited on, the way an ``EvalHandle`` pumps its session, so the classic
blocking :meth:`Cluster.submit` is a thin wrapper that waits on the
handle.

Shard-side evaluation failures come back in-band as ``status="error"``
results; a dead worker raises :class:`~repro.errors.ShardDied` only
when the affected session has no snapshot to replay — otherwise the
front respawns the worker, counts a recovery, and retries the request
transparently.
"""

from __future__ import annotations

import itertools
import multiprocessing
import zlib
from collections import deque
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable

from repro.clock import MONOTONIC
from repro.cluster.handle import ClusterHandle
from repro.cluster.shard import ShardRuntime, shard_main
from repro.cluster.store import MemoryStore, SnapshotStore
from repro.errors import (
    ClusterError,
    DeadlineExceeded,
    HostSaturated,
    SessionCancelled,
    ShardDied,
    SnapshotError,
)
from repro.host.handle import HandleState
from repro.host.session import prelude_image
from repro.obs.metrics import COUNTER, HISTOGRAM, declare
from repro.obs.recorder import as_recorder

__all__ = ["CLUSTER_METRICS", "Cluster", "ClusterResult"]

#: Front-side counters and distributions (``cluster.*`` in ``stats``).
CLUSTER_METRICS = declare(
    "cluster",
    [
        ("submits", COUNTER, "requests accepted by the front"),
        ("completed", COUNTER, "requests that returned ok"),
        ("failed", COUNTER, "requests that failed: evaluation error, deadline or infrastructure"),
        ("saturations", COUNTER, "submits refused by the bounded front queue"),
        ("cancellations", COUNTER, "requests cancelled while queued, or abandoned at close"),
        ("snapshots", COUNTER, "blobs persisted to the store"),
        ("restores", COUNTER, "sessions rehydrated onto a shard"),
        ("migrations", COUNTER, "explicit session moves between shards"),
        ("recoveries", COUNTER, "requests replayed after a shard death"),
        ("respawns", COUNTER, "worker processes restarted"),
        ("evictions", COUNTER, "sessions snapshotted out of shard memory"),
        ("snapshot_bytes", HISTOGRAM, "blob size per snapshot"),
        ("snapshot_us", HISTOGRAM, "snapshot encode latency, measured on the shard, in µs"),
        ("restore_us", HISTOGRAM, "snapshot decode latency, measured on the shard, in µs"),
        ("request_us", HISTOGRAM, "front-side submit round-trip, in µs"),
    ],
)

_cluster_ids = itertools.count()


@dataclass(frozen=True)
class ClusterResult:
    """The picklable outcome of one cluster request.

    ``value`` is the printed (``write``-style) representation of the
    last form's value — live machine objects never leave their shard.
    ``output`` is the ``display`` output this request produced (the
    delta, not the session's lifetime buffer).
    """

    session_id: str
    shard: int
    status: str  # "ok" | "error"
    value: str | None
    output: str
    steps: int
    error: str | None = None
    error_type: str | None = None
    recovered: bool = False  # replayed from a snapshot after a shard death

    @property
    def ok(self) -> bool:
        return self.status == "ok"


class _InlineShard:
    """``workers=0``: the shard runtime in the front process.  A command
    runs when its reply is read, so an outstanding inline request has
    nothing to wait on (no ``waitables``) and is always ready."""

    waitables: tuple[Any, ...] = ()

    def __init__(self, index: int):
        self.runtime = ShardRuntime(index)
        self._command: tuple[str, dict[str, Any]] = ("", {})

    def send(self, op: str, payload: dict[str, Any]) -> None:
        self._command = (op, payload)

    def recv(self) -> dict[str, Any]:
        return self.runtime.handle(*self._command)

    def shutdown(self, busy: bool) -> None:
        pass


class _ProcessShard:
    """A shard worker process plus its two one-way pipes: commands
    front → worker, replies worker → front."""

    def __init__(self, index: int, ctx: Any):
        self.index = index
        self.ctx = ctx
        self._op = ""
        self._spawn()

    def _spawn(self) -> None:
        commands_in, self._commands = self.ctx.Pipe(duplex=False)
        self._replies, replies_out = self.ctx.Pipe(duplex=False)
        self.process = self.ctx.Process(
            target=shard_main,
            args=(self.index, commands_in, replies_out),
            daemon=True,
            name=f"repro-shard-{self.index}",
        )
        self.process.start()
        # A later fork must not inherit the worker's ends: a killed
        # worker's reply pipe would then never read as EOF.
        commands_in.close()
        replies_out.close()

    @property
    def waitables(self) -> tuple[Any, ...]:
        """What becomes ready when the worker replies or exits."""
        return (self._replies, self.process.sentinel)

    def respawn(self) -> None:
        """Fresh process, fresh pipes: nothing from the dead worker's
        life can be read by the next one."""
        self._stop()
        self._spawn()

    def _stop(self) -> None:
        """End the worker, then close the front's pipe ends and the
        process sentinel — every front-side FD its plumbing held.  They
        are closed *explicitly*: a wedged worker that survives the 1s
        ``join`` would otherwise orphan them and leak the front out of
        file descriptors under repeated worker churn (gated by the
        50-respawn FD test in ``tests/cluster``)."""
        if self.process.is_alive():
            self.process.terminate()
        self.process.join(timeout=1.0)
        if self.process.is_alive():  # pragma: no cover - wedged worker
            self.process.kill()
            self.process.join(timeout=1.0)
        self._commands.close()
        self._replies.close()
        try:
            self.process.close()  # releases the sentinel FD
        except ValueError:  # pragma: no cover - still alive; GC reclaims
            pass

    def send(self, op: str, payload: dict[str, Any]) -> None:
        """Hand the worker one command.  A dead worker's broken pipe is
        not an error here: its sentinel makes :meth:`recv` raise
        :class:`ShardDied`."""
        self._op = op
        try:
            self._commands.send((op, payload))
        except OSError:
            pass

    def recv(self) -> dict[str, Any]:
        """Block until the reply to the last command or the worker's
        exit, whichever comes first; raises :class:`ShardDied` if the
        process exits (or is killed) before replying."""
        # Imported here: in-process users of repro need not load it.
        from multiprocessing.connection import wait

        try:
            wait(self.waitables)
            # Reply first: a worker that replied and then exited makes
            # both ready, and its reply still counts.
            if self._replies.poll():
                status, reply = self._replies.recv()
                if status == "err":
                    raise ClusterError(f"shard {self.index}: {reply}")
                return reply
        except (EOFError, OSError):  # a closed or half-written pipe
            pass
        raise ShardDied(
            f"shard {self.index} (pid {self.process.pid}) died while serving {self._op!r}"
        )

    def shutdown(self, busy: bool) -> None:
        """Stop the worker: an idle one is asked to exit, a ``busy`` one
        (a request outstanding) is terminated rather than waited for."""
        try:
            alive = self.process.is_alive()
        except ValueError:  # pragma: no cover - already shut down
            return
        if alive and not busy:
            try:
                self._commands.send(("shutdown", {}))
                self.process.join(timeout=2.0)
            except OSError:  # pragma: no cover - died meanwhile
                pass
        self._stop()


class Cluster:
    """A sharded pool of interpreter hosts behind one submit interface.

    A cluster has one owner thread, like a
    :class:`~repro.host.host.Host`: it submits, cancels, ticks, waits on
    handles and moves sessions.  An owner with other work to wait for,
    such as an event loop, ticks with ``timeout=0`` and waits on
    :attr:`waitables` itself.

    Parameters
    ----------
    workers:
        Shard worker processes.  ``0`` runs a single inline shard in
        this process (no ``multiprocessing``).
    store:
        Where last-known-good snapshots live; defaults to a
        :class:`~repro.cluster.store.MemoryStore`.  Point a
        :class:`~repro.cluster.store.DirectoryStore` at a directory to
        survive front restarts.
    session_defaults:
        Constructor kwargs for sessions the cluster creates on first
        submit (``engine=``, ``quantum=``, ...).
    record:
        Optional :class:`~repro.obs.recorder.Recorder` (or ``True``)
        for front-side events: each answered request lands as a
        ``cluster.submit`` complete event (dispatch to reply), and
        recoveries and migrations as instant events.
    max_pending:
        Bound on front-side queued + outstanding requests;
        :meth:`submit_async` beyond it raises
        :class:`~repro.errors.HostSaturated` — the same backpressure
        contract as the host tier's bounded queues.
    clock:
        The monotonic clock every deadline computation reads
        (:mod:`repro.clock`); injectable so tests can drive queued-
        request expiry deterministically and so wall-clock skew can
        never fire or suppress a deadline.
    """

    def __init__(
        self,
        workers: int = 2,
        *,
        store: SnapshotStore | None = None,
        session_defaults: dict[str, Any] | None = None,
        record: Any = None,
        name: str | None = None,
        max_pending: int = 256,
        clock: Callable[[], float] = MONOTONIC,
    ):
        if workers < 0:
            raise ValueError(f"workers must be >= 0, got {workers}")
        self.name = name if name is not None else f"cluster-{next(_cluster_ids)}"
        self._clock = clock
        self.store = store if store is not None else MemoryStore()
        self.session_defaults = dict(session_defaults or {})
        self.max_pending = max(1, max_pending)
        self.metrics = CLUSTER_METRICS()
        self.recorder = as_recorder(record)
        self._queue: deque[ClusterHandle] = deque()
        #: shard index -> the one request that shard is serving: its
        #: handle, perf_counter when sent, and whether it is a replay.
        self._outstanding: dict[int, tuple[ClusterHandle, float, bool]] = {}
        #: session id -> shard index where the session is live in RAM.
        self._resident: dict[str, int] = {}
        #: session id -> pinned shard (set by migrate); else hashed.
        self._placement: dict[str, int] = {}
        self._closed = False
        if self.session_defaults.get("prelude", True):
            # Built before the fork, so every worker (respawns
            # included) inherits it instead of reading the prelude.
            prelude_image()
        if workers == 0:
            self.shards: list[Any] = [_InlineShard(0)]
            self._nshards = 1
        else:
            # fork shares the parent's loaded modules (fast start); fall
            # back to spawn where fork does not exist.
            methods = multiprocessing.get_all_start_methods()
            ctx = multiprocessing.get_context(
                "fork" if "fork" in methods else "spawn"
            )
            self.shards = [_ProcessShard(i, ctx) for i in range(workers)]
            self._nshards = workers

    # -- placement -------------------------------------------------------

    def shard_for(self, session_id: str) -> int:
        """The shard this session routes to: its pinned placement if
        migrated, else a stable hash of the id (crc32 — identical
        across processes and runs, unlike ``hash``)."""
        pinned = self._placement.get(session_id)
        if pinned is not None:
            return pinned
        return zlib.crc32(session_id.encode("utf-8")) % self._nshards

    def sessions(self) -> list[str]:
        """Every session id the cluster knows: resident or stored."""
        return sorted(set(self._resident) | set(self.store.ids()))

    # -- the request path ------------------------------------------------

    @property
    def queue_depth(self) -> int:
        """Front-side queued plus outstanding requests."""
        return len(self._queue) + len(self._outstanding)

    @property
    def idle(self) -> bool:
        """True when no request is queued or outstanding on the front."""
        return not self._queue and not self._outstanding

    def submit(
        self,
        session_id: str,
        source: str,
        *,
        max_steps: int | None = None,
        deadline: float | None = None,
        tenant: str | None = None,
    ) -> ClusterResult:
        """Evaluate ``source`` on ``session_id``'s session, creating or
        rehydrating it on its shard as needed; blocks for the result.
        A thin wrapper over :meth:`submit_async` — the keyword surface
        is the shared submit contract (``docs/API.md``).

        Survives one shard death per call: if the worker dies
        mid-request and the session has a stored snapshot, the worker
        is respawned and the request replays against the last
        snapshot (``result.recovered`` is set).  With no snapshot —
        the session's very first request, or one whose last snapshot
        failed — :class:`ShardDied` propagates.  Evaluation errors come
        back in-band (``status="error"``) and never raise here.
        """
        handle = self.submit_async(
            session_id, source, max_steps=max_steps, deadline=deadline, tenant=tenant
        )
        return handle.cluster_result()

    def submit_async(
        self,
        session_id: str,
        source: str,
        *,
        max_steps: int | None = None,
        deadline: float | None = None,
        tenant: str | None = None,
    ) -> ClusterHandle:
        """Queue ``source`` for evaluation on ``session_id``'s session
        and return a :class:`~repro.cluster.handle.ClusterHandle`
        immediately — poll/result/cancel parity with the host tier's
        ``EvalHandle`` (same state machine, same refusal types).
        Nothing runs until the next :meth:`tick`.

        The front-side queue is bounded (``max_pending``); beyond it
        this raises :class:`~repro.errors.HostSaturated` —
        backpressure, not buffering.  The ``deadline`` clock starts
        now: a request still queued at expiry fails with
        :class:`~repro.errors.DeadlineExceeded` without touching a
        shard.
        """
        self._check_open()
        depth = self.queue_depth
        if depth >= self.max_pending:
            self.metrics.saturations += 1
            raise HostSaturated(
                f"cluster {self.name}: submit queue full ({depth}/{self.max_pending})"
            )
        handle = ClusterHandle(
            self,
            session_id,
            source,
            max_steps=max_steps,
            deadline=deadline,
            tenant=tenant,
        )
        self.metrics.submits += 1
        self._queue.append(handle)
        return handle

    def _cancel_async(self, handle: ClusterHandle) -> bool:
        """Cancel ``handle`` if still queued (running/terminal requests
        return False); the :meth:`ClusterHandle.cancel` backend."""
        if handle.state is not HandleState.PENDING:
            return False
        self._queue.remove(handle)
        self._settle(
            handle,
            SessionCancelled(f"cluster {self.name}: request {handle.uid} cancelled while queued"),
        )
        return True

    @property
    def waitables(self) -> list[Any]:
        """Every outstanding shard's reply pipe and process sentinel:
        one becomes readable when its worker replies or exits.  An
        inline shard has none, since it answers when read."""
        return [obj for index in self._outstanding for obj in self.shards[index].waitables]

    def tick(self, timeout: float | None = None) -> int:
        """Send every free shard the oldest queued request routed to it,
        then wait on :attr:`waitables` for at most ``timeout`` seconds
        and finish each request that answered; returns how many did.  A
        shard freed this way gets its next request at the next tick.
        Returns at once when nothing is outstanding."""
        self._dispatch()
        if not self._outstanding:
            return 0
        waitables = self.waitables
        ready: list[Any] = []
        if waitables:
            from multiprocessing.connection import wait

            ready = wait(waitables, timeout)
        answered = 0
        for index in list(self._outstanding):
            objects = self.shards[index].waitables
            if not objects or any(obj in ready for obj in objects):
                self._complete(index)
                answered += 1
        return answered

    def _dispatch(self) -> None:
        """Each free shard takes the oldest queued request routed to it;
        one whose deadline passed while queued fails without touching a
        shard.  :meth:`migrate` re-pins a session only once it has no
        request outstanding, so its requests run in submit order
        wherever it is placed."""
        if not self._queue:
            return
        now = self._clock()
        for handle in list(self._queue):
            if handle.deadline_at is not None and handle.deadline_at <= now:
                self._queue.remove(handle)
                self._settle(
                    handle,
                    DeadlineExceeded(
                        f"cluster {self.name}: request {handle.uid} missed its "
                        "wall-clock deadline while queued",
                        steps=0,
                    ),
                )
                continue
            index = self.shard_for(handle.session_id)
            if index not in self._outstanding:
                self._send(index, handle)
                self._queue.remove(handle)

    def _send(self, index: int, handle: ClusterHandle, recovered: bool = False) -> None:
        """Start ``handle`` on shard ``index`` (PENDING → RUNNING)."""
        session_id = handle.session_id
        deadline_at = handle.deadline_at
        payload: dict[str, Any] = {
            "session_id": session_id,
            "source": handle.source,
            "max_steps": handle.max_steps,
            "deadline": None if deadline_at is None else deadline_at - self._clock(),
        }
        if self._resident.get(session_id) != index:
            # Not live on the target shard: ship the last snapshot, or
            # creation kwargs for a brand-new session.
            blob = self.store.get(session_id)
            if blob is not None:
                payload["blob"] = blob
            else:
                payload["session_kwargs"] = self.session_defaults
        if not recovered:
            handle._move(HandleState.RUNNING)
        self._outstanding[index] = (handle, perf_counter(), recovered)
        self.shards[index].send("submit", payload)

    def _complete(self, index: int) -> None:
        """Persist and resolve the request shard ``index`` answered, or
        recover the worker that died under it."""
        handle, started, recovered = self._outstanding.pop(index)
        try:
            reply = self.shards[index].recv()
            if recovered:
                self.metrics.recoveries += 1
            result = self._finish(reply, recovered=recovered)
        except ShardDied as exc:
            if recovered:  # died again under the replay
                self._settle(handle, exc)
            else:
                self._recover(index, handle)
            return
        except Exception as exc:  # noqa: BLE001 - a shard-side fault or a failed store write
            self._settle(handle, exc)
            return
        dur = perf_counter() - started
        self.metrics.request_us.observe(dur * 1e6)
        rec = self.recorder
        if rec is not None and rec.enabled:
            rec.complete("cluster.submit", started, dur, detail=handle.session_id)
        self._settle(handle, result)

    def _recover(self, index: int, handle: ClusterHandle) -> None:
        """Respawn the worker, invalidate its residents, and replay the
        request against the session's last snapshot — or fail it with
        :class:`ShardDied` when there is none."""
        self.metrics.respawns += 1
        self.shards[index].respawn()
        # Every session that was live on that worker is gone from RAM;
        # they all rehydrate from the store on next touch.
        for sid, at in list(self._resident.items()):
            if at == index:
                del self._resident[sid]
        session_id = handle.session_id
        if self.store.get(session_id) is None:
            self._settle(
                handle,
                ShardDied(
                    f"shard {index} died and session {session_id!r} has no "
                    "snapshot to replay"
                ),
            )
            return
        rec = self.recorder
        if rec is not None and rec.enabled:
            rec.emit("cluster.recover", session_id)
        self._send(index, handle, recovered=True)  # no longer resident: ships the blob

    def _settle(self, handle: ClusterHandle, outcome: ClusterResult | BaseException) -> None:
        """Count the request's one outcome, then resolve its handle."""
        if isinstance(outcome, SessionCancelled):
            self.metrics.cancellations += 1
        elif isinstance(outcome, ClusterResult) and outcome.ok:
            self.metrics.completed += 1
        else:
            self.metrics.failed += 1
        handle._resolve(outcome)

    def _finish(self, reply: dict[str, Any], *, recovered: bool) -> ClusterResult:
        """Persist the piggybacked snapshot and fold shard-side timings
        into the front's metrics."""
        session_id = reply["session_id"]
        self._resident[session_id] = reply["shard"]
        if reply.get("restored"):
            self.metrics.restores += 1
            self.metrics.restore_us.observe(reply.get("restore_us", 0.0))
        try:
            self._persist(session_id, reply)
        except SnapshotError:
            # The stored blob predates the state this reply acknowledges:
            # replaying it after a shard death would silently undo that
            # state, so the session has no replay point until a snapshot
            # succeeds again.
            self.store.delete(session_id)
        return ClusterResult(
            session_id=session_id,
            shard=reply["shard"],
            status=reply["status"],
            value=reply.get("value"),
            output=reply.get("output", ""),
            steps=reply.get("steps", 0),
            error=reply.get("error"),
            error_type=reply.get("error_type"),
            recovered=recovered,
        )

    def _persist(self, session_id: str, reply: dict[str, Any]) -> bytes | None:
        """Store the snapshot a shard reply carries, if any, and count
        it; returns the blob.  Raises :class:`SnapshotError` when the
        shard could not snapshot the session."""
        error = reply.get("snapshot_error")
        if error is not None:
            raise SnapshotError(f"cluster {self.name}: session {session_id!r}: {error}")
        blob = reply.get("snapshot")
        if blob is not None:
            self.store.put(session_id, blob)
            self.metrics.snapshots += 1
            self.metrics.snapshot_bytes.observe(len(blob))
            self.metrics.snapshot_us.observe(reply.get("snapshot_us", 0.0))
        return blob

    # -- session mobility ------------------------------------------------

    def _shard_op(self, op: str, session_id: str) -> dict[str, Any] | None:
        """Run ``op`` on the shard holding ``session_id`` in memory (None
        when not resident), ticking until neither the session nor that
        shard has a request outstanding."""
        while True:
            index = self._resident.get(session_id)
            if index not in self._outstanding and all(
                handle.session_id != session_id for handle, _, _ in self._outstanding.values()
            ):
                break
            self.tick()
        if index is None:
            return None
        shard = self.shards[index]
        shard.send(op, {"session_id": session_id})
        return shard.recv()

    def evict(self, session_id: str) -> bool:
        """Snapshot a session to the store and release its shard
        memory; returns True if it was resident.  The session stays
        fully usable — the next submit rehydrates it.  Raises
        :class:`~repro.errors.SnapshotError`, and leaves the session
        resident, when it cannot be snapshotted."""
        self._check_open()
        reply = self._shard_op("evict", session_id)
        if reply is None:
            return False
        self._persist(session_id, reply)
        del self._resident[session_id]
        self.metrics.evictions += 1
        return bool(reply.get("resident"))

    def migrate(self, session_id: str, to_shard: int) -> int:
        """Move a session to ``to_shard`` (pinning it there): snapshot
        out of its current shard now; the next submit rehydrates on the
        target.  Returns the target shard index.  Raises
        :class:`~repro.errors.SnapshotError`, and moves nothing, when
        the session cannot be snapshotted."""
        self._check_open()
        if not 0 <= to_shard < self._nshards:
            raise ValueError(
                f"shard index {to_shard} out of range (cluster has "
                f"{self._nshards} shards)"
            )
        rec = self.recorder
        if rec is not None and rec.enabled:
            rec.emit("cluster.migrate", f"{session_id} -> shard {to_shard}")
        self.evict(session_id)
        self._placement[session_id] = to_shard
        self.metrics.migrations += 1
        return to_shard

    def snapshot_now(self, session_id: str) -> bytes | None:
        """Force a fresh snapshot of a resident session into the store
        (idle sessions are already stored as of their last request);
        returns the blob, or the stored one if not resident.  Raises
        :class:`~repro.errors.SnapshotError` when the session cannot be
        snapshotted."""
        self._check_open()
        reply = self._shard_op("snapshot", session_id)
        if reply is None:
            return self.store.get(session_id)
        return self._persist(session_id, reply)

    # -- introspection / lifecycle ---------------------------------------

    @property
    def stats(self) -> dict[str, int]:
        """Front counters (``cluster.*``) plus topology."""
        out = self.metrics.as_dict()
        out["cluster.shards"] = self._nshards
        out["cluster.queue_depth"] = self.queue_depth
        out["cluster.resident_sessions"] = len(self._resident)
        out["cluster.stored_sessions"] = len(self.store.ids())
        return out

    def histograms(self) -> dict[str, Any]:
        """Distribution summaries, JSON-ready (snapshot sizes and
        encode/decode/request latencies)."""
        return self.metrics.histograms()

    def _check_open(self) -> None:
        if self._closed:
            raise ClusterError(f"cluster {self.name} is closed")

    def close(self) -> None:
        """Shut the front down (idempotent): every queued and
        outstanding request resolves CANCELLED at once, each counted
        once; a worker serving a request is terminated, the others are
        asked to exit.  Stored snapshots are untouched — a new cluster
        over the same store resumes them."""
        if self._closed:
            return
        self._closed = True
        busy = set(self._outstanding)
        abandoned = [handle for handle, _, _ in self._outstanding.values()] + list(self._queue)
        self._outstanding.clear()
        self._queue.clear()
        for handle in abandoned:
            message = f"cluster {self.name}: request {handle.uid} abandoned at close"
            self._settle(handle, SessionCancelled(message))
        for index, shard in enumerate(self.shards):
            shard.shutdown(busy=index in busy)

    def __enter__(self) -> "Cluster":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return (
            f"#<cluster {self.name} {self._nshards} shards "
            f"{len(self._resident)} resident {state}>"
        )
