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

The shard protocol is synchronous, but the front offers both request
shapes of the shared submit contract (``docs/API.md``):
:meth:`Cluster.submit_async` queues the request on a bounded front-side
queue and returns a :class:`~repro.cluster.handle.ClusterHandle`
immediately (poll/result/cancel parity with the host tier's
``EvalHandle`` — same :class:`~repro.host.handle.HandleState` state
machine, same :class:`~repro.errors.HostSaturated` refusal when the
queue is full), while the classic blocking :meth:`Cluster.submit` is a
thin wrapper that waits on the handle.  A single dispatcher thread
drains the queue and performs the blocking shard round-trips, so the
machinery below it stays synchronous.

Shard-side evaluation failures come back in-band as ``status="error"``
results; a dead worker raises :class:`~repro.errors.ShardDied` only
when the affected session has no snapshot to replay — otherwise the
front respawns the worker, counts a recovery, and retries the request
transparently.
"""

from __future__ import annotations

import itertools
import multiprocessing
import threading
import zlib
from collections import deque
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable

from repro.clock import MONOTONIC
from repro.cluster.handle import ClusterHandle
from repro.cluster.metrics import ClusterMetrics
from repro.cluster.shard import ShardRuntime, shard_main
from repro.cluster.store import MemoryStore, SnapshotStore
from repro.errors import (
    ClusterError,
    DeadlineExceeded,
    HostSaturated,
    SessionCancelled,
    ShardDied,
)
from repro.host.handle import HandleState
from repro.host.session import prelude_image

__all__ = ["Cluster", "ClusterResult"]

_cluster_ids = itertools.count()

#: Default seconds :meth:`Cluster.close` waits for the dispatcher
#: thread to finish its in-flight shard round-trip before abandoning
#: the request (the handle is then force-resolved CANCELLED, so no
#: caller is ever left holding a non-terminal handle).
_CLOSE_JOIN_TIMEOUT = 5.0


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
    """``workers=0``: the shard runtime in the front process."""

    def __init__(self, index: int):
        self.runtime = ShardRuntime(index)

    def request(self, op: str, payload: dict[str, Any]) -> dict[str, Any]:
        return self.runtime.handle(op, payload)

    def alive(self) -> bool:
        return True

    def shutdown(self) -> None:
        pass


class _ProcessShard:
    """A shard worker process plus its two one-way pipes: commands
    front → worker, replies worker → front."""

    def __init__(self, index: int, ctx: Any):
        self.index = index
        self.ctx = ctx
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

    def alive(self) -> bool:
        return self.process.is_alive()

    def respawn(self) -> None:
        """Fresh process, fresh pipes: nothing from the dead worker's
        life can be read by the next one.

        The old pipe ends and the old process's sentinel are closed
        *explicitly* before the new ones are created: a wedged worker
        that survives the 1s ``join`` would otherwise orphan them and
        leak the front out of file descriptors under repeated worker
        churn (gated by the 50-respawn FD test in ``tests/cluster``).
        """
        if self.process.is_alive():
            self.process.terminate()
        self.process.join(timeout=1.0)
        if self.process.is_alive():  # pragma: no cover - wedged worker
            self.process.kill()
            self.process.join(timeout=1.0)
        self._release_resources()
        self._spawn()

    def _release_resources(self) -> None:
        """Close the front's pipe ends plus the process sentinel —
        every front-side FD the worker's plumbing held."""
        self._commands.close()
        self._replies.close()
        try:
            self.process.close()  # releases the sentinel FD
        except ValueError:  # pragma: no cover - still alive; GC reclaims
            pass

    def request(self, op: str, payload: dict[str, Any]) -> dict[str, Any]:
        """Send one command and block until its reply or the worker's
        exit, whichever comes first; raises :class:`ShardDied` if the
        process exits (or is killed) before replying."""
        # Imported here: in-process users of repro need not load it.
        from multiprocessing.connection import wait

        try:
            self._commands.send((op, payload))
            wait([self._replies, self.process.sentinel])
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
            f"shard {self.index} (pid {self.process.pid}) died while serving {op!r}"
        )

    def shutdown(self) -> None:
        try:
            alive = self.process.is_alive()
        except ValueError:  # pragma: no cover - already shut down
            return
        if alive:
            try:
                self._commands.send(("shutdown", {}))
                self.process.join(timeout=2.0)
            except OSError:  # pragma: no cover - died meanwhile
                pass
            finally:
                if self.process.is_alive():  # pragma: no cover - stuck worker
                    self.process.terminate()
                    self.process.join(timeout=1.0)
        self._release_resources()


class Cluster:
    """A sharded pool of interpreter hosts behind one submit interface.

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
        for front-side spans: every submit/migrate/recovery is
        bracketed on the ``cluster`` track.
    max_pending:
        Bound on front-side queued + in-flight requests;
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
        self.metrics = ClusterMetrics()
        # The dispatcher thread serializes shard round-trips; the op
        # lock additionally serializes them against mobility calls
        # (evict/migrate/snapshot_now) from the caller's thread, so
        # store/_resident bookkeeping stays single-writer-at-a-time.
        self._cv = threading.Condition()
        self._op_lock = threading.RLock()
        self._queue: deque[ClusterHandle] = deque()
        self._inflight: ClusterHandle | None = None
        self._dispatcher: threading.Thread | None = None
        if record is True:
            from repro.obs.recorder import Recorder

            self.recorder = Recorder()
        elif record is False:
            self.recorder = None
        else:
            self.recorder = record
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
        with self._op_lock:
            return sorted(set(self._resident) | set(self.store.ids()))

    # -- the request path ------------------------------------------------

    @property
    def queue_depth(self) -> int:
        """Front-side queued plus in-flight requests."""
        with self._cv:
            return len(self._queue) + (1 if self._inflight is not None else 0)

    @property
    def idle(self) -> bool:
        """True when no request is queued or in flight on the front."""
        return self.queue_depth == 0

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
        the session's very first request — :class:`ShardDied`
        propagates.  Evaluation errors come back in-band
        (``status="error"``) and never raise here.
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

        The front-side queue is bounded (``max_pending``); beyond it
        this raises :class:`~repro.errors.HostSaturated` —
        backpressure, not buffering.  The ``deadline`` clock starts
        now: a request still queued at expiry fails with
        :class:`~repro.errors.DeadlineExceeded` without touching a
        shard.
        """
        self._check_open()
        handle = ClusterHandle(
            self,
            session_id,
            source,
            max_steps=max_steps,
            deadline=deadline,
            tenant=tenant,
        )
        with self._cv:
            depth = len(self._queue) + (1 if self._inflight is not None else 0)
            if depth >= self.max_pending:
                self.metrics.saturations += 1
                raise HostSaturated(
                    f"cluster {self.name}: submit queue full "
                    f"({depth}/{self.max_pending})"
                )
            self.metrics.submits += 1
            self._queue.append(handle)
            if self._dispatcher is None:
                self._dispatcher = threading.Thread(
                    target=self._dispatch_loop,
                    name=f"{self.name}-dispatch",
                    daemon=True,
                )
                self._dispatcher.start()
            self._cv.notify()
        return handle

    def _cancel_async(self, handle: ClusterHandle) -> bool:
        """Cancel ``handle`` if still queued (running/terminal requests
        return False); the :meth:`ClusterHandle.cancel` backend."""
        with self._cv:
            if handle.state is not HandleState.PENDING:
                return False
            try:
                self._queue.remove(handle)
            except ValueError:  # pragma: no cover - defensive
                return False
            self.metrics.cancellations += 1
            handle._resolve(
                exc=SessionCancelled(
                    f"cluster {self.name}: request {handle.uid} cancelled while queued"
                ),
                state=HandleState.CANCELLED,
            )
            return True

    def _dispatch_loop(self) -> None:
        """The dispatcher thread: drain the front queue, performing one
        blocking shard round-trip at a time."""
        while True:
            with self._cv:
                while not self._queue and not self._closed:
                    self._cv.wait()
                if not self._queue:  # closed and drained
                    return
                handle = self._queue.popleft()
                if handle.done():  # pragma: no cover - cancel raced the pop
                    continue
                handle._start()
                self._inflight = handle
            try:
                self._execute(handle)
            finally:
                with self._cv:
                    self._inflight = None

    def _execute(self, handle: ClusterHandle) -> None:
        """One request, start to terminal state (dispatcher thread)."""
        t0 = perf_counter()
        deadline: float | None = None
        if handle.deadline_at is not None:
            deadline = handle.deadline_at - self._clock()
            if deadline <= 0:
                self.metrics.failed += 1
                handle._resolve(
                    exc=DeadlineExceeded(
                        f"cluster {self.name}: request {handle.uid} missed its "
                        "wall-clock deadline while queued",
                        steps=0,
                    )
                )
                return
        rec = self.recorder
        try:
            with self._op_lock:
                if rec is not None and rec.enabled:
                    with rec.span("cluster.submit", handle.session_id, track="cluster"):
                        result = self._submit_once(
                            handle.session_id, handle.source, handle.max_steps, deadline
                        )
                else:
                    result = self._submit_once(
                        handle.session_id, handle.source, handle.max_steps, deadline
                    )
        except BaseException as exc:  # noqa: BLE001 - resolve, never kill the loop
            self.metrics.failed += 1
            handle._resolve(exc=exc)
            return
        self.metrics.request_us.observe((perf_counter() - t0) * 1e6)
        if result.ok:
            self.metrics.completed += 1
        else:
            self.metrics.failed += 1
        handle._resolve(result=result)

    def _submit_once(
        self,
        session_id: str,
        source: str,
        max_steps: float | None,
        deadline: float | None,
    ) -> ClusterResult:
        index = self.shard_for(session_id)
        payload: dict[str, Any] = {
            "session_id": session_id,
            "source": source,
            "max_steps": max_steps,
            "deadline": deadline,
        }
        if self._resident.get(session_id) != index:
            # Not live on the target shard: ship the last snapshot, or
            # creation kwargs for a brand-new session.
            blob = self.store.get(session_id)
            if blob is not None:
                payload["blob"] = blob
            else:
                payload["session_kwargs"] = self.session_defaults
        recovered = False
        try:
            reply = self.shards[index].request("submit", payload)
        except ShardDied:
            reply = self._recover(index, session_id, payload)
            recovered = True
        return self._finish(reply, recovered=recovered)

    def _recover(
        self, index: int, session_id: str, payload: dict[str, Any]
    ) -> dict[str, Any]:
        """A worker died under this request: respawn it, invalidate its
        residents, and replay against the last snapshot."""
        shard = self.shards[index]
        self.metrics.respawns += 1
        shard.respawn()
        # Every session that was live on that worker is gone from RAM;
        # they all rehydrate from the store on next touch.
        for sid, at in list(self._resident.items()):
            if at == index:
                del self._resident[sid]
        blob = self.store.get(session_id)
        if blob is None:
            raise ShardDied(
                f"shard {index} died and session {session_id!r} has no "
                "snapshot to replay"
            )
        payload = dict(payload)
        payload["blob"] = blob
        payload.pop("session_kwargs", None)
        rec = self.recorder
        if rec is not None and rec.enabled:
            rec.emit("cluster.recover", session_id)
        reply = self.shards[index].request("submit", payload)
        self.metrics.recoveries += 1
        return reply

    def _finish(self, reply: dict[str, Any], *, recovered: bool) -> ClusterResult:
        """Persist the piggybacked snapshot and fold shard-side timings
        into the front's metrics."""
        session_id = reply["session_id"]
        self._resident[session_id] = reply["shard"]
        if reply.get("restored"):
            self.metrics.restores += 1
            self.metrics.restore_us.observe(reply.get("restore_us", 0.0))
        blob = reply.get("snapshot")
        if blob is not None:
            self.store.put(session_id, blob)
            self.metrics.snapshots += 1
            self.metrics.snapshot_bytes.observe(len(blob))
            self.metrics.snapshot_us.observe(reply.get("snapshot_us", 0.0))
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

    # -- session mobility ------------------------------------------------

    def evict(self, session_id: str) -> bool:
        """Snapshot a session to the store and release its shard
        memory; returns True if it was resident.  The session stays
        fully usable — the next submit rehydrates it."""
        self._check_open()
        with self._op_lock:
            index = self._resident.get(session_id)
            if index is None:
                return False
            reply = self.shards[index].request("evict", {"session_id": session_id})
            del self._resident[session_id]
            blob = reply.get("snapshot")
            if blob is not None:
                self.store.put(session_id, blob)
                self.metrics.snapshots += 1
                self.metrics.snapshot_bytes.observe(len(blob))
                self.metrics.snapshot_us.observe(reply.get("snapshot_us", 0.0))
            self.metrics.evictions += 1
            return bool(reply.get("resident"))

    def migrate(self, session_id: str, to_shard: int) -> int:
        """Move a session to ``to_shard`` (pinning it there): snapshot
        out of its current shard now; the next submit rehydrates on the
        target.  Returns the target shard index."""
        self._check_open()
        if not 0 <= to_shard < self._nshards:
            raise ValueError(
                f"shard index {to_shard} out of range (cluster has "
                f"{self._nshards} shards)"
            )
        rec = self.recorder
        if rec is not None and rec.enabled:
            rec.emit("cluster.migrate", f"{session_id} -> shard {to_shard}")
        with self._op_lock:
            if self._resident.get(session_id) is not None:
                self.evict(session_id)
            self._placement[session_id] = to_shard
            self.metrics.migrations += 1
        return to_shard

    def snapshot_now(self, session_id: str) -> bytes | None:
        """Force a fresh snapshot of a resident session into the store
        (idle sessions are already stored as of their last request);
        returns the blob, or the stored one if not resident."""
        self._check_open()
        with self._op_lock:
            index = self._resident.get(session_id)
            if index is None:
                return self.store.get(session_id)
            reply = self.shards[index].request("snapshot", {"session_id": session_id})
            blob = reply.get("snapshot")
            if blob is not None:
                self.store.put(session_id, blob)
                self.metrics.snapshots += 1
                self.metrics.snapshot_bytes.observe(len(blob))
                self.metrics.snapshot_us.observe(reply.get("snapshot_us", 0.0))
            return blob

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

    def close(self, *, join_timeout: float = _CLOSE_JOIN_TIMEOUT) -> None:
        """Shut the front down (idempotent): still-queued requests
        resolve CANCELLED immediately, the in-flight request gets up to
        ``join_timeout`` seconds to finish its shard round-trip and is
        then abandoned — force-resolved CANCELLED, so **every**
        outstanding :class:`ClusterHandle` reaches a terminal state
        before this returns — the dispatcher thread exits, and every
        worker is shut down.  Stored snapshots are untouched — a new
        cluster over the same store resumes them."""
        with self._cv:
            if self._closed:
                return
            self._closed = True
            while self._queue:
                handle = self._queue.popleft()
                self.metrics.cancellations += 1
                handle._resolve(
                    exc=SessionCancelled(
                        f"cluster {self.name}: request {handle.uid} abandoned "
                        "at close"
                    ),
                    state=HandleState.CANCELLED,
                )
            self._cv.notify_all()
            dispatcher = self._dispatcher
        if dispatcher is not None:
            dispatcher.join(timeout=join_timeout)
        # A wedged shard can hold the dispatcher past the join timeout;
        # the caller still gets the terminal-state guarantee.  Handle
        # resolution is idempotent (first wins), so if the round-trip
        # does eventually return, the dispatcher's resolve is a no-op.
        with self._cv:
            inflight = self._inflight
        if inflight is not None and not inflight.done():
            self.metrics.cancellations += 1
            inflight._resolve(
                exc=SessionCancelled(
                    f"cluster {self.name}: request {inflight.uid} abandoned "
                    "in flight at close"
                ),
                state=HandleState.CANCELLED,
            )
        for shard in self.shards:
            shard.shutdown()

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
