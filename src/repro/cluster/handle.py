"""The :class:`ClusterHandle`: one cluster request, as a value.

``Cluster.submit_async`` returns one of these instead of blocking.  It
shares its base, :class:`~repro.host.handle.Handle`, with the host
tier's :class:`~repro.host.handle.EvalHandle`: the *same* state
machine, reported to the same kind of listener::

    PENDING ──▶ RUNNING ──▶ DONE
        │          └──────▶ FAILED      (eval error / infra failure)
        └──────────────────▶ CANCELLED  (cancelled while queued)

so code written against the handle-state machine — the gateway, the
shared submit-contract test — drives host and cluster backends
identically.  The differences are inherent to the tier: a cluster
request is executed *blocking* on the front's dispatcher thread (the
shard protocol is synchronous), so ``cancel`` succeeds only while the
request is still queued — once the shard holds it, it runs to
completion — and ``result`` waits on an event rather than pumping.

Evaluation errors come back from shards in-band (``status="error"``):
the handle records them as a FAILED state whose :meth:`exception` is a
:class:`~repro.errors.ClusterEvalError`, while :meth:`cluster_result`
still hands back the raw in-band :class:`ClusterResult` for callers of
the classic blocking API.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Any

from repro.counters import SerialCounter
from repro.errors import ClusterEvalError
from repro.host.handle import Handle, HandleState, Listener

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.cluster import Cluster, ClusterResult

__all__ = ["ClusterHandle"]

_handle_ids = SerialCounter()


class ClusterHandle(Handle):
    """A submitted cluster request; resolved by the front's dispatcher
    thread.  Thread-safe: any thread may poll, wait or cancel."""

    __slots__ = (
        "uid",
        "cluster",
        "session_id",
        "source",
        "max_steps",
        "deadline_at",
        "tenant",
        "submitted_at",
        "_result",
        "_done",
        "_resolve_lock",
    )

    def __init__(
        self,
        cluster: "Cluster",
        session_id: str,
        source: str,
        *,
        max_steps: int | None = None,
        deadline: float | None = None,
        tenant: str | None = None,
    ):
        super().__init__()
        self.uid = next(_handle_ids)
        self.cluster = cluster
        self.session_id = session_id
        self.source = source
        self.max_steps = max_steps
        # The deadline clock starts at submit, exactly like the host
        # tier: time spent queued on the front counts against it.  The
        # clock is the cluster's injected monotonic clock, so deadline
        # math is immune to wall-clock skew and testable by hand.
        now = cluster._clock()
        self.deadline_at = None if deadline is None else now + deadline
        self.tenant = tenant
        self.submitted_at = now
        self._result: "ClusterResult | None" = None
        self._done = threading.Event()
        self._resolve_lock = threading.Lock()

    # -- inspection ------------------------------------------------------

    def wait(self, timeout: float | None = None) -> bool:
        """Block until terminal (or ``timeout`` seconds); returns
        :meth:`done`."""
        self._done.wait(timeout)
        return self.done()

    def result(self, timeout: float | None = None) -> Any:
        """Block for the outcome; the EvalHandle-parity accessor.

        Returns the printed (``write``-style) representation of the
        last form's value; raises the recorded failure for
        FAILED/CANCELLED handles (in-band evaluation errors raise
        :class:`~repro.errors.ClusterEvalError`).  Raises
        :class:`TimeoutError` if ``timeout`` elapses first.
        """
        result = self.cluster_result(timeout)
        if self._exception is not None:
            raise self._exception
        return result.value

    def cluster_result(self, timeout: float | None = None) -> "ClusterResult":
        """Block for the raw in-band :class:`ClusterResult` (the
        classic ``Cluster.submit`` return shape: evaluation errors ride
        inside it, ``status="error"``).  Infrastructure failures —
        shard death with no snapshot, cancellation, a closed cluster —
        still raise."""
        if not self._done.wait(timeout):
            raise TimeoutError(
                f"cluster request {self.uid} ({self.session_id!r}) still "
                f"{self.state.value} after {timeout}s"
            )
        if self._result is None:
            assert self._exception is not None
            raise self._exception
        return self._result

    # -- control ---------------------------------------------------------

    def cancel(self) -> bool:
        """Cancel this request if it is still queued on the front;
        returns True on success.  A request already running on a shard
        cannot be interrupted (the shard protocol is synchronous) and a
        terminal one is immutable — both return False."""
        return self.cluster._cancel_async(self)

    def subscribe(self, listener: Listener) -> None:
        """As :meth:`Handle.subscribe`, under the resolve lock (the
        dispatcher, a canceller or ``Cluster.close`` may move the
        handle); a finished request reports its output first."""
        with self._resolve_lock:
            if self._result is not None and self._result.output:
                listener(None, self._result.output)
            super().subscribe(listener)

    # -- internal (dispatcher-thread side) -------------------------------

    def _start(self) -> None:
        """PENDING → RUNNING, as the dispatcher takes the request."""
        with self._resolve_lock:
            if not self._done.is_set():
                self._move(HandleState.RUNNING)

    def _resolve(
        self,
        result: "ClusterResult | None" = None,
        exc: BaseException | None = None,
        state: HandleState | None = None,
    ) -> None:
        """Record the outcome and wake waiters.  Exactly one of
        ``result``/``exc`` is set; in-band error results also surface
        as a :class:`ClusterEvalError` so the parity path raises.

        The request's output is reported before its terminal state.

        Idempotent — the *first* resolution wins and later ones are
        no-ops.  This is what lets :meth:`Cluster.close` force an
        abandoned in-flight handle to a terminal state without racing
        the dispatcher thread, which may still resolve it for real if
        the shard round-trip eventually returns.
        """
        with self._resolve_lock:
            if self._done.is_set():
                return
            if result is not None:
                self._result = result
                self.steps = result.steps
                self._output(result.output)
                if result.ok:
                    self._move(HandleState.DONE)
                else:
                    self._move(
                        HandleState.FAILED,
                        ClusterEvalError(
                            f"session {self.session_id!r}: {result.error}",
                            error_type=result.error_type,
                        ),
                    )
            else:
                assert exc is not None
                self._move(state if state is not None else HandleState.FAILED, exc)
            self._done.set()

    def __repr__(self) -> str:
        return (
            f"#<cluster-handle {self.uid} {self.session_id!r} "
            f"{self.state.value} {self.steps} steps>"
        )
