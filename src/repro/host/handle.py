"""The :class:`EvalHandle`: one submitted evaluation, as a value.

A handle is created by :meth:`Session.submit` and moves through a
small state machine::

    PENDING ──▶ RUNNING ──▶ DONE
        │          │  └────▶ FAILED      (error / deadline / budget)
        └──────────┴───────▶ CANCELLED   (cooperative cancel)

The terminal states are exactly those three; :meth:`EvalHandle.done`
tests for them.  The handle carries the evaluation's per-request cost
bounds (``max_steps``, a step budget relative to this evaluation, and
``deadline_at``, an absolute wall-clock timestamp started at submit —
queueing time counts against a request's deadline, as in any serving
system), the per-form values produced so far, and the failure if one
occurred.
"""

from __future__ import annotations

import enum
from time import monotonic
from typing import TYPE_CHECKING, Any

from repro.counters import SerialCounter

if TYPE_CHECKING:  # pragma: no cover
    from repro.host.session import Session

__all__ = ["EvalHandle", "HandleState"]

_handle_ids = SerialCounter()


class HandleState(enum.Enum):
    PENDING = "pending"  # queued, not yet started
    RUNNING = "running"  # dequeued; tree may be suspended between pumps
    DONE = "done"  # every form evaluated; values available
    FAILED = "failed"  # an error, deadline or step budget ended it
    CANCELLED = "cancelled"  # cooperatively cancelled


_TERMINAL = (HandleState.DONE, HandleState.FAILED, HandleState.CANCELLED)


class EvalHandle:
    """A submitted evaluation; resolved by pumping its session."""

    __slots__ = (
        "uid",
        "session",
        "nodes",
        "max_steps",
        "deadline_at",
        "tenant",
        "state",
        "values",
        "steps",
        "submitted_at",
        "report",
        "classification",
        "_exception",
        "_cancel_requested",
        "_node_index",
        "_node_running",
    )

    def __init__(
        self,
        session: "Session",
        nodes: list[Any],
        *,
        max_steps: int | None = None,
        deadline_at: float | None = None,
        tenant: str | None = None,
    ):
        self.uid = next(_handle_ids)
        self.session = session
        self.nodes = nodes
        self.max_steps = max_steps
        self.deadline_at = deadline_at
        self.tenant = tenant  # attribution label (gateway quota accounting)
        self.state = HandleState.PENDING
        self.values: list[Any] = []  # one value per completed top-level form
        self.steps = 0  # machine steps spent on this evaluation
        self.submitted_at = monotonic()  # for request-latency histograms
        # Capture/effect analysis results (repro.analysis.effects): the
        # ProgramReport from submit (transient — not serialized) and the
        # request classification pure/capture-heavy/spawning ("unknown"
        # with analysis off).
        self.report: Any = None
        self.classification: str = "unknown"
        self._exception: BaseException | None = None
        self._cancel_requested = False
        self._node_index = 0  # next form to evaluate
        self._node_running = False  # a tree for nodes[_node_index] is in flight

    # -- inspection ------------------------------------------------------

    def done(self) -> bool:
        """True once the handle is in a terminal state."""
        return self.state in _TERMINAL

    def exception(self) -> BaseException | None:
        """The failure that ended this evaluation, or None (also None
        while still pending/running — this never blocks)."""
        return self._exception

    def result(self) -> Any:
        """The value of the evaluation's *last* form.

        If the handle is not yet terminal, pumps its own session to
        completion first (convenient for single-session embedding; under
        a :class:`~repro.host.host.Host` prefer driving via the host's
        tick loop and checking :meth:`done`).  Raises the recorded
        exception for FAILED/CANCELLED handles.
        """
        if not self.done():
            self.session.drive(self)
        if self._exception is not None:
            raise self._exception
        return self.values[-1] if self.values else None

    # -- control ---------------------------------------------------------

    def cancel(self) -> bool:
        """Request cooperative cancellation; returns True if the handle
        was still cancellable.  A queued handle is cancelled on the
        spot; an in-flight one is discarded at the next quantum
        boundary (immediately when called between pumps)."""
        return self.session.cancel(self)

    # -- internal --------------------------------------------------------

    def _fail(self, exc: BaseException, state: HandleState = HandleState.FAILED) -> None:
        self._exception = exc
        self.state = state

    def __repr__(self) -> str:
        return (
            f"#<eval-handle {self.uid} {self.state.value} "
            f"{self._node_index}/{len(self.nodes)} forms {self.steps} steps>"
        )
