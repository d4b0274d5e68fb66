"""Request handles: one submitted evaluation, as a value.

A handle is created by a frontend's ``submit`` and moves through a
small state machine::

    PENDING ──▶ RUNNING ──▶ DONE
        │          │  └────▶ FAILED      (error / deadline / budget)
        └──────────┴───────▶ CANCELLED   (cooperative cancel)

The terminal states are exactly those three; :meth:`Handle.done`
tests for them.  :class:`Handle`, the base of every tier's handle,
assigns the state in one place, :meth:`Handle._move`, which reports
each change to the handle's listener — nobody has to poll a handle.

:class:`EvalHandle`, the session/host tier's handle, carries the
evaluation's per-request cost bounds (``max_steps``, a step budget
relative to this evaluation, and ``deadline_at``, an absolute
wall-clock timestamp started at submit — queueing time counts against
a request's deadline, as in any serving system) and the per-form
values produced so far.
"""

from __future__ import annotations

import enum
from time import monotonic
from typing import TYPE_CHECKING, Any, Callable

from repro.counters import SerialCounter

if TYPE_CHECKING:  # pragma: no cover
    from repro.host.session import Session

__all__ = ["EvalHandle", "Handle", "HandleState", "Listener"]

_handle_ids = SerialCounter()


class HandleState(enum.Enum):
    PENDING = "pending"  # queued, not yet started
    RUNNING = "running"  # dequeued; tree may be suspended between pumps
    DONE = "done"  # every form evaluated; values available
    FAILED = "failed"  # an error, deadline or step budget ended it
    CANCELLED = "cancelled"  # cooperatively cancelled

    @property
    def terminal(self) -> bool:
        return self in _TERMINAL


_TERMINAL = frozenset((HandleState.DONE, HandleState.FAILED, HandleState.CANCELLED))

#: ``(state, "")`` for a transition, ``(None, text)`` for output.
Listener = Callable[[HandleState | None, str], None]


class Handle:
    """The state machine every request handle shares, with one
    listener slot (:meth:`subscribe`).  The listener runs on whichever
    thread moves the handle, so it should only hand the event on."""

    __slots__ = ("state", "steps", "_exception", "_listener")

    def __init__(self) -> None:
        self.steps = 0
        self._exception: BaseException | None = None
        self._listener: Listener | None = None
        self._move(HandleState.PENDING)

    def done(self) -> bool:
        """True once the handle is in a terminal state."""
        return self.state in _TERMINAL

    def exception(self) -> BaseException | None:
        """The failure that ended this request, or None (also None
        while still pending/running — this never blocks)."""
        return self._exception

    def subscribe(self, listener: Listener) -> None:
        """Attach ``listener`` (replacing any earlier one).  A handle
        that has already left PENDING reports its current state to the
        new listener at once, so no transition can fall between a
        submit returning and its caller subscribing."""
        self._listener = listener
        if self.state is not HandleState.PENDING:
            listener(self.state, "")

    def _move(self, state: HandleState, exc: BaseException | None = None) -> None:
        """The only state assignment: record ``state`` (and the failure
        that caused it) and report it to the listener."""
        if exc is not None:
            self._exception = exc
        self.state = state
        if self._listener is not None:
            self._listener(state, "")

    def _output(self, text: str) -> None:
        """Report an output delta this request produced."""
        if self._listener is not None and text:
            self._listener(None, text)


class EvalHandle(Handle):
    """A submitted evaluation; resolved by pumping its session."""

    __slots__ = (
        "uid",
        "session",
        "nodes",
        "max_steps",
        "deadline_at",
        "tenant",
        "values",
        "submitted_at",
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
        super().__init__()
        self.uid = next(_handle_ids)
        self.session = session
        self.nodes = nodes
        self.max_steps = max_steps
        self.deadline_at = deadline_at
        self.tenant = tenant  # attribution label (gateway quota accounting)
        self.values: list[Any] = []  # one value per completed top-level form
        self.submitted_at = monotonic()  # for request-latency histograms
        self._cancel_requested = False
        self._node_index = 0  # next form to evaluate
        self._node_running = False  # a tree for nodes[_node_index] is in flight

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

    def cancel(self) -> bool:
        """Request cooperative cancellation; returns True if the handle
        was still cancellable.  A queued handle is cancelled on the
        spot; an in-flight one is discarded at the next quantum
        boundary (immediately when called between pumps)."""
        return self.session.cancel(self)

    def __repr__(self) -> str:
        return (
            f"#<eval-handle {self.uid} {self.state.value} "
            f"{self._node_index}/{len(self.nodes)} forms {self.steps} steps>"
        )
