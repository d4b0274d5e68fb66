"""Structured execution tracing.

:class:`Tracer` records the control-relevant events of a run — forks,
joins firing, label and prompt pops, captures, reinstatements, and
optionally task switches — as typed records, and renders them as a
readable timeline.  It exists for three consumers: debugging control
operators, the teaching examples, and tests that assert on *event
sequences* rather than just final values.

A tracer is a view, not a second event source.  The machine's notify
points (``notify_fork`` / ``notify_label_pop`` / ``notify_join_fire`` /
``notify_capture`` / ``notify_reinstate``) bump a stats counter and
emit one instant into the machine's :class:`~repro.obs.recorder.Recorder`
in the same call, from both engines, at the moment the operation
happens.  The tracer reads the control instants that recorder took
between entering and leaving its ``with`` block, so counted == emitted
holds for it exactly as for the recorder — whatever the engine or
quantum, and when the evaluation aborts mid-quantum.

The recorder is the machine's own when it has an enabled one (a host's
shared recorder keeps receiving every event while the tracer reads its
window; on a recorder several machines share, the window holds all of
their instants).  Otherwise the tracer attaches a private recorder for
the block and puts the machine's back on exit.

The per-step trace hook is only installed when task-switch events are
requested (``record_switches=True``); it adds ``task-switch`` instants
to the same recorder.  A plain trace leaves the batched run loop
un-spilled.

Usage::

    interp = Interpreter()
    with Tracer(interp.machine) as tracer:
        interp.eval("(spawn (lambda (c) (c (lambda (k) (k 1)))))")
    print(tracer.render())
    tracer.events_of_kind("capture")   # -> [TraceEvent(...)]

A tracer instance may be reused: each ``with`` block starts a fresh
event list.  Nested entry of the *same* instance is a bug and raises.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.machine.task import Task
from repro.obs.recorder import Recorder

if TYPE_CHECKING:  # pragma: no cover
    from repro.machine.scheduler import Machine

__all__ = ["TraceEvent", "Tracer"]

#: The recorder instants a trace shows.
_KINDS = frozenset(
    ("fork", "join-fire", "label-pop", "prompt-pop", "capture", "reinstate", "task-switch")
)

#: Capacity of the private recorder: the ring also holds the quantum
#: and pump events a trace skips, and the trace must not lose its own.
_PRIVATE_CAPACITY = 1 << 20


@dataclass(frozen=True)
class TraceEvent:
    """One recorded event."""

    step: int
    kind: str  # fork | join-fire | label-pop | prompt-pop |
    #            capture | reinstate | task-switch
    detail: str


class Tracer:
    """The control instants a machine emits, over one ``with`` block."""

    def __init__(self, machine: "Machine", record_switches: bool = False):
        self.machine = machine
        self.record_switches = record_switches
        self._events: list[TraceEvent] = []
        self._recorder: Recorder | None = None  # the one read, while active
        self._mark = 0
        self._saved_recorder: Recorder | None = None
        self._saved_hook: Any = None
        self._last_task_uid: int | None = None
        self._entered = False

    # -- context manager -----------------------------------------------------

    def __enter__(self) -> "Tracer":
        if self._entered:
            raise RuntimeError(
                "Tracer is not re-entrant: this instance is already active "
                "(sequential reuse across separate `with` blocks is fine)"
            )
        self._entered = True
        # Fresh per-run state: reusing one instance must not interleave
        # a previous run's events or task-switch cursor with this run.
        self._events = []
        self._last_task_uid = None
        machine = self.machine
        rec = self._saved_recorder = machine.recorder
        if rec is None or not rec.enabled:
            rec = machine.recorder = Recorder(capacity=_PRIVATE_CAPACITY)
        self._recorder = rec
        self._mark = rec.appended
        if self.record_switches:
            # Task-switch detection genuinely needs to see every step;
            # only then do we pay for per-step spills in the batched
            # run loop.
            previous = self._saved_hook = machine.trace_hook

            def hook(machine_: "Machine", task: Task) -> None:
                if previous is not None:
                    previous(machine_, task)
                if task.uid != self._last_task_uid:
                    self._last_task_uid = task.uid
                    rec.emit("task-switch", f"-> task {task.uid}", step=machine_.steps_total)

            machine.trace_hook = hook
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self._events = self._window()
        if self._recorder is not self._saved_recorder:
            self.machine.recorder = self._saved_recorder
        self._recorder = None
        if self.record_switches:
            self.machine.trace_hook = self._saved_hook
        self._entered = False

    # -- queries ---------------------------------------------------------------

    def _window(self) -> list[TraceEvent]:
        assert self._recorder is not None
        return [
            TraceEvent(e.step, e.name, e.detail)
            for e in self._recorder.events_since(self._mark)
            if e.phase == "i" and e.name in _KINDS
        ]

    @property
    def events(self) -> list[TraceEvent]:
        """The traced events, oldest first (read live while active)."""
        return self._window() if self._recorder is not None else self._events

    def events_of_kind(self, kind: str) -> list[TraceEvent]:
        return [e for e in self.events if e.kind == kind]

    def kinds(self) -> list[str]:
        """The event-kind sequence (for order assertions)."""
        return [e.kind for e in self.events]

    def render(self) -> str:
        """A readable timeline."""
        lines = [f"{'step':>7s}  event"]
        for event in self.events:
            lines.append(f"{event.step:7d}  {event.kind:12s} {event.detail}")
        return "\n".join(lines)
