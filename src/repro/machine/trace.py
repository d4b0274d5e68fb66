"""Structured execution tracing.

:class:`Tracer` records the control-relevant events of a run — forks,
joins firing, spawns, label pops, captures, reinstatements, task
lifecycle — as typed records, and renders them as a readable timeline.
It exists for three consumers: debugging control operators, the
teaching examples, and tests that assert on *event sequences* rather
than just final values.

Every event comes from one of the machine's notify points
(``notify_fork`` / ``notify_label_pop`` / ``notify_join_fire`` /
``notify_capture`` / ``notify_reinstate``), which both engines
call from shared code at the moment the operation happens.  That makes
counted == emitted an invariant: exactly one event per unit of the
corresponding stats counter, regardless of engine, quantum, or whether
the evaluation aborts mid-quantum.  (The seed implementation instead
*sniffed* the capture/reinstate counters from a per-step trace hook and
emitted at most one event per hook interval — events were lost whenever
no further step ran after the counter bump, e.g. a step-budget abort
right after a capture, and were attributed to whichever task happened
to run next.)

The per-step trace hook is now only installed when task-switch events
are requested (``record_switches=True``); a plain trace leaves the
batched run loop un-spilled.

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

from repro.machine.links import Join, LabelLink, PromptLabel
from repro.machine.task import Task

if TYPE_CHECKING:  # pragma: no cover
    from repro.machine.scheduler import Machine

__all__ = ["TraceEvent", "Tracer"]


@dataclass(frozen=True)
class TraceEvent:
    """One recorded event."""

    step: int
    kind: str  # fork | join-fire | spawn | label-pop | prompt-pop |
    #            capture | reinstate | task-switch
    detail: str


class Tracer:
    """Hooks a machine's notification points and records events.

    The machine calls ``notify_fork`` / ``notify_label_pop`` /
    ``notify_join_fire`` / ``notify_capture`` / ``notify_reinstate``
    for every control operation; the tracer wraps all five (and, when
    ``record_switches=True``, the per-step trace hook), restoring
    everything on exit.
    """

    def __init__(self, machine: "Machine", record_switches: bool = False):
        self.machine = machine
        self.record_switches = record_switches
        self.events: list[TraceEvent] = []
        self._saved: dict[str, Any] = {}
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
        self.events = []
        self._last_task_uid = None
        machine = self.machine
        self._saved = {
            "notify_fork": machine.notify_fork,
            "notify_label_pop": machine.notify_label_pop,
            "notify_join_fire": machine.notify_join_fire,
            "notify_capture": machine.notify_capture,
            "notify_reinstate": machine.notify_reinstate,
            "trace_hook": machine.trace_hook,
        }

        def on_fork(join: Join) -> None:
            self._saved["notify_fork"](join)
            self._emit("fork", f"{len(join.slots)} branches")

        def on_label_pop(link: LabelLink) -> None:
            self._saved["notify_label_pop"](link)
            kind = "prompt-pop" if isinstance(link.label, PromptLabel) else "label-pop"
            self._emit(kind, link.label.name)

        def on_join_fire(join: Join) -> None:
            self._saved["notify_join_fire"](join)
            self._emit("join-fire", f"{len(join.slots)} values")

        def on_capture(task: Task, kind: str = "") -> None:
            self._saved["notify_capture"](task, kind)
            self._emit("capture", f"by task {task.uid}")

        def on_reinstate(task: Task, kind: str = "") -> None:
            self._saved["notify_reinstate"](task, kind)
            self._emit("reinstate", f"by task {task.uid}")

        machine.notify_fork = on_fork  # type: ignore[method-assign]
        machine.notify_label_pop = on_label_pop  # type: ignore[method-assign]
        machine.notify_join_fire = on_join_fire  # type: ignore[method-assign]
        machine.notify_capture = on_capture  # type: ignore[method-assign]
        machine.notify_reinstate = on_reinstate  # type: ignore[method-assign]

        if self.record_switches:
            # Task-switch detection genuinely needs to see every step;
            # only then do we pay for per-step spills in the batched
            # run loop.
            def hook(machine_: "Machine", task: Task) -> None:
                previous = self._saved["trace_hook"]
                if previous is not None:
                    previous(machine_, task)
                if task.uid != self._last_task_uid:
                    self._last_task_uid = task.uid
                    self._emit("task-switch", f"-> task {task.uid}")

            machine.trace_hook = hook
        return self

    def __exit__(self, *exc_info: Any) -> None:
        machine = self.machine
        machine.notify_fork = self._saved["notify_fork"]  # type: ignore[method-assign]
        machine.notify_label_pop = self._saved["notify_label_pop"]  # type: ignore[method-assign]
        machine.notify_join_fire = self._saved["notify_join_fire"]  # type: ignore[method-assign]
        machine.notify_capture = self._saved["notify_capture"]  # type: ignore[method-assign]
        machine.notify_reinstate = self._saved["notify_reinstate"]  # type: ignore[method-assign]
        if self.record_switches:
            machine.trace_hook = self._saved["trace_hook"]
        self._entered = False

    # -- recording and queries -------------------------------------------------

    def _emit(self, kind: str, detail: str) -> None:
        self.events.append(TraceEvent(self.machine.steps_total, kind, detail))

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
