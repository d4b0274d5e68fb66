"""Engines in the Scheme machine — reference [6] at the machine level.

Dybvig & Hieb's "Engines from Continuations" builds bounded
computations from continuation capture plus a timer.  Here the timer is
the machine's step counter and the captured computation is an entire
paused process tree: each engine owns a private :class:`Machine`
(sharing the caller's global environment — the store is one), stepped
in fuel-sized slices.

Scheme API::

    (make-engine thunk)                  ; → engine
    (engine-run engine fuel success failure)
        ;; runs ≤ fuel machine steps:
        ;;   completes → (success value remaining-fuel)
        ;;   expires   → (failure engine)   ; same engine, re-armed
    (engine? x)

Engines may spawn, fork and use controllers internally — a whole
process tree is suspended between slices.  A controller created inside
an engine is invalid outside it (separate trees, Section 8's isolation,
enforced structurally).  Engines nest: an engine can run engines.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.counters import SerialCounter
from repro.datum import intern
from repro.errors import DeadlineExceeded, SchemeError, WrongTypeError
from repro.machine.environment import GlobalEnv
from repro.machine.task import APPLY, VALUE, Task
from repro.machine.values import ControlPrimitive

if TYPE_CHECKING:  # pragma: no cover
    from repro.machine.scheduler import Machine

__all__ = ["EngineValue", "register_engine_primitives"]

_ids = SerialCounter()


class EngineValue:
    """A paused bounded computation (a private machine mid-run)."""

    __slots__ = ("uid", "machine", "spent", "mileage")

    def __init__(self, machine: "Machine"):
        self.uid = next(_ids)
        self.machine = machine
        self.spent = False
        self.mileage = 0

    def __repr__(self) -> str:
        state = "spent" if self.spent else f"mileage={self.mileage}"
        return f"#<engine {self.uid} {state}>"


def _make_engine(machine: "Machine", task: Task, args: list[Any]) -> None:
    from repro.machine.scheduler import Machine

    thunk = args[0]
    # Seeded from the parent's RNG, so a seeded random-policy session
    # schedules its engines the same way on every run.
    sub = Machine(
        machine.globals,
        policy=machine.policy,
        seed=machine.rng.getrandbits(64),
        quantum=machine.quantum,
        engine=machine.engine,
    )
    sub.begin_apply(thunk, [])
    task.tag = VALUE
    task.payload = EngineValue(sub)


def _engine_run(machine: "Machine", task: Task, args: list[Any]) -> None:
    engine, fuel, success, failure = args
    if not isinstance(engine, EngineValue):
        raise WrongTypeError(f"engine-run: not an engine: {engine!r}")
    if isinstance(fuel, bool) or not isinstance(fuel, int) or fuel <= 0:
        raise SchemeError(f"engine-run: fuel must be a positive integer, got {fuel!r}")
    if engine.spent:
        raise SchemeError("engine-run: engine already completed")
    sub = engine.machine
    # The sub-machine runs entirely inside one step of the outer
    # machine, so the outer wall-clock deadline (the host's per-request
    # budget) must be visible to it — otherwise a large fuel could
    # outlive the deadline unpreempted.
    sub.deadline = machine.deadline
    start = sub.steps_total
    try:
        halted = sub.step_n(fuel)
    except DeadlineExceeded as exc:
        # Cut inside one outer step: how far the engine got depends on
        # the clock, so no step count can replay this request.
        exc.mid_step = True
        raise
    used = sub.steps_total - start
    engine.mileage += used
    if halted:
        engine.spent = True
        value = sub.finish()  # collects the halt value, parks futures
        task.tag = APPLY
        task.payload = (success, [value, fuel - used])
    else:
        task.tag = APPLY
        task.payload = (failure, [engine])


def _is_engine(machine: "Machine", task: Task, args: list[Any]) -> None:
    task.tag = VALUE
    task.payload = isinstance(args[0], EngineValue)


def _engine_mileage(machine: "Machine", task: Task, args: list[Any]) -> None:
    engine = args[0]
    if not isinstance(engine, EngineValue):
        raise WrongTypeError(f"engine-mileage: not an engine: {engine!r}")
    task.tag = VALUE
    task.payload = engine.mileage


def register_engine_primitives(globals_: GlobalEnv) -> None:
    """Bind ``make-engine``, ``engine-run``, ``engine?``,
    ``engine-mileage``."""
    entries = [
        ("make-engine", _make_engine, 1, 1),
        ("engine-run", _engine_run, 4, 4),
        ("engine?", _is_engine, 1, 1),
        ("engine-mileage", _engine_mileage, 1, 1),
    ]
    for name, fn, low, high in entries:
        globals_.define(intern(name), ControlPrimitive(name, fn, low, high))
