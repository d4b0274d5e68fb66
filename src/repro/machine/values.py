"""Applicable machine values: closures and primitives.

The control values (controllers, process continuations, traditional
continuations, functional continuations) live in :mod:`repro.control`;
this module holds the two ordinary procedure kinds plus the shared
arity-checking helper.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable

from repro.datum import Symbol
from repro.errors import ArityError

if TYPE_CHECKING:  # pragma: no cover
    from repro.ir import Node
    from repro.machine.environment import Environment
    from repro.machine.scheduler import Machine
    from repro.machine.task import Task

__all__ = [
    "Closure",
    "MachineApplicable",
    "Primitive",
    "ControlPrimitive",
    "check_arity",
]


def check_arity(name: str, count: int, low: int, high: int | None) -> None:
    """Raise :class:`ArityError` unless ``low <= count <= high``
    (``high is None`` means unbounded)."""
    if count < low or (high is not None and count > high):
        if high == low:
            expect = str(low)
        elif high is None:
            expect = f"at least {low}"
        else:
            expect = f"{low} to {high}"
        raise ArityError(f"{name}: expected {expect} argument(s), got {count}")


class MachineApplicable:
    """Base class for values applied by machine surgery.

    Continuations and process controllers (:mod:`repro.control`) apply
    by rewriting the process tree rather than by running a body:
    ``machine_apply(machine, task, args)``.  Deriving from this class
    lets ``apply_procedure`` dispatch them with one ``isinstance``
    check instead of a per-call ``getattr`` probe.  Implementations
    follow the register/spill contract (docs/IMPLEMENTATION.md): the
    caller has spilled the task's registers, and the running task's
    control registers are dead — ``machine_apply`` must set them, kill
    the task, or suspend it with the registers set on wake.
    """

    __slots__ = ()


class Closure:
    """A user procedure: formals + body + captured environment.

    ``body`` is whatever the machine evaluates: a code thunk produced by
    :mod:`repro.ir.compile` or :mod:`repro.ir.codegen` (compiled once
    per ``lambda`` node and shared by every closure made from it), or a
    plain IR node (a lambda evaluated through the raw-IR fallback, or
    restored from an old snapshot).  Application just schedules
    ``(EVAL, body)`` either way, so closures cross freely between
    machines of different engines.

    ``nslots`` is the frame size of one application — set by the
    resolver (via ``Lambda.nslots``) when the body is resolved (or
    compiled) IR, in which case ``apply_procedure`` allocates a flat
    :class:`~repro.machine.environment.SlotRib` of exactly that many
    slots.  ``None`` means an unresolved body: applications build the
    classic per-call dict rib.

    ``low``/``high`` are the arity window, precomputed at construction
    so the apply fast path can bounds-check with two int compares and
    only falls into :func:`check_arity` to raise (``high is None``
    means a rest parameter accepts any surplus).
    """

    __slots__ = ("params", "rest", "body", "env", "name", "nslots", "low", "high")

    def __init__(
        self,
        params: tuple[Symbol, ...],
        rest: Symbol | None,
        body: "Node",
        env: "Environment",
        name: str | None = None,
        nslots: int | None = None,
    ):
        self.params = params
        self.rest = rest
        self.body = body
        self.env = env
        self.name = name
        self.nslots = nslots
        self.low = len(params)
        self.high = None if rest is not None else self.low

    def check_arity(self, count: int) -> None:
        check_arity(self.name or "#<procedure>", count, self.low, self.high)

    def __repr__(self) -> str:
        label = self.name or "anonymous"
        return f"#<procedure {label}>"


class Primitive:
    """A pure primitive: ``fn(*args) -> value``.

    The machine applies it directly and delivers the Python return
    value as the result.
    """

    __slots__ = ("name", "fn", "low", "high")

    def __init__(self, name: str, fn: Callable[..., Any], low: int, high: int | None):
        self.name = name
        self.fn = fn
        self.low = low
        self.high = high

    def apply(self, args: list[Any]) -> Any:
        check_arity(self.name, len(args), self.low, self.high)
        return self.fn(*args)

    def __repr__(self) -> str:
        return f"#<primitive {self.name}>"


class ControlPrimitive:
    """A primitive that manipulates the machine itself.

    ``fn(machine, task, args)`` performs arbitrary surgery on the
    process tree (this is how ``spawn``, ``call/cc``, ``F`` and
    ``call-with-prompt`` are wired in) and is responsible for leaving
    ``task`` — or its successors — in a consistent state.
    """

    __slots__ = ("name", "fn", "low", "high")

    def __init__(
        self,
        name: str,
        fn: Callable[["Machine", "Task", list[Any]], None],
        low: int,
        high: int | None,
    ):
        self.name = name
        self.fn = fn
        self.low = low
        self.high = high

    def apply(self, machine: "Machine", task: "Task", args: list[Any]) -> None:
        check_arity(self.name, len(args), self.low, self.high)
        self.fn(machine, task, args)

    def __repr__(self) -> str:
        return f"#<primitive {self.name}>"
