"""The run loop.

The machine's transition relation is unchanged from the seed — the
three control shapes are:

* ``(EVAL, code)`` — run a code thunk (or decompose a plain IR node),
  pushing frames;
* ``(VALUE, v)`` — deliver a value to the top frame, or through the
  segment's link when the segment is empty;
* ``(APPLY, fn, args)`` — apply a procedure value.

:func:`run_quantum_compiled` executes up to ``budget`` transitions in
one Python frame, holding the control registers in Python locals and
writing them back to the :class:`~repro.machine.task.Task` only at
quantum exit.  This is the register-machine move of Biernacka,
Biernacki & Danvy: relocating state into locals without changing the
transition relation.  Both engines run it: ``compiled`` code thunks
(:mod:`repro.ir.compile`) and ``codegen``'s emitted functions
(:mod:`repro.ir.codegen`) obey the same thunk contract.  Plain IR
nodes — the expander dialect ``Machine.begin_eval`` accepts
unresolved, and resolved nodes never compiled — take the dispatch
tables below, so every IR dialect runs on this one loop.

The load-bearing design element is the **spill protocol** (see
docs/IMPLEMENTATION.md for the contract ``control/*.py`` authors must
follow).  Before any operation that can observe or mutate task state
from outside the loop, the loop spills its locals back into the task,
delegates, then reloads (or exits, if the task left the RUNNABLE
state).  Spill causes:

* a delegated application — :class:`ControlPrimitive` or
  :class:`MachineApplicable` (controllers, continuations), which may
  capture the task's frame chain or rewrite the tree;
* ``pcall`` forking and every other dispatch-table fallback;
* link delivery (``HaltLink``/``LabelLink``/``ForkLink`` — the
  control points);
* task suspension (futures' ``touch``) and quantum/budget exhaustion;
* an installed trace hook, which forces a spill before *every*
  transition so tracing observes every per-step state.

One loop iteration is one observable machine step, so preemption
fairness, step budgets, and the engine×policy differential matrix are
preserved transition-for-transition.

Transition functions follow a uniform **return convention**: they
return the next control pair ``(tag, payload)`` — never storing it —
or ``None``, meaning external surgery happened and the caller must
reload from the task (or stop, if the task is no longer runnable).
Code thunks follow the same convention.
"""

from __future__ import annotations

from time import monotonic as _monotonic
from types import FunctionType
from typing import TYPE_CHECKING, Any, Callable

from repro.datum import UNSPECIFIED, from_pylist
from repro.errors import (
    ControlError,
    MachineError,
    UnboundVariableError,
    WrongTypeError,
)
from repro.ir import (
    App,
    Const,
    DefineTop,
    GlobalRef,
    GlobalSet,
    If,
    Lambda,
    LocalRef,
    LocalSet,
    Pcall,
    Seq,
    SetBang,
    Var,
)
from repro.machine.environment import UNBOUND, Environment, SlotRib
from repro.machine.frames import (
    AppFrame,
    DefineFrame,
    GlobalSetFrame,
    IfFrame,
    LocalSetFrame,
    SeqFrame,
    SetFrame,
)
from repro.machine.links import ForkLink, HaltLink, Join, LabelLink
from repro.machine.task import APPLY, EVAL, HOLE, VALUE, Task, TaskState
from repro.machine.tree import replace_child
from repro.machine.values import (
    Closure,
    ControlPrimitive,
    MachineApplicable,
    Primitive,
    check_arity,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.machine.scheduler import Machine

__all__ = ["run_quantum_compiled", "apply_procedure", "apply_deliver"]

_RUNNABLE = TaskState.RUNNABLE

# ---------------------------------------------------------------------------
# The run loop
# ---------------------------------------------------------------------------


def run_quantum_compiled(
    machine: "Machine",
    task: Task,
    budget: int,
    limit: int,
    *,
    # Keyword-only defaults bind the hot globals as locals (LOAD_FAST
    # instead of LOAD_GLOBAL on every transition); callers never pass
    # them.
    EVAL: Any = EVAL,
    VALUE: Any = VALUE,
    APPLY: Any = APPLY,
    FunctionType: Any = FunctionType,
    _RUNNABLE: Any = _RUNNABLE,
    AppFrame: Any = AppFrame,
    IfFrame: Any = IfFrame,
    SeqFrame: Any = SeqFrame,
    Closure: Any = Closure,
    Primitive: Any = Primitive,
    SlotRib: Any = SlotRib,
) -> int:
    """Run ``task`` for up to ``budget`` transitions; return the number
    taken.

    ``limit`` (at least ``budget``) lets a lone task run on past
    ``budget``, one quantum at a time, up to ``limit`` transitions in
    all; ``limit=budget`` runs exactly one quantum.  At each quantum
    boundary the loop carries on only while the machine's run queue is
    empty and its deadline has not passed.  Round-robin would then pick
    this task again, so the steps taken are exactly those of one call
    per quantum.

    The control tag/payload live in locals; frames and environment stay
    on the task because the code thunks read and push them directly
    (the thunks *are* inside the loop's trust boundary — they follow
    the same return convention).  The EVAL arm is one indirect call;
    the VALUE arm inlines AppFrame/IfFrame/SeqFrame delivery with the
    closure/primitive apply fast path (precomputed arity windows).
    """
    base_total = machine.steps_total
    base_steps = task.steps
    profile = machine.profile
    vm = machine.vm_stats
    # Hooks are installed between runs (trace.py, invariants.py), never
    # by a transition, so one read per quantum suffices.
    hook = machine.trace_hook
    tag = task.tag
    payload = task.payload
    steps = 0
    spills = 0
    try:
        while True:
            if steps >= budget:
                # A quantum boundary: extend only where step_n would
                # re-pick this task, and read the clock once per quantum
                # as step_n does.
                if steps >= limit or machine.queue:
                    break
                deadline = machine.deadline
                if deadline is not None and _monotonic() >= deadline:
                    break
                budget = min(budget + machine.quantum, limit)
            if hook is not None:
                task.tag = tag
                task.payload = payload
                machine.steps_total = base_total + steps
                task.steps = base_steps + steps
                hook(machine, task)
                tag = task.tag
                payload = task.payload
                spills += 1
                if profile:
                    vm["vm_spill_trace"] += 1
            steps += 1
            if tag is EVAL:
                code = payload
                if code.__class__ is FunctionType:
                    result = code(machine, task)
                    if result is not None:
                        tag, payload = result
                        continue
                    # External surgery inside the thunk (pcall fork,
                    # control primitive via apply_deliver).
                    spills += 1
                    if profile:
                        vm["vm_spill_control"] += 1
                    if task.state is not _RUNNABLE:
                        return steps
                    tag = task.tag
                    payload = task.payload
                    continue
                # Raw-IR fallback: plain nodes from begin_eval, or
                # bodies of closures restored from an old snapshot.
                handler = _EVAL_DISPATCH.get(code.__class__)
                if handler is None:
                    raise MachineError(f"cannot evaluate IR node: {code!r}")
                task.tag = tag
                task.payload = payload
                result = handler(machine, task, code)
                spills += 1
                if profile:
                    vm["vm_spill_fallback"] += 1
                if task.state is not _RUNNABLE:
                    return steps
                if result is None:
                    tag = task.tag
                    payload = task.payload
                else:
                    tag, payload = result
                continue
            if tag is VALUE:
                value = payload
                frame = task.frames
                if frame is not None:
                    fkind = frame.__class__
                    if fkind is AppFrame:
                        task.frames = frame.next
                        done = frame.done + (value,)
                        pending = frame.pending
                        env = frame.env
                        index = 0
                        npend = len(pending)
                        if npend:
                            folded = None
                            while index < npend:
                                code = pending[index]
                                if code.__class__ is not FunctionType:
                                    break
                                triv = code.triv
                                if triv is None:
                                    break
                                if folded is None:
                                    folded = [triv(env)]
                                else:
                                    folded.append(triv(env))
                                index += 1
                            if folded is not None:
                                done = done + tuple(folded)
                        if index == npend:
                            fn = done[0]
                            args = list(done[1:])
                            fcls = fn.__class__
                            if fcls is Closure:
                                nargs = len(args)
                                if nargs < fn.low or (
                                    fn.high is not None and nargs > fn.high
                                ):
                                    fn.check_arity(nargs)
                                nslots = fn.nslots
                                if nslots is not None:
                                    if nslots:
                                        if fn.rest is None:
                                            values = args
                                        else:
                                            nparams = fn.low
                                            values = args[:nparams]
                                            values.append(
                                                from_pylist(args[nparams:])
                                            )
                                        task.env = SlotRib(values, fn.env)
                                    else:
                                        task.env = fn.env
                                    tag = EVAL
                                    payload = fn.body
                                    continue
                                # Unresolved closure: a dict rib.
                                bindings = dict(zip(fn.params, args))
                                if fn.rest is not None:
                                    bindings[fn.rest] = from_pylist(args[fn.low :])
                                task.env = Environment(
                                    bindings, fn.env, fn.env.globals
                                )
                                tag = EVAL
                                payload = fn.body
                                continue
                            if fcls is Primitive:
                                nargs = len(args)
                                if nargs < fn.low or (
                                    fn.high is not None and nargs > fn.high
                                ):
                                    check_arity(fn.name, nargs, fn.low, fn.high)
                                tag = VALUE
                                payload = fn.fn(*args)
                                continue
                            # Controllers/continuations: spill, delegate.
                            task.tag = tag
                            task.payload = payload
                            result = apply_procedure(machine, task, fn, args)
                            spills += 1
                            if profile:
                                vm["vm_spill_apply"] += 1
                            if task.state is not _RUNNABLE:
                                return steps
                            if result is None:
                                tag = task.tag
                                payload = task.payload
                            else:
                                tag, payload = result
                            continue
                        following = pending[index]
                        task.frames = AppFrame(
                            done, pending[index + 1 :], env, task.frames
                        )
                        task.env = env
                        if following.__class__ is FunctionType:
                            result = following(machine, task)
                            if result is not None:
                                tag, payload = result
                                continue
                            spills += 1
                            if profile:
                                vm["vm_spill_control"] += 1
                            if task.state is not _RUNNABLE:
                                return steps
                            tag = task.tag
                            payload = task.payload
                            continue
                        tag = EVAL
                        payload = following
                        continue
                    if fkind is IfFrame:
                        task.frames = frame.next
                        task.env = frame.env
                        branch = frame.then if value is not False else frame.els
                        if branch.__class__ is FunctionType:
                            result = branch(machine, task)
                            if result is not None:
                                tag, payload = result
                                continue
                            spills += 1
                            if profile:
                                vm["vm_spill_control"] += 1
                            if task.state is not _RUNNABLE:
                                return steps
                            tag = task.tag
                            payload = task.payload
                            continue
                        tag = EVAL
                        payload = branch
                        continue
                    if fkind is SeqFrame:
                        remaining = frame.remaining
                        task.frames = frame.next
                        if len(remaining) > 1:
                            task.frames = SeqFrame(
                                remaining[1:], frame.env, task.frames
                            )
                        task.env = frame.env
                        following = remaining[0]
                        if following.__class__ is FunctionType:
                            result = following(machine, task)
                            if result is not None:
                                tag, payload = result
                                continue
                            spills += 1
                            if profile:
                                vm["vm_spill_control"] += 1
                            if task.state is not _RUNNABLE:
                                return steps
                            tag = task.tag
                            payload = task.payload
                            continue
                        tag = EVAL
                        payload = following
                        continue
                    handler = _FRAME_DISPATCH.get(fkind)
                    if handler is None:  # pragma: no cover - defensive
                        raise MachineError(f"unknown frame: {frame!r}")
                    task.tag = tag
                    task.payload = payload
                    task.frames = frame.next
                    result = handler(machine, task, frame, value)
                    spills += 1
                    if profile:
                        vm["vm_spill_fallback"] += 1
                    if task.state is not _RUNNABLE:
                        return steps
                    if result is None:
                        tag = task.tag
                        payload = task.payload
                    else:
                        tag, payload = result
                    continue
                # Segment exhausted: link delivery (a control point).
                task.tag = tag
                task.payload = payload
                _deliver_through_link(machine, task, value)
                spills += 1
                if profile:
                    vm["vm_spill_control"] += 1
                if task.state is not _RUNNABLE:
                    return steps
                continue  # tag/payload still (VALUE, value): label pop
            if tag is APPLY:
                fn_args = payload
                task.tag = tag
                task.payload = payload
                result = apply_procedure(machine, task, fn_args[0], fn_args[1])
                spills += 1
                if profile:
                    vm["vm_spill_apply"] += 1
                if task.state is not _RUNNABLE:
                    return steps
                if result is None:
                    tag = task.tag
                    payload = task.payload
                else:
                    tag, payload = result
                continue
            if tag is HOLE:  # pragma: no cover - scheduler never runs holes
                raise MachineError(
                    "attempted to step the hole of a captured continuation"
                )
            raise MachineError(f"unknown control tag: {tag!r}")
        task.tag = tag
        task.payload = payload
        spills += 1
        return steps
    finally:
        machine.steps_total = base_total + steps
        task.steps = base_steps + steps
        if profile:
            vm["vm_quanta"] += 1
            vm["vm_quantum_steps"] += steps
            avoided = steps - spills
            if avoided > 0:
                vm["vm_allocations_avoided"] += avoided
            if task.state is _RUNNABLE:
                vm["vm_spill_budget"] += 1
            else:
                vm["vm_spill_suspend"] += 1


def apply_deliver(
    machine: "Machine", task: Task, fn: Any, args: list[Any]
) -> tuple[Any, Any] | None:
    """Apply with primitive-result delivery fused in.

    Used by code thunks for fully trivial applications: when ``fn``
    turns out to be a :class:`Primitive`, its result is delivered
    through at most *one* frame within the same step — the common
    ``(op ... (prim ...) ...)`` shape costs one step instead of two.
    The delivery never invokes another code thunk and the post-pop
    apply is the plain one, so at most one extra transition fuses here:
    per-step work stays bounded by static expression size, and a return
    cascade through dynamically accumulated frames still costs one step
    per frame.  Everything that is not a ``Primitive`` (closures,
    control primitives, continuations) takes :func:`apply_procedure`
    unchanged.  Follows the transition return convention.
    """
    if fn.__class__ is not Primitive:
        return apply_procedure(machine, task, fn, args)
    nargs = len(args)
    if nargs < fn.low or (fn.high is not None and nargs > fn.high):
        check_arity(fn.name, nargs, fn.low, fn.high)
    value = fn.fn(*args)
    frame = task.frames
    if frame is None:
        return (VALUE, value)
    frame_kind = frame.__class__
    if frame_kind is AppFrame:
        task.frames = frame.next
        done = frame.done + (value,)
        pending = frame.pending
        env = frame.env
        index = 0
        npend = len(pending)
        if npend:
            folded = None
            while index < npend:
                code = pending[index]
                if code.__class__ is not FunctionType:
                    break
                triv = code.triv
                if triv is None:
                    break
                if folded is None:
                    folded = [triv(env)]
                else:
                    folded.append(triv(env))
                index += 1
            if folded is not None:
                done = done + tuple(folded)
        if index == npend:
            return apply_procedure(machine, task, done[0], list(done[1:]))
        task.frames = AppFrame(done, pending[index + 1 :], env, task.frames)
        task.env = env
        return (EVAL, pending[index])
    if frame_kind is IfFrame:
        task.frames = frame.next
        task.env = frame.env
        return (EVAL, frame.then if value is not False else frame.els)
    return (VALUE, value)


# ---------------------------------------------------------------------------
# The raw-IR fallback — one EVAL handler per node type, dispatched by type
# ---------------------------------------------------------------------------
#
# The run loop reaches these for plain IR nodes: the expander's dialect
# that ``Machine.begin_eval``/``eval_node`` accept unresolved (``Var``,
# ``SetBang``, dict-rib closures), resolved nodes that were never
# compiled, and frame slots holding either.  Handlers follow the
# transition return convention: they return the next (tag, payload)
# pair, or None after external surgery (pcall).  They may read and
# mutate task.frames/task.env — the run loop spills those registers
# first.


def _eval_const(machine: "Machine", task: Task, node: Const):
    return (VALUE, node.value)


def _eval_var(machine: "Machine", task: Task, node: Var):
    return (VALUE, task.env.lookup(node.name))


def _eval_local_ref(machine: "Machine", task: Task, node: LocalRef):
    env = task.env
    depth = node.depth
    while depth:
        env = env.parent
        depth -= 1
    return (VALUE, env.values[node.index])


def _eval_global_ref(machine: "Machine", task: Task, node: GlobalRef):
    value = node.cell.value
    if value is UNBOUND:
        raise UnboundVariableError(node.cell.name.name)
    return (VALUE, value)


def _eval_lambda(machine: "Machine", task: Task, node: Lambda):
    return (
        VALUE,
        Closure(node.params, node.rest, node.body, task.env, node.name, node.nslots),
    )


def _eval_app(machine: "Machine", task: Task, node: App):
    task.frames = AppFrame((), node.args, task.env, task.frames)
    return (EVAL, node.fn)


def _eval_if(machine: "Machine", task: Task, node: If):
    task.frames = IfFrame(node.then, node.els, task.env, task.frames)
    return (EVAL, node.test)


def _eval_seq(machine: "Machine", task: Task, node: Seq):
    exprs = node.exprs
    if len(exprs) > 1:
        task.frames = SeqFrame(exprs[1:], task.env, task.frames)
    return (EVAL, exprs[0])


def _eval_set(machine: "Machine", task: Task, node: SetBang):
    task.frames = SetFrame(node.name, task.env, task.frames)
    return (EVAL, node.expr)


def _eval_local_set(machine: "Machine", task: Task, node: LocalSet):
    task.frames = LocalSetFrame(node.depth, node.index, task.env, task.frames)
    return (EVAL, node.expr)


def _eval_global_set(machine: "Machine", task: Task, node: GlobalSet):
    task.frames = GlobalSetFrame(node.cell, task.frames)
    return (EVAL, node.expr)


def _eval_define(machine: "Machine", task: Task, node: DefineTop):
    task.frames = DefineFrame(node.name, task.env, task.frames)
    return (EVAL, node.expr)


def _eval_pcall(machine: "Machine", task: Task, node: Pcall):
    """Fork: the task's position is taken over by a Join; one fresh
    branch task per subexpression."""
    join = Join(len(node.exprs), task.frames, task.link)
    replace_child(task.link, join)
    task.state = TaskState.DEAD
    for index, expr in enumerate(node.exprs):
        branch = Task((EVAL, expr), task.env, None, ForkLink(join, index))
        join.children[index] = branch
        machine.spawn_task(branch)
    machine.notify_fork(join)
    return None


_EVAL_DISPATCH: dict[type, Callable[["Machine", Task, Any], Any]] = {
    Const: _eval_const,
    Var: _eval_var,
    LocalRef: _eval_local_ref,
    GlobalRef: _eval_global_ref,
    Lambda: _eval_lambda,
    App: _eval_app,
    If: _eval_if,
    Seq: _eval_seq,
    SetBang: _eval_set,
    LocalSet: _eval_local_set,
    GlobalSet: _eval_global_set,
    DefineTop: _eval_define,
    Pcall: _eval_pcall,
}


# ---------------------------------------------------------------------------
# VALUE delivery — the assignment frames, dispatched by type
# ---------------------------------------------------------------------------
#
# The run loop delivers into AppFrame/IfFrame/SeqFrame inline; only the
# assignment and definition frames come here.  Same return convention
# as the EVAL handlers.  The caller has already popped the frame
# (task.frames = frame.next).


def _frame_set(machine: "Machine", task: Task, frame: SetFrame, value: Any):
    frame.env.assign(frame.name, value)
    return (VALUE, UNSPECIFIED)


def _frame_local_set(machine: "Machine", task: Task, frame: LocalSetFrame, value: Any):
    env = frame.env
    depth = frame.depth
    while depth:
        env = env.parent
        depth -= 1
    env.values[frame.index] = value
    return (VALUE, UNSPECIFIED)


def _frame_global_set(
    machine: "Machine", task: Task, frame: GlobalSetFrame, value: Any
):
    cell = frame.cell
    if cell.value is UNBOUND:
        raise UnboundVariableError(cell.name.name)
    cell.value = value
    return (VALUE, UNSPECIFIED)


def _frame_define(machine: "Machine", task: Task, frame: DefineFrame, value: Any):
    frame.env.globals.define(frame.name, value)
    return (VALUE, UNSPECIFIED)


_FRAME_DISPATCH: dict[type, Callable[["Machine", Task, Any, Any], Any]] = {
    SetFrame: _frame_set,
    LocalSetFrame: _frame_local_set,
    GlobalSetFrame: _frame_global_set,
    DefineFrame: _frame_define,
}


def _deliver_through_link(machine: "Machine", task: Task, value: Any) -> None:
    # Segment exhausted: deliver through the link.
    link = task.link
    if isinstance(link, HaltLink):
        task.state = TaskState.DEAD
        if link.placeholder is not None:
            link.placeholder.resolve(machine, value)
        else:
            machine.halt(value)
        return
    if isinstance(link, LabelLink):
        # Normal return from a process: the root is removed (the
        # controller becomes invalid, structurally) and the value flows
        # into the continuation above.
        task.frames = link.cont_frames
        task.link = link.cont_link  # type: ignore[assignment]
        replace_child(task.link, task)
        machine.notify_label_pop(link)
        return
    if isinstance(link, ForkLink):
        join = link.join
        index = link.index
        if join.delivered[index]:
            raise ControlError(
                "a value arrived twice at the same pcall branch — a "
                "traditional continuation crossed a completed fork "
                "(Section 3's failure mode)"
            )
        join.slots[index] = value
        join.delivered[index] = True
        join.children[index] = None
        join.remaining -= 1
        task.state = TaskState.DEAD
        if join.remaining == 0:
            successor = Task(
                (APPLY, join.slots[0], list(join.slots[1:])),
                task.env,
                join.cont_frames,
                join.cont_link,  # type: ignore[arg-type]
            )
            replace_child(join.cont_link, successor)  # type: ignore[arg-type]
            machine.spawn_task(successor)
            machine.notify_join_fire(join)
        return
    raise MachineError(f"unknown link: {link!r}")  # pragma: no cover


# ---------------------------------------------------------------------------
# APPLY
# ---------------------------------------------------------------------------


def apply_procedure(
    machine: "Machine", task: Task, fn: Any, args: list[Any]
) -> tuple[Any, Any] | None:
    """Apply ``fn`` to ``args`` in ``task``, following the transition
    return convention.

    Closures and primitives take the fast path: the arity window is
    precomputed at construction (``fn.low``/``fn.high``), so the happy
    path is two int compares with :func:`check_arity` called only to
    raise.  Control primitives and :class:`MachineApplicable` values
    (controllers, continuations) perform machine surgery and return
    ``None`` — callers must reload the task's registers or stop if the
    task left the RUNNABLE state.
    """
    kind = fn.__class__
    if kind is Closure:
        nargs = len(args)
        if nargs < fn.low or (fn.high is not None and nargs > fn.high):
            fn.check_arity(nargs)
        nslots = fn.nslots
        if nslots is not None:
            # Resolved body: one flat rib of exactly nslots slots.
            # Thunks (nslots == 0) reuse the captured environment.
            if nslots:
                if fn.rest is None:
                    values = args
                else:
                    nparams = fn.low
                    values = args[:nparams]
                    values.append(from_pylist(args[nparams:]))
                task.env = SlotRib(values, fn.env)
            else:
                task.env = fn.env
            return (EVAL, fn.body)
        bindings = dict(zip(fn.params, args))
        if fn.rest is not None:
            bindings[fn.rest] = from_pylist(args[fn.low :])
        task.env = Environment(bindings, fn.env, fn.env.globals)
        return (EVAL, fn.body)
    if kind is Primitive:
        nargs = len(args)
        if nargs < fn.low or (fn.high is not None and nargs > fn.high):
            check_arity(fn.name, nargs, fn.low, fn.high)
        return (VALUE, fn.fn(*args))
    if kind is ControlPrimitive:
        fn.apply(machine, task, args)
        return None
    if isinstance(fn, MachineApplicable):
        fn.machine_apply(machine, task, args)
        return None
    raise WrongTypeError(f"attempt to apply non-procedure: {fn!r}")
