"""The closure compiler: resolved IR → code thunks.

``compile_program`` is the third pipeline stage, running after the
resolver (reader → expand → resolve → **compile** → machine).  It
translates each resolved IR node, once, into a Python closure — a
*code thunk* with signature ``code(machine, task)`` — that performs
exactly the transition the machine's raw-IR dispatch would perform
for that node, with everything the dispatch recomputes per step
(type-keyed dispatch, attribute loads, trivial-operand classification)
pre-resolved into the closure's captured variables.  This is the
functional-correspondence move of Biernacka, Biernacki & Danvy: the
compiled form is *derived from* the abstract machine, so it pushes the
same immutable :mod:`~repro.machine.frames` chains and the same
``LabelLink``/``Join`` control points.  Capture and reinstatement
(:mod:`repro.machine.tree`, :mod:`repro.control.spawn`) never look
inside a frame's expression slots, so they are untouched: compilation
is orthogonal to the paper's Section 7 claims, and the O(control
points) bound (bench E9) is preserved verbatim.

What the compiler pre-computes:

* ``LocalRef`` — the rib walk is specialised per depth (depth 0 and 1
  are direct attribute chains); the slot index is a captured int.
* ``GlobalRef``/``GlobalSet`` — the interned cell is captured; a
  reference is one attribute read at run time.
* ``App`` — operand *trivialness* (references, constants, resolved
  lambdas: anything that cannot push frames, fork, capture, or observe
  the scheduler) is decided **at compile time**.  A fully trivial
  application compiles to a single code thunk that evaluates operator
  and operands and applies immediately — no ``AppFrame`` is ever
  allocated.  A mixed application pre-builds its frame plan: the
  trivial prefix is folded into the thunk, the pending tuple holds the
  remaining operand thunks, and evaluation of the first non-trivial
  operand is fused into the same machine step.
* ``If`` — a trivial test folds into a direct branch jump (no
  ``IfFrame``); ``Seq``/``LocalSet``/``GlobalSet``/``DefineTop``
  likewise fold trivial subexpressions.
* ``Lambda`` — the body is compiled once; every closure created from
  the node shares the compiled body (``Closure.body`` holds code).

Every code thunk carries two attributes: ``triv`` — ``None``, or a
``(env) -> value`` closure usable when the node is a trivial operand —
and ``node``, the source IR node (debugging / introspection).  Frame
expression slots may therefore hold either IR nodes or code thunks;
the machine's run loop (:func:`repro.machine.step.run_quantum_compiled`)
dispatches on ``FunctionType`` and falls back to the shared node
dispatch, so values (closures included) cross freely between engines.

Fusion never recurses through an application: ``apply_procedure`` only
ever *schedules* a closure body, so a loop costs at least one machine
step per iteration and the scheduler's quantum preemption is
preserved.  Python-stack depth during one fused step is bounded by the
static nesting depth of the source expression — the same bound the
expander and resolver already impose.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.datum import UNSPECIFIED
from repro.errors import CompileError, UnboundVariableError
from repro.ir.nodes import (
    App,
    Const,
    DefineTop,
    GlobalRef,
    GlobalSet,
    If,
    Lambda,
    LocalRef,
    LocalSet,
    Node,
    Pcall,
    Seq,
    SetBang,
    Var,
)
from repro.machine.environment import UNBOUND
from repro.machine.frames import (
    AppFrame,
    DefineFrame,
    GlobalSetFrame,
    IfFrame,
    LocalSetFrame,
    SeqFrame,
)
from repro.machine.links import ForkLink, Join
from repro.machine.step import apply_deliver
from repro.machine.task import EVAL, VALUE, Task, TaskState
from repro.machine.tree import replace_child
from repro.machine.values import Closure
from repro.obs.metrics import COUNTER, Metrics, declare

__all__ = ["COMPILE_METRICS", "Code", "compile_node", "compile_program"]

#: A compiled node: ``code(machine, task)`` performs one (fused)
#: machine transition and returns the next control registers as a
#: ``(tag, payload)`` pair — or ``None`` after machine surgery (fork,
#: control operation), telling the run loop to reload from the task.
#: Attributes: ``code.triv`` (``(env) -> value`` or None), ``code.node``
#: (the source IR node).
Code = Callable[[Any, Task], "tuple[Any, Any] | None"]


#: Counters accumulated across every ``compile_program`` call of a
#: session (``compile.*`` in ``stats``).
COMPILE_METRICS = declare(
    "compile",
    [
        ("nodes", COUNTER, "IR nodes compiled"),
        ("lambdas", COUNTER, "lambdas compiled"),
        ("apps_inlined", COUNTER, "fully trivial applications collapsed into one frameless step"),
        ("tests_inlined", COUNTER, "if tests folded into a direct branch jump (no IfFrame)"),
    ],
)


def _finish(run: Code, node: Node, triv: Callable[[Any], Any] | None) -> Code:
    run.triv = triv  # type: ignore[attr-defined]
    run.node = node  # type: ignore[attr-defined]
    return run


class _Compiler:
    __slots__ = ("stats",)

    def __init__(self, stats: Metrics):
        self.stats = stats

    def compile(self, node: Node) -> Code:
        self.stats.nodes += 1
        kind = type(node)
        method = _COMPILE_DISPATCH.get(kind)
        if method is None:
            if kind is Var or kind is SetBang:
                raise CompileError(
                    f"closure compiler requires resolved IR; got unresolved "
                    f"{kind.__name__}: {node!r} (run repro.ir.resolve first)"
                )
            raise CompileError(f"cannot compile IR node: {node!r}")
        return method(self, node)

    # -- leaves --------------------------------------------------------------

    def _compile_const(self, node: Const) -> Code:
        value = node.value

        def run(machine: Any, task: Task) -> Any:
            return (VALUE, value)

        return _finish(run, node, lambda env: value)

    def _compile_local_ref(self, node: LocalRef) -> Code:
        depth = node.depth
        index = node.index
        if depth == 0:

            def triv(env: Any) -> Any:
                return env.values[index]

            def run(machine: Any, task: Task) -> Any:
                return (VALUE, task.env.values[index])

        elif depth == 1:

            def triv(env: Any) -> Any:
                return env.parent.values[index]

            def run(machine: Any, task: Task) -> Any:
                return (VALUE, task.env.parent.values[index])

        else:

            def triv(env: Any) -> Any:
                d = depth
                while d:
                    env = env.parent
                    d -= 1
                return env.values[index]

            def run(machine: Any, task: Task) -> Any:
                env = task.env
                d = depth
                while d:
                    env = env.parent
                    d -= 1
                return (VALUE, env.values[index])

        return _finish(run, node, triv)

    def _compile_global_ref(self, node: GlobalRef) -> Code:
        cell = node.cell

        def triv(env: Any) -> Any:
            value = cell.value
            if value is UNBOUND:
                raise UnboundVariableError(cell.name.name)
            return value

        def run(machine: Any, task: Task) -> Any:
            value = cell.value
            if value is UNBOUND:
                raise UnboundVariableError(cell.name.name)
            return (VALUE, value)

        return _finish(run, node, triv)

    def _compile_lambda(self, node: Lambda) -> Code:
        if node.nslots is None:
            raise CompileError(
                f"closure compiler requires resolved IR; lambda {node.name or ''!s} "
                "has no nslots (run repro.ir.resolve first)"
            )
        self.stats.lambdas += 1
        body = self.compile(node.body)
        params, rest, name, nslots = node.params, node.rest, node.name, node.nslots

        def triv(env: Any) -> Any:
            return Closure(params, rest, body, env, name, nslots)

        def run(machine: Any, task: Task) -> Any:
            return (VALUE, Closure(params, rest, body, task.env, name, nslots))

        return _finish(run, node, triv)

    # -- compounds -----------------------------------------------------------

    def _compile_app(self, node: App) -> Code:
        fn_code = self.compile(node.fn)
        arg_codes = tuple(self.compile(arg) for arg in node.args)
        fn_triv = fn_code.triv  # type: ignore[attr-defined]
        if fn_triv is None:
            # Operator needs real evaluation: classic frame plan, with
            # the operator's first transition fused into this step.
            def run(machine: Any, task: Task) -> Any:
                task.frames = AppFrame((), arg_codes, task.env, task.frames)
                return fn_code(machine, task)

            return _finish(run, node, None)

        trivs = [code.triv for code in arg_codes]  # type: ignore[attr-defined]
        split = 0
        while split < len(trivs) and trivs[split] is not None:
            split += 1
        if split == len(arg_codes):
            # Fully trivial: evaluate operator and operands in place and
            # apply immediately — no AppFrame, one machine step.  The
            # dominant shapes are specialized further: a ``GlobalRef``
            # operator becomes an inline cell load, and ``LocalRef``
            # depth-0 / ``Const`` operands become inline slot reads and
            # captured constants, so the hot arithmetic applications
            # (``(- n 1)``, ``(< y x)``…) run without a single triv
            # closure call.
            self.stats.apps_inlined += 1
            specialized = self._specialize_trivial_app(node, trivs)
            if specialized is not None:
                return _finish(specialized, node, None)
            if not trivs:

                def run(machine: Any, task: Task) -> Any:
                    return apply_deliver(machine, task, fn_triv(task.env), [])

            elif len(trivs) == 1:
                t0 = trivs[0]

                def run(machine: Any, task: Task) -> Any:
                    env = task.env
                    return apply_deliver(machine, task, fn_triv(env), [t0(env)])

            elif len(trivs) == 2:
                t0, t1 = trivs

                def run(machine: Any, task: Task) -> Any:
                    env = task.env
                    return apply_deliver(
                        machine, task, fn_triv(env), [t0(env), t1(env)]
                    )

            elif len(trivs) == 3:
                t0, t1, t2 = trivs

                def run(machine: Any, task: Task) -> Any:
                    env = task.env
                    return apply_deliver(
                        machine, task, fn_triv(env), [t0(env), t1(env), t2(env)]
                    )

            else:
                all_trivs = tuple(trivs)

                def run(machine: Any, task: Task) -> Any:
                    env = task.env
                    return apply_deliver(
                        machine,
                        task,
                        fn_triv(env),
                        [t(env) for t in all_trivs],
                    )

            return _finish(run, node, None)

        # Mixed: fold the trivial prefix into this step, push the
        # pre-built frame plan, and fuse evaluation of the first
        # non-trivial operand.  A ``GlobalRef`` operator is inlined as
        # a cell load here too.
        first = arg_codes[split]
        pending = arg_codes[split + 1 :]
        cell = node.fn.cell if type(node.fn) is GlobalRef else None
        if split == 0:
            if cell is not None:

                def run(machine: Any, task: Task) -> Any:
                    fn = cell.value
                    if fn is UNBOUND:
                        raise UnboundVariableError(cell.name.name)
                    env = task.env
                    task.frames = AppFrame((fn,), pending, env, task.frames)
                    return first(machine, task)

            else:

                def run(machine: Any, task: Task) -> Any:
                    env = task.env
                    task.frames = AppFrame((fn_triv(env),), pending, env, task.frames)
                    return first(machine, task)

        else:
            prefix = tuple(trivs[:split])
            if cell is not None:

                def run(machine: Any, task: Task) -> Any:
                    fn = cell.value
                    if fn is UNBOUND:
                        raise UnboundVariableError(cell.name.name)
                    env = task.env
                    done = [fn]
                    for t in prefix:
                        done.append(t(env))
                    task.frames = AppFrame(tuple(done), pending, env, task.frames)
                    return first(machine, task)

            else:

                def run(machine: Any, task: Task) -> Any:
                    env = task.env
                    done = [fn_triv(env)]
                    for t in prefix:
                        done.append(t(env))
                    task.frames = AppFrame(tuple(done), pending, env, task.frames)
                    return first(machine, task)

        return _finish(run, node, None)

    @staticmethod
    def _specialize_trivial_app(node: App, trivs: list) -> Code | None:
        """Build a shape-specialized thunk for a fully trivial
        application with a ``GlobalRef`` operator, or return ``None``.

        The generic fully-trivial thunk pays one closure call per
        operator/operand.  For the shapes that dominate hot loops —
        global operator applied to depth-0 locals and constants — the
        loads are inlined into the thunk body instead: the operator is
        one cell read (plus the UNBOUND check), a depth-0 local is one
        slot read, a constant is a captured Python value.  Arities 1
        and 2 get the full treatment; other arities still inline the
        operator cell and fall back to triv calls per operand.
        """
        if type(node.fn) is not GlobalRef:
            return None
        cell = node.fn.cell

        def plan(arg: Node, triv: Callable[[Any], Any]) -> tuple[str, Any]:
            kind = type(arg)
            if kind is Const:
                return ("c", arg.value)
            if kind is LocalRef and arg.depth == 0:
                return ("l0", arg.index)
            return ("t", triv)

        plans = [plan(arg, triv) for arg, triv in zip(node.args, trivs)]

        if len(plans) == 1:
            k0, v0 = plans[0]
            if k0 == "l0":

                def run(machine: Any, task: Task) -> Any:
                    fn = cell.value
                    if fn is UNBOUND:
                        raise UnboundVariableError(cell.name.name)
                    return apply_deliver(
                        machine, task, fn, [task.env.values[v0]]
                    )

            elif k0 == "c":

                def run(machine: Any, task: Task) -> Any:
                    fn = cell.value
                    if fn is UNBOUND:
                        raise UnboundVariableError(cell.name.name)
                    return apply_deliver(machine, task, fn, [v0])

            else:

                def run(machine: Any, task: Task) -> Any:
                    fn = cell.value
                    if fn is UNBOUND:
                        raise UnboundVariableError(cell.name.name)
                    return apply_deliver(
                        machine, task, fn, [v0(task.env)]
                    )

            return run

        if len(plans) == 2:
            (k0, v0), (k1, v1) = plans
            shape = k0 + k1
            if shape == "l0l0":

                def run(machine: Any, task: Task) -> Any:
                    fn = cell.value
                    if fn is UNBOUND:
                        raise UnboundVariableError(cell.name.name)
                    values = task.env.values
                    return apply_deliver(
                        machine, task, fn, [values[v0], values[v1]]
                    )

            elif shape == "l0c":

                def run(machine: Any, task: Task) -> Any:
                    fn = cell.value
                    if fn is UNBOUND:
                        raise UnboundVariableError(cell.name.name)
                    return apply_deliver(
                        machine, task, fn, [task.env.values[v0], v1]
                    )

            elif shape == "cl0":

                def run(machine: Any, task: Task) -> Any:
                    fn = cell.value
                    if fn is UNBOUND:
                        raise UnboundVariableError(cell.name.name)
                    return apply_deliver(
                        machine, task, fn, [v0, task.env.values[v1]]
                    )

            elif shape == "cc":

                def run(machine: Any, task: Task) -> Any:
                    fn = cell.value
                    if fn is UNBOUND:
                        raise UnboundVariableError(cell.name.name)
                    return apply_deliver(machine, task, fn, [v0, v1])

            else:
                t0 = trivs[0]
                t1 = trivs[1]

                def run(machine: Any, task: Task) -> Any:
                    fn = cell.value
                    if fn is UNBOUND:
                        raise UnboundVariableError(cell.name.name)
                    env = task.env
                    return apply_deliver(
                        machine, task, fn, [t0(env), t1(env)]
                    )

            return run

        if not plans:

            def run(machine: Any, task: Task) -> Any:
                fn = cell.value
                if fn is UNBOUND:
                    raise UnboundVariableError(cell.name.name)
                return apply_deliver(machine, task, fn, [])

            return run

        all_trivs = tuple(trivs)

        def run(machine: Any, task: Task) -> Any:
            fn = cell.value
            if fn is UNBOUND:
                raise UnboundVariableError(cell.name.name)
            env = task.env
            return apply_deliver(
                machine, task, fn, [t(env) for t in all_trivs]
            )

        return run

    def _compile_if(self, node: If) -> Code:
        test_code = self.compile(node.test)
        then_code = self.compile(node.then)
        els_code = self.compile(node.els)
        test_triv = test_code.triv  # type: ignore[attr-defined]
        if test_triv is not None:
            # Trivial test: decide and jump in one step, no IfFrame.
            self.stats.tests_inlined += 1

            def run(machine: Any, task: Task) -> Any:
                if test_triv(task.env) is not False:
                    return then_code(machine, task)
                return els_code(machine, task)

        else:

            def run(machine: Any, task: Task) -> Any:
                task.frames = IfFrame(then_code, els_code, task.env, task.frames)
                return test_code(machine, task)

        return _finish(run, node, None)

    def _compile_seq(self, node: Seq) -> Code:
        codes = tuple(self.compile(expr) for expr in node.exprs)
        if len(codes) == 1:
            return codes[0]
        first = codes[0]
        rest = codes[1:]

        def run(machine: Any, task: Task) -> Any:
            task.frames = SeqFrame(rest, task.env, task.frames)
            return first(machine, task)

        return _finish(run, node, None)

    def _compile_local_set(self, node: LocalSet) -> Code:
        depth = node.depth
        index = node.index
        expr_code = self.compile(node.expr)
        expr_triv = expr_code.triv  # type: ignore[attr-defined]
        if expr_triv is not None:

            def run(machine: Any, task: Task) -> Any:
                env = task.env
                value = expr_triv(env)
                d = depth
                while d:
                    env = env.parent
                    d -= 1
                env.values[index] = value
                return (VALUE, UNSPECIFIED)

        else:

            def run(machine: Any, task: Task) -> Any:
                task.frames = LocalSetFrame(depth, index, task.env, task.frames)
                return expr_code(machine, task)

        return _finish(run, node, None)

    def _compile_global_set(self, node: GlobalSet) -> Code:
        cell = node.cell
        expr_code = self.compile(node.expr)
        expr_triv = expr_code.triv  # type: ignore[attr-defined]
        if expr_triv is not None:

            def run(machine: Any, task: Task) -> Any:
                value = expr_triv(task.env)
                if cell.value is UNBOUND:
                    raise UnboundVariableError(cell.name.name)
                cell.value = value
                return (VALUE, UNSPECIFIED)

        else:

            def run(machine: Any, task: Task) -> Any:
                task.frames = GlobalSetFrame(cell, task.frames)
                return expr_code(machine, task)

        return _finish(run, node, None)

    def _compile_define(self, node: DefineTop) -> Code:
        name = node.name
        expr_code = self.compile(node.expr)
        expr_triv = expr_code.triv  # type: ignore[attr-defined]
        if expr_triv is not None:

            def run(machine: Any, task: Task) -> Any:
                env = task.env
                env.globals.define(name, expr_triv(env))
                return (VALUE, UNSPECIFIED)

        else:

            def run(machine: Any, task: Task) -> Any:
                task.frames = DefineFrame(name, task.env, task.frames)
                return expr_code(machine, task)

        return _finish(run, node, None)

    def _compile_pcall(self, node: Pcall) -> Code:
        codes = tuple(self.compile(expr) for expr in node.exprs)
        count = len(codes)

        def run(machine: Any, task: Task) -> Any:
            join = Join(count, task.frames, task.link)
            replace_child(task.link, join)
            task.state = TaskState.DEAD
            for index, code in enumerate(codes):
                branch = Task((EVAL, code), task.env, None, ForkLink(join, index))
                join.children[index] = branch
                machine.spawn_task(branch)
            machine.notify_fork(join)
            return None

        return _finish(run, node, None)


_COMPILE_DISPATCH: dict[type, Callable[[_Compiler, Any], Code]] = {
    Const: _Compiler._compile_const,
    LocalRef: _Compiler._compile_local_ref,
    GlobalRef: _Compiler._compile_global_ref,
    Lambda: _Compiler._compile_lambda,
    App: _Compiler._compile_app,
    If: _Compiler._compile_if,
    Seq: _Compiler._compile_seq,
    LocalSet: _Compiler._compile_local_set,
    GlobalSet: _Compiler._compile_global_set,
    DefineTop: _Compiler._compile_define,
    Pcall: _Compiler._compile_pcall,
}


def compile_node(node: Node, stats: Metrics | None = None) -> Code:
    """Compile one resolved top-level node to a code thunk."""
    return _Compiler(stats if stats is not None else COMPILE_METRICS()).compile(node)


def compile_program(
    nodes: list[Node], stats: Metrics | None = None
) -> list[Code]:
    """Compile a resolved program (a list of top-level nodes).

    The input must be the resolver's dialect (``LocalRef``/``GlobalRef``
    etc.); the expander's ``Var``/``SetBang`` raise
    :class:`~repro.errors.CompileError`.  Compiled code captures global
    cells by identity, so — exactly like :func:`repro.ir.resolve.
    resolve_program` — run the output on a machine over the *same*
    ``GlobalEnv`` the resolver interned into.
    """
    if stats is None:
        stats = COMPILE_METRICS()
    compiler = _Compiler(stats)
    return [compiler.compile(node) for node in nodes]
