"""Engine #4: resolved IR → generated Python source → ``compile()``d code.

``codegen_program`` is an alternative fourth pipeline stage (reader →
expand → resolve → **codegen** → machine), selected with
``engine="codegen"``.  Where the closure compiler (:mod:`repro.ir.
compile`, engine ``"compiled"``) builds one small Python closure per IR
node and fuses transitions by *chaining closure calls*, this module
walks each lambda body / top-level form once and **emits straight-line
Python source** for the whole fused region — then ``compile()``s the
module a single time and caches the resulting code object under the
form's ``ir-hash-v1`` digest (:func:`repro.ir.hashing.stable_hash`).

The emitted functions obey exactly the established code-thunk contract
(``code(machine, task) -> (tag, payload) | None``, with ``.triv`` and
``.node`` attributes), so the codegen engine reuses the compiled
engine's run loop (:func:`repro.machine.step.run_quantum_compiled`),
frame VALUE delivery, snapshot ``_N_CODE`` round-trip and cross-engine
closure interop without modification.
Everything outside the straight line — control primitives, ``pcall``
forks, continuation application, suspension — delegates through
:func:`~repro.machine.step.apply_deliver` with the task registers
spilled first, exactly as the compiled engine does, so
capture/reinstate, preemption, step budgets and deadlines are
untouched.

What one emitted function fuses (per machine step):

* slot ribs as direct attribute chains (``_env.parent.values[2]``) on
  a function-local ``_env``;
* interned global cells bound as **default-argument fast locals** —
  a resolved global reference is one ``LOAD_FAST`` + one attribute
  read, with the ``UNBOUND`` guard inline;
* constants hoisted to default-argument bindings (small ints inline as
  literals);
* trivial-operand folding done at emit time, like the closure
  compiler — plus an inline *primitive guard*: an operand or ``if``
  test of the shape ``(global-op trivial...)`` is computed in the same
  step when the operator turns out to be a :class:`~repro.machine.
  values.Primitive`, with a fallback branch that materialises exactly
  the frames the closure compiler would have built and delegates
  (already-computed values are threaded through — nothing is ever
  re-evaluated, so effect/error timing is preserved);
* the apply dispatch itself: a fixed-arity resolved closure application
  writes the new :class:`~repro.machine.environment.SlotRib` and
  returns ``(EVAL, body)`` inline; a primitive applies inline; anything
  else (rest args, dict-rib closures, continuations, controllers)
  spills and delegates;
* one level of **guarded self-call inlining** for the ``(define (name
  args...) body)`` shape: an apply site whose operator is a global
  reference to the function being defined runs the body inline when
  the closure's ``.body`` is (by identity) this module's emitted body
  function — exact speculation, since a rebound global or foreign
  closure falls through to the generic dispatch.

A body inlined into its caller — a direct lambda application
``((lambda (x...) body) arg...)``, the ``let`` shape, or the self-call
above — keeps its rib in a plain Python local and defers the
``task.env`` write to the region's delegation edges, usually eliding it
on the straight-line path.  No one else can see the difference: an
emitted function reads ``task.env`` only in its first line, every edge
that ends in ``(EVAL, f)`` or delegates writes ``task.env`` first
(``sync``), and a ``VALUE`` step never reads it, because frames carry
their own environment.

A function never loops and never recurses through an application —
``apply`` only *schedules* a closure body — so one emitted call is one
machine step, per-step work stays bounded by static expression size,
and quantum preemption is byte-identical to the compiled engine.

The code cache is module-level (shared by every session in the
process, which is what makes cluster restore cheap): a bounded LRU of
``digest -> (source, code object)``.  A hit also checks that the
regenerated source matches before reusing the code object, so a digest
that leaves out something the emitter reads can never serve stale code;
a mismatch recompiles and replaces the entry (counted as a miss).
Stats: ``codegen.hits`` / ``misses`` / ``evictions`` / ``emit_us`` plus
emit-shape counters.
"""

from __future__ import annotations

from collections import OrderedDict
from time import perf_counter
from types import CodeType
from typing import Any, Callable

from repro.datum import UNSPECIFIED
from repro.errors import CompileError, UnboundVariableError
from repro.ir.compile import COMPILE_METRICS, compile_node
from repro.ir.hashing import stable_hash
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
from repro.machine.environment import UNBOUND, SlotRib
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
from repro.machine.values import Closure, Primitive
from repro.obs.metrics import COUNTER, Metrics, declare

__all__ = [
    "CODEGEN_METRICS",
    "codegen_node",
    "codegen_program",
    "emitted_source",
    "clear_cache",
    "cache_info",
    "is_cached",
]

#: Runtime names every emitted module may bind (as default-arg fast
#: locals).  The emitter only materialises the ones a function uses.
_HELPERS: dict[str, Any] = {
    "_EVAL": EVAL,
    "_VALUE": VALUE,
    "_UNBOUND": UNBOUND,
    "_UNSPEC": UNSPECIFIED,
    "_SlotRib": SlotRib,
    "_Closure": Closure,
    "_Prim": Primitive,
    "_AppFrame": AppFrame,
    "_IfFrame": IfFrame,
    "_SeqFrame": SeqFrame,
    "_LocalSetFrame": LocalSetFrame,
    "_GlobalSetFrame": GlobalSetFrame,
    "_DefineFrame": DefineFrame,
    "_UnboundVar": UnboundVariableError,
    "_Join": Join,
    "_ForkLink": ForkLink,
    "_Task": Task,
    "_DEAD": TaskState.DEAD,
    "_replace_child": replace_child,
    "_apply_deliver": apply_deliver,
}

#: Node kinds with a compile-time-known value shape (the closure
#: compiler's ``triv`` set).
_TRIVIAL = (Const, LocalRef, GlobalRef, Lambda)

#: Inline a direct-lambda body only when it is small and shallow.
_INLINE_BODY_BUDGET = 60
_INLINE_BODY_DEPTH = 3

_CACHE_CAPACITY = 256
_CODE_CACHE: "OrderedDict[str, tuple[str, CodeType]]" = OrderedDict()


#: Counters accumulated across every ``codegen_program`` call of a
#: session (``codegen.*`` in ``stats``).
CODEGEN_METRICS = declare(
    "codegen",
    [
        ("hits", COUNTER, "code-cache hits: digest present and regenerated source matched"),
        ("misses", COUNTER, "code-cache misses: first emit, or a source-verification mismatch"),
        ("evictions", COUNTER, "code-cache LRU evictions"),
        ("emit_us", COUNTER, "µs in codegen_node (emit + compile + exec), hits included"),
        ("nodes", COUNTER, "IR nodes emitted"),
        ("lambdas", COUNTER, "lambdas emitted"),
        ("apps_inlined", COUNTER, "applications evaluated and dispatched inline (no AppFrame)"),
        ("tests_inlined", COUNTER, "if tests decided inline (trivial or primitive-guarded)"),
        ("prims_inlined", COUNTER, "primitive-guard inline sites: (global-op trivial...)"),
        ("inline_bodies", COUNTER, "direct-lambda (let-shaped) bodies inlined into their caller"),
        ("self_inlines", COUNTER, "self-call sites inlined one level behind a body guard"),
        ("spill_elisions", COUNTER, "inlined bodies whose env spill waits for a delegation edge"),
        ("fallback_nodes", COUNTER, "cold fallback thunks built with the closure compiler"),
    ],
)


def clear_cache() -> None:
    """Drop every cached code object (tests / memory pressure)."""
    _CODE_CACHE.clear()


def cache_info() -> dict[str, int]:
    """Current occupancy of the module-level code cache."""
    return {"size": len(_CODE_CACHE), "capacity": _CACHE_CAPACITY}


def is_cached(node: Node) -> bool:
    """Whether ``node``'s digest currently has a cached code object."""
    return stable_hash(node) in _CODE_CACHE


def _node_size(node: Node) -> int:
    """Number of IR nodes in ``node`` (inline-budget check)."""
    kind = type(node)
    if kind is App:
        return 1 + _node_size(node.fn) + sum(_node_size(a) for a in node.args)
    if kind is If:
        return 1 + _node_size(node.test) + _node_size(node.then) + _node_size(node.els)
    if kind is Seq or kind is Pcall:
        return 1 + sum(_node_size(e) for e in node.exprs)
    if kind is Lambda:
        return 1 + _node_size(node.body)
    if kind is LocalSet or kind is GlobalSet or kind is DefineTop:
        return 1 + _node_size(node.expr)
    return 1


def _is_name(expr: str) -> bool:
    return expr.isidentifier()


class _Env:
    """The emitter's environment context: a Python expression for the
    current rib plus whether ``task.env`` currently equals it."""

    __slots__ = ("expr", "synced")

    def __init__(self, expr: str, synced: bool):
        self.expr = expr
        self.synced = synced


class _Fn:
    """One emitted function being built: body lines plus the ordered
    set of module names it binds as default-argument fast locals."""

    __slots__ = ("name", "lines", "used", "ntmp")

    def __init__(self, name: str):
        self.name = name
        self.lines: list[str] = []
        self.used: dict[str, bool] = {}
        self.ntmp = 0

    def line(self, ind: int, text: str) -> None:
        self.lines.append("    " * ind + text)

    def temp(self) -> str:
        self.ntmp += 1
        return f"_t{self.ntmp}"

    def use(self, name: str) -> str:
        self.used[name] = True
        return name

    def render(self) -> str:
        params = "".join(f", {n}={n}" for n in self.used)
        head = [f"def {self.name}(machine, task{params}):", "    _env = task.env"]
        return "\n".join(head + self.lines)


class _Emitter:
    """Walks one resolved top-level node and produces a module source
    plus the binding namespace it must be executed in."""

    __slots__ = (
        "stats",
        "fns",
        "fn_meta",
        "bindings",
        "lambda_body_fn",
        "_bind_memo",
        "_fn_memo",
        "_fb_memo",
        "_in_progress",
        "_scratch",
        "_nf",
        "_nk",
        "_nenv",
        "_inline_depth",
        "self_name",
        "self_lambda",
        "_self_depth",
    )

    def __init__(self, stats: Metrics):
        self.stats = stats
        self.fns: list[str] = []
        self.fn_meta: list[tuple[str, Node]] = []
        self.bindings: dict[str, Any] = {}
        self.lambda_body_fn: dict[int, str] = {}
        self._bind_memo: dict[int, str] = {}
        self._fn_memo: dict[int, str] = {}
        self._fb_memo: dict[int, str] = {}
        self._in_progress: set[str] = set()
        self._scratch = COMPILE_METRICS()
        self._nf = 0
        self._nk = 0
        self._nenv = 0
        self._inline_depth = 0
        # Self-call speculation context (set by _emit for the
        # ``(define (name args...) body)`` shape): apply sites whose
        # operator is a global reference to ``self_name`` inline one
        # level of the body behind a runtime ``.body is <emitted-fn>``
        # identity guard — exact by construction (a rebound global
        # falls through to the generic dispatch).
        self.self_name: Any = None
        self.self_lambda: Lambda | None = None
        self._self_depth = 0

    # -- bindings ------------------------------------------------------------

    def bind(self, value: Any, w: _Fn) -> str:
        """Bind ``value`` into the module namespace; return its name."""
        key = id(value)
        name = self._bind_memo.get(key)
        if name is None:
            self._nk += 1
            name = f"_k{self._nk}"
            self._bind_memo[key] = name
            self.bindings[name] = value
        return w.use(name)

    def helper(self, hname: str, w: _Fn) -> str:
        if hname not in self.bindings:
            self.bindings[hname] = _HELPERS[hname]
        return w.use(hname)

    def fallback(self, node: Node, w: _Fn) -> str:
        """A cold-path thunk for ``node`` built with the closure
        compiler (no source duplication), bound into the namespace."""
        name = self._fb_memo.get(id(node))
        if name is None:
            self.stats.fallback_nodes += 1
            code = compile_node(node, self._scratch)
            name = self.bind(code, w)
            self._fb_memo[id(node)] = name
            return name
        return w.use(name)

    def sync(self, env: _Env, w: _Fn, ind: int) -> None:
        """Ensure ``task.env`` equals the context rib before an edge
        that delegates outside this function."""
        if not env.synced:
            w.line(ind, f"task.env = {env.expr}")
            env.synced = True

    def fresh_env(self) -> str:
        self._nenv += 1
        return f"_env{self._nenv}"

    # -- functions -----------------------------------------------------------

    def emit_fn(self, node: Node) -> str:
        """Emit (once) a module function evaluating ``node`` in tail
        position; return its name."""
        memo = self._fn_memo.get(id(node))
        if memo is not None:
            return memo
        self._nf += 1
        name = f"_f{self._nf}"
        self._fn_memo[id(node)] = name
        self._in_progress.add(name)
        w = _Fn(name)
        self.emit_tail(node, _Env("_env", True), w, 1)
        self.fns.append(w.render())
        self.fn_meta.append((name, node))
        self._in_progress.discard(name)
        return name

    def use_fn(self, name: str, w: _Fn) -> str:
        """Reference an emitted function by name.  A function still
        being emitted (a recursive reference through a self-call
        inlined region) cannot become a default-arg fast local — its
        ``def`` line would evaluate the name before it exists — so it
        stays a plain module-global reference."""
        if name in self._in_progress:
            return name
        return w.use(name)

    # -- values --------------------------------------------------------------

    def emit_value(self, node: Node, env: _Env, w: _Fn, ind: int) -> str | None:
        """Emit guard statements for a trivial ``node`` and return a
        Python expression for its value, or ``None`` if the node needs
        real evaluation.  The returned expression is pure (safe to
        place in more than one alternative branch)."""
        kind = type(node)
        if kind is Const:
            v = node.value
            if v is True:
                return "True"
            if v is False:
                return "False"
            if v is None:
                return "None"
            if type(v) is int and -(2**31) < v < 2**31:
                return repr(v)
            return self.bind(v, w)
        if kind is LocalRef:
            return env.expr + ".parent" * node.depth + f".values[{node.index}]"
        if kind is GlobalRef:
            cell = self.bind(node.cell, w)
            t = w.temp()
            w.line(ind, f"{t} = {cell}.value")
            w.line(ind, f"if {t} is {self.helper('_UNBOUND', w)}:")
            w.line(
                ind + 1,
                f"raise {self.helper('_UnboundVar', w)}({node.cell.name.name!r})",
            )
            return t
        if kind is Lambda:
            return self.lambda_expr(node, env, w)
        return None

    def lambda_expr(self, node: Lambda, env: _Env, w: _Fn) -> str:
        """A ``Closure(...)`` constructor expression for ``node`` (the
        body becomes its own emitted function)."""
        if node.nslots is None:
            raise CompileError(
                f"codegen requires resolved IR; lambda {node.name or ''!s} "
                "has no nslots (run repro.ir.resolve first)"
            )
        self.stats.lambdas += 1
        bodyf = self.emit_fn(node.body)
        self.lambda_body_fn[id(node)] = bodyf
        params = self.bind(node.params, w)
        rest = "None" if node.rest is None else self.bind(node.rest, w)
        return (
            f"{self.helper('_Closure', w)}({params}, {rest}, "
            f"{self.use_fn(bodyf, w)}, "
            f"{env.expr}, {node.name!r}, {node.nslots})"
        )

    # -- the inline primitive guard ------------------------------------------

    def prim_inlinable(self, node: Node) -> bool:
        """``(global-op trivial...)`` — computable inline under a
        Primitive guard, with a frame-plan fallback."""
        return (
            type(node) is App
            and type(node.fn) is GlobalRef
            and all(type(a) in _TRIVIAL for a in node.args)
        )

    def inline_prim_call(
        self,
        node: App,
        env: _Env,
        w: _Fn,
        ind: int,
        emit_fallback: Callable[[_Fn, int, str, str], None],
    ) -> str:
        """Emit an inline, guarded evaluation of a ``prim_inlinable``
        application; return the temp holding its value.

        ``emit_fallback(w, ind, fn_expr, args_expr)`` must emit the
        delegation for the not-a-primitive case (ending in ``return``);
        the operator and operand values are already computed — the
        fallback threads them onward, it never re-evaluates.
        """
        self.stats.prims_inlined += 1
        k = len(node.args)
        f = self.emit_value(node.fn, env, w, ind)
        args = [self.emit_value(a, env, w, ind) for a in node.args]
        argsx = ", ".join(args)  # type: ignore[arg-type]
        t = w.temp()
        p = self.helper("_Prim", w)
        w.line(
            ind,
            f"if {f}.__class__ is {p} and {f}.low <= {k} "
            f"and ({f}.high is None or {f}.high >= {k}):",
        )
        w.line(ind + 1, f"{t} = {f}.fn({argsx})")
        w.line(ind, "else:")
        saved = env.synced
        emit_fallback(w, ind + 1, f, argsx)  # type: ignore[arg-type]
        env.synced = saved
        return t

    # -- tail emission -------------------------------------------------------

    def emit_tail(self, node: Node, env: _Env, w: _Fn, ind: int) -> None:
        """Emit statements that finish the step for ``node``: every
        control path ends in ``return``."""
        self.stats.nodes += 1
        kind = type(node)
        expr = self.emit_value(node, env, w, ind)
        if expr is not None:
            w.line(ind, f"return ({self.helper('_VALUE', w)}, {expr})")
            return
        if kind is App:
            self.tail_app(node, env, w, ind)
        elif kind is If:
            self.tail_if(node, env, w, ind)
        elif kind is Seq:
            self.tail_seq(node, env, w, ind)
        elif kind is LocalSet:
            self.tail_local_set(node, env, w, ind)
        elif kind is GlobalSet:
            self.tail_global_set(node, env, w, ind)
        elif kind is DefineTop:
            self.tail_define(node, env, w, ind)
        elif kind is Pcall:
            self.tail_pcall(node, env, w, ind)
        elif kind is Var or kind is SetBang:
            raise CompileError(
                f"codegen requires resolved IR; got unresolved "
                f"{kind.__name__}: {node!r} (run repro.ir.resolve first)"
            )
        else:
            raise CompileError(f"cannot emit IR node: {node!r}")

    # An application in tail position.  Operator first, operands left
    # to right — identical effect/error order to the closure compiler.
    def tail_app(self, node: App, env: _Env, w: _Fn, ind: int) -> None:
        fn = node.fn
        if (
            type(fn) is Lambda
            and fn.rest is None
            and fn.nslots == len(fn.params)
            and len(node.args) == len(fn.params)
        ):
            self.tail_direct_lambda(node, fn, env, w, ind)
            return
        fnx = self.emit_value(fn, env, w, ind)
        if fnx is None:
            # Operator needs real evaluation: push the full frame plan
            # and fuse the operator's evaluation into this step.
            children = [self.emit_fn(a) for a in node.args]
            pend = ", ".join(self.use_fn(c, w) for c in children)
            pend_src = f"({pend},)" if children else "()"
            w.line(
                ind,
                f"task.frames = {self.helper('_AppFrame', w)}"
                f"((), {pend_src}, {env.expr}, task.frames)",
            )
            self.emit_tail(fn, env, w, ind)
            return
        if not _is_name(fnx):
            t = w.temp()
            w.line(ind, f"{t} = {fnx}")
            fnx = t
        done = [fnx]
        self.inline_args(node.args, done, env, w, ind)
        self.emit_apply(done, env, w, ind, fn_node=fn)

    def inline_args(
        self,
        args: tuple[Node, ...],
        done: list[str],
        env: _Env,
        w: _Fn,
        ind: int,
    ) -> None:
        """Evaluate ``args`` left to right into ``done`` (operator and
        earlier values already there).  Trivial operands inline;
        primitive-shaped operands inline under a guard whose fallback
        pushes exactly the remaining frame plan; the first operand that
        can do neither ends the straight line with a frame push and a
        fused evaluation.  Emits a ``return`` on every abandoned path;
        on the straight-line path ``done`` ends complete."""
        i = 0
        n = len(args)
        while i < n:
            a = args[i]
            ax = self.emit_value(a, env, w, ind)
            if ax is not None:
                done.append(ax)
                i += 1
                continue
            rest = args[i + 1 :]
            if self.prim_inlinable(a):
                pend = ", ".join(self.fallback(x, w) for x in rest)
                pend_src = f"({pend},)" if rest else "()"
                done_now = tuple(done)

                def emit_fb(
                    w: _Fn,
                    find: int,
                    fexpr: str,
                    argsx: str,
                    done_now: tuple[str, ...] = done_now,
                    pend_src: str = pend_src,
                ) -> None:
                    w.line(
                        find,
                        f"task.frames = {self.helper('_AppFrame', w)}"
                        f"(({', '.join(done_now)},), {pend_src}, "
                        f"{env.expr}, task.frames)",
                    )
                    self.sync(env, w, find)
                    w.line(
                        find,
                        f"return {self.helper('_apply_deliver', w)}"
                        f"(machine, task, {fexpr}, [{argsx}])",
                    )

                done.append(self.inline_prim_call(a, env, w, ind, emit_fb))
                i += 1
                continue
            # First genuinely non-trivial operand: push the frame plan
            # (later operands as emitted children) and fuse its
            # evaluation into this step.
            children = [self.emit_fn(x) for x in rest]
            pend = ", ".join(self.use_fn(c, w) for c in children)
            pend_src = f"({pend},)" if children else "()"
            w.line(
                ind,
                f"task.frames = {self.helper('_AppFrame', w)}"
                f"(({', '.join(done)},), {pend_src}, {env.expr}, task.frames)",
            )
            self.emit_tail(a, env, w, ind)
            done.clear()
            return
        # done complete — caller applies.

    def emit_apply(
        self, done: list[str], env: _Env, w: _Fn, ind: int, fn_node: Node | None = None
    ) -> None:
        """Inline apply dispatch over a complete ``done`` (operator +
        argument expressions).  Only emitted on paths where ``done``
        survived; ``inline_args`` returns an emptied list after an
        abandoned straight line.  ``fn_node`` is the operator's IR node
        when the caller knows it (enables self-call inlining)."""
        if not done:
            return
        self.stats.apps_inlined += 1
        k = len(done) - 1
        f = done[0]
        argsx = ", ".join(done[1:])
        c = self.helper("_Closure", w)
        p = self.helper("_Prim", w)
        ev = self.helper("_EVAL", w)
        va = self.helper("_VALUE", w)
        w.line(ind, f"if {f}.__class__ is {c} and {f}.high == {k} and {f}.nslots is not None:")
        self.self_call_inline(f, argsx, k, fn_node, w, ind + 1)
        if k:
            w.line(ind + 1, f"task.env = {self.helper('_SlotRib', w)}([{argsx}], {f}.env)")
        else:
            w.line(ind + 1, f"task.env = {f}.env")
        w.line(ind + 1, f"return ({ev}, {f}.body)")
        w.line(
            ind,
            f"if {f}.__class__ is {p} and {f}.low <= {k} "
            f"and ({f}.high is None or {f}.high >= {k}):",
        )
        w.line(ind + 1, f"return ({va}, {f}.fn({argsx}))")
        self.sync(env, w, ind)
        w.line(
            ind,
            f"return {self.helper('_apply_deliver', w)}(machine, task, {f}, [{argsx}])",
        )

    def self_call_inline(
        self, f: str, argsx: str, k: int, fn_node: Node | None, w: _Fn, ind: int
    ) -> None:
        """Inside the closure fast path of an apply whose operator is a
        global reference to the function being defined (``(define (fib
        n) ... (fib ...) ...)``), inline one level of the body behind a
        runtime ``.body is <emitted-fn>`` identity guard.

        The guard makes the speculation exact: it fires only for
        closures whose body *is* this module's emitted body function —
        same lambda, so same params/nslots — and a rebound global, a
        cross-engine closure or a snapshot-restored one falls through
        to the generic ``(EVAL, body)`` dispatch.  The body function is
        referenced as a plain module global (not a default-arg fast
        local): child functions are ``def``'d before it exists and the
        body cannot self-reference in its own defaults.  As in
        ``tail_direct_lambda``, the inlined region defers its
        ``task.env`` write to its delegation edges."""
        sl = self.self_lambda
        if (
            sl is None
            or type(fn_node) is not GlobalRef
            or fn_node.cell.name is not self.self_name
            or k != len(sl.params)
            or self._self_depth >= 1
            or _node_size(sl.body) > _INLINE_BODY_BUDGET
        ):
            return
        bodyname = self._fn_memo.get(id(sl.body))
        if bodyname is None:
            return
        self.stats.self_inlines += 1
        self.stats.spill_elisions += 1
        w.line(ind, f"if {f}.body is {bodyname}:")
        rib = self.fresh_env()
        if k:
            w.line(
                ind + 1,
                f"{rib} = {self.helper('_SlotRib', w)}([{argsx}], {f}.env)",
            )
        else:
            w.line(ind + 1, f"{rib} = {f}.env")
        inner = _Env(rib, False)
        self._self_depth += 1
        self.emit_tail(sl.body, inner, w, ind + 1)
        self._self_depth -= 1

    # ((lambda (x...) body) arg...) — the let shape.  Constructing the
    # closure is pure allocation, so when the arity matches statically
    # we skip it: evaluate the operands, build the rib, run the body —
    # inlined into this very function when it is small enough.
    def tail_direct_lambda(
        self, node: App, fn: Lambda, env: _Env, w: _Fn, ind: int
    ) -> None:
        k = len(fn.params)
        done: list[str] = ["#let"]  # operator slot; replaced by a closure
        # expression only on fallback paths.
        i = 0
        args = node.args
        lam_memo: list[str] = []

        def lamx(w: _Fn) -> str:
            # Build (once) the fallback closure expression.
            if not lam_memo:
                lam_memo.append(self.lambda_expr(fn, env, w))
            return lam_memo[0]

        n = len(args)
        while i < n:
            a = args[i]
            ax = self.emit_value(a, env, w, ind)
            if ax is not None:
                done.append(ax)
                i += 1
                continue
            rest = args[i + 1 :]
            if self.prim_inlinable(a):
                pend = ", ".join(self.fallback(x, w) for x in rest)
                pend_src = f"({pend},)" if rest else "()"
                done_now = tuple(done[1:])

                def emit_fb(
                    w: _Fn,
                    find: int,
                    fexpr: str,
                    argsx: str,
                    done_now: tuple[str, ...] = done_now,
                    pend_src: str = pend_src,
                ) -> None:
                    prefix = ", ".join((lamx(w),) + done_now)
                    w.line(
                        find,
                        f"task.frames = {self.helper('_AppFrame', w)}"
                        f"(({prefix},), {pend_src}, {env.expr}, task.frames)",
                    )
                    self.sync(env, w, find)
                    w.line(
                        find,
                        f"return {self.helper('_apply_deliver', w)}"
                        f"(machine, task, {fexpr}, [{argsx}])",
                    )

                done.append(self.inline_prim_call(a, env, w, ind, emit_fb))
                i += 1
                continue
            children = [self.emit_fn(x) for x in rest]
            pend = ", ".join(self.use_fn(c, w) for c in children)
            pend_src = f"({pend},)" if children else "()"
            prefix = ", ".join([lamx(w)] + done[1:])
            w.line(
                ind,
                f"task.frames = {self.helper('_AppFrame', w)}"
                f"(({prefix},), {pend_src}, {env.expr}, task.frames)",
            )
            self.emit_tail(a, env, w, ind)
            return
        argsx = ", ".join(done[1:])
        if (
            self._inline_depth < _INLINE_BODY_DEPTH
            and _node_size(fn.body) <= _INLINE_BODY_BUDGET
        ):
            # Inline the body into this function, decided on size and
            # depth alone.  The ``task.env`` write waits for the body's
            # delegation edges (usually eliding it entirely on the
            # straight line), which no observer can see.
            self.stats.inline_bodies += 1
            self.stats.spill_elisions += 1
            self._inline_depth += 1
            if k:
                rib = self.fresh_env()
                w.line(
                    ind,
                    f"{rib} = {self.helper('_SlotRib', w)}([{argsx}], {env.expr})",
                )
                inner = _Env(rib, False)
            else:
                inner = _Env(env.expr, env.synced)
            self.emit_tail(fn.body, inner, w, ind)
            self._inline_depth -= 1
            return
        bodyf = self.emit_fn(fn.body)
        self.lambda_body_fn[id(fn)] = bodyf
        if k:
            w.line(
                ind,
                f"task.env = {self.helper('_SlotRib', w)}([{argsx}], {env.expr})",
            )
            env.synced = False  # task.env is now the *body* rib
        else:
            self.sync(env, w, ind)
        w.line(ind, f"return ({self.helper('_EVAL', w)}, {self.use_fn(bodyf, w)})")
        env.synced = True  # terminal; value irrelevant, keep invariant

    def tail_if(self, node: If, env: _Env, w: _Fn, ind: int) -> None:
        t = self.emit_value(node.test, env, w, ind)
        if t is None and self.prim_inlinable(node.test):

            def emit_fb(w: _Fn, find: int, fexpr: str, argsx: str) -> None:
                tf = self.fallback(node.then, w)
                ef = self.fallback(node.els, w)
                w.line(
                    find,
                    f"task.frames = {self.helper('_IfFrame', w)}"
                    f"({tf}, {ef}, {env.expr}, task.frames)",
                )
                self.sync(env, w, find)
                w.line(
                    find,
                    f"return {self.helper('_apply_deliver', w)}"
                    f"(machine, task, {fexpr}, [{argsx}])",
                )

            t = self.inline_prim_call(node.test, env, w, ind, emit_fb)
        if t is not None:
            self.stats.tests_inlined += 1
            saved = env.synced
            w.line(ind, f"if {t} is not False:")
            self.emit_tail(node.then, env, w, ind + 1)
            env.synced = saved
            self.emit_tail(node.els, env, w, ind)
            env.synced = saved
            return
        thenf = self.emit_fn(node.then)
        elsf = self.emit_fn(node.els)
        w.line(
            ind,
            f"task.frames = {self.helper('_IfFrame', w)}"
            f"({self.use_fn(thenf, w)}, {self.use_fn(elsf, w)}, "
            f"{env.expr}, task.frames)",
        )
        self.emit_tail(node.test, env, w, ind)

    def tail_seq(self, node: Seq, env: _Env, w: _Fn, ind: int) -> None:
        if len(node.exprs) == 1:
            self.emit_tail(node.exprs[0], env, w, ind)
            return
        children = [self.emit_fn(e) for e in node.exprs[1:]]
        rest = ", ".join(self.use_fn(c, w) for c in children)
        w.line(
            ind,
            f"task.frames = {self.helper('_SeqFrame', w)}"
            f"(({rest},), {env.expr}, task.frames)",
        )
        self.emit_tail(node.exprs[0], env, w, ind)

    def tail_local_set(self, node: LocalSet, env: _Env, w: _Fn, ind: int) -> None:
        ax = self.emit_value(node.expr, env, w, ind)
        if ax is not None:
            target = env.expr + ".parent" * node.depth
            w.line(ind, f"{target}.values[{node.index}] = {ax}")
            w.line(
                ind,
                f"return ({self.helper('_VALUE', w)}, {self.helper('_UNSPEC', w)})",
            )
            return
        w.line(
            ind,
            f"task.frames = {self.helper('_LocalSetFrame', w)}"
            f"({node.depth}, {node.index}, {env.expr}, task.frames)",
        )
        self.emit_tail(node.expr, env, w, ind)

    def tail_global_set(self, node: GlobalSet, env: _Env, w: _Fn, ind: int) -> None:
        cell = self.bind(node.cell, w)
        ax = self.emit_value(node.expr, env, w, ind)
        if ax is not None:
            # Same order as the closure compiler: value first, then the
            # bound check, then the write.
            t = w.temp()
            w.line(ind, f"{t} = {ax}")
            w.line(ind, f"if {cell}.value is {self.helper('_UNBOUND', w)}:")
            w.line(
                ind + 1,
                f"raise {self.helper('_UnboundVar', w)}({node.cell.name.name!r})",
            )
            w.line(ind, f"{cell}.value = {t}")
            w.line(
                ind,
                f"return ({self.helper('_VALUE', w)}, {self.helper('_UNSPEC', w)})",
            )
            return
        w.line(
            ind,
            f"task.frames = {self.helper('_GlobalSetFrame', w)}({cell}, task.frames)",
        )
        self.emit_tail(node.expr, env, w, ind)

    def tail_define(self, node: DefineTop, env: _Env, w: _Fn, ind: int) -> None:
        name = self.bind(node.name, w)
        ax = self.emit_value(node.expr, env, w, ind)
        if ax is not None:
            w.line(ind, f"{env.expr}.globals.define({name}, {ax})")
            w.line(
                ind,
                f"return ({self.helper('_VALUE', w)}, {self.helper('_UNSPEC', w)})",
            )
            return
        w.line(
            ind,
            f"task.frames = {self.helper('_DefineFrame', w)}"
            f"({name}, {env.expr}, task.frames)",
        )
        self.emit_tail(node.expr, env, w, ind)

    def tail_pcall(self, node: Pcall, env: _Env, w: _Fn, ind: int) -> None:
        children = [self.emit_fn(e) for e in node.exprs]
        n = len(children)
        ev = self.helper("_EVAL", w)
        w.line(
            ind,
            f"_j = {self.helper('_Join', w)}({n}, task.frames, task.link)",
        )
        w.line(ind, f"{self.helper('_replace_child', w)}(task.link, _j)")
        w.line(ind, f"task.state = {self.helper('_DEAD', w)}")
        fl = self.helper("_ForkLink", w)
        tk = self.helper("_Task", w)
        for index, child in enumerate(children):
            w.line(
                ind,
                f"_b = {tk}(({ev}, {self.use_fn(child, w)}), {env.expr}, None, "
                f"{fl}(_j, {index}))",
            )
            w.line(ind, f"_j.children[{index}] = _b")
            w.line(ind, "machine.spawn_task(_b)")
        w.line(ind, "machine.notify_fork(_j)")
        w.line(ind, "return None")


def _build_triv(
    node: Node, em: _Emitter, ns: dict[str, Any]
) -> Callable[[Any], Any] | None:
    """The ``(env) -> value`` trivial-operand closure for an emitted
    function's node (mirrors the closure compiler's ``triv`` contract,
    consulted by the VALUE-arm pending fold)."""
    kind = type(node)
    if kind is Const:
        value = node.value
        return lambda env: value
    if kind is LocalRef:
        depth = node.depth
        index = node.index
        if depth == 0:
            return lambda env: env.values[index]

        def local_triv(env: Any) -> Any:
            d = depth
            while d:
                env = env.parent
                d -= 1
            return env.values[index]

        return local_triv
    if kind is GlobalRef:
        cell = node.cell

        def global_triv(env: Any) -> Any:
            value = cell.value
            if value is UNBOUND:
                raise UnboundVariableError(cell.name.name)
            return value

        return global_triv
    if kind is Lambda:
        body = ns[em.lambda_body_fn[id(node)]]
        params, rest, name, nslots = node.params, node.rest, node.name, node.nslots
        return lambda env: Closure(params, rest, body, env, name, nslots)
    return None


def _emit(node: Node, stats: Metrics) -> tuple[_Emitter, str, str]:
    em = _Emitter(stats)
    if (
        type(node) is DefineTop
        and type(node.expr) is Lambda
        and node.expr.rest is None
        and node.expr.nslots == len(node.expr.params)
    ):
        em.self_name = node.name
        em.self_lambda = node.expr
    main = em.emit_fn(node)
    return em, main, "\n\n".join(em.fns)


def emitted_source(node: Node, stats: Metrics | None = None) -> str:
    """The Python source codegen emits for ``node`` (REPL ``,codegen``
    preview; no compile, exec or cache interaction)."""
    _, _, source = _emit(node, stats if stats is not None else CODEGEN_METRICS())
    return source


def codegen_node(node: Node, stats: Metrics | None = None) -> Callable:
    """Emit, compile (or fetch by ``ir-hash-v1`` digest) and
    instantiate the code thunk for one resolved top-level node."""
    if stats is None:
        stats = CODEGEN_METRICS()
    t0 = perf_counter()
    try:
        em, main, source = _emit(node, stats)
        digest = stable_hash(node)
        cached = _CODE_CACHE.get(digest)
        if cached is not None and cached[0] == source:
            _CODE_CACHE.move_to_end(digest)
            code = cached[1]
            stats.hits += 1
        else:
            code = compile(source, f"<codegen:{digest[:12]}>", "exec")
            _CODE_CACHE[digest] = (source, code)
            _CODE_CACHE.move_to_end(digest)
            stats.misses += 1
            while len(_CODE_CACHE) > _CACHE_CAPACITY:
                _CODE_CACHE.popitem(last=False)
                stats.evictions += 1
        ns = dict(em.bindings)
        exec(code, ns)
        for fname, fnode in em.fn_meta:
            fn = ns[fname]
            fn.node = fnode
            fn.triv = _build_triv(fnode, em, ns)
        return ns[main]
    finally:
        stats.emit_us += int((perf_counter() - t0) * 1_000_000)


def codegen_program(nodes: list[Node], stats: Metrics | None = None) -> list:
    """Emit a resolved program (a list of top-level nodes).

    Like :func:`repro.ir.compile.compile_program`, the input must be
    the resolver's dialect over the *same* ``GlobalEnv`` the machine
    runs on — emitted code captures global cells by identity.
    """
    if stats is None:
        stats = CODEGEN_METRICS()
    return [codegen_node(node, stats) for node in nodes]
