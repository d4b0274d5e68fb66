"""One hosted interpreter session: a machine plus its whole pipeline,
drivable in bounded increments.

A :class:`Session` owns everything one tenant's programs touch — global
environment, expansion environment, machine, output buffer, compile
stats — so sessions are fully isolated from each other: no error,
deadline, cancellation or mutation in one session can corrupt a
sibling.  What makes a session *hostable* is the paper's own machinery:
at every quantum boundary the machine's entire state (the process tree,
including captured continuations, suspended ``pcall`` branches and
parked future trees) is a first-class value sitting in the
:class:`~repro.machine.scheduler.Machine`, so an evaluation can be
suspended between :meth:`pump` calls and resumed arbitrarily later —
engines-style time-slicing at the session level.

The lifecycle::

    session = Session(engine="compiled")
    handle = session.submit("(+ 1 2)", max_steps=10_000, deadline=0.25)
    while not handle.done():
        session.pump(512)          # ≤ 512 machine steps, then yield
    handle.result()                # => 3

``submit`` runs the frontend eagerly (read → expand → resolve →
compile), so malformed programs are rejected at the queue, not after
occupying the machine; the queue is bounded (``max_pending``), and a
full queue raises :class:`~repro.errors.HostSaturated` — backpressure,
not buffering.  ``pump`` enforces the handle's step budget *exactly*
(via the machine's ``max_steps`` clamp) and its wall-clock deadline at
quantum granularity (via ``Machine.deadline``); both are scoped through
:meth:`Machine.budget_scope`, the same mechanism behind
``run``/``eval(max_steps=..., deadline=...)``.  Cancellation and
deadline enforcement are capture-and-discard at the session root
(:meth:`Machine.abort_tree`): tasks are unlinked at a quantum boundary,
never interrupted mid-frame, and the session's parked future trees
survive.
"""

from __future__ import annotations

import itertools
import threading
from collections import deque
from dataclasses import fields
from fractions import Fraction
from time import monotonic as _monotonic
from typing import Any, NamedTuple

from repro.datum import Char, Nil, Symbol, Unspecified, scheme_repr
from repro.errors import (
    DeadlineExceeded,
    HostSaturated,
    ReproError,
    SessionCancelled,
    StepBudgetExceeded,
)
from repro.expander import ExpandEnv, expand_program
from repro.control import register_control_primitives
from repro.host.handle import EvalHandle, HandleState
from repro.ir import (
    CODEGEN_METRICS,
    COMPILE_METRICS,
    RESOLVER_METRICS,
    codegen_node,
    codegen_program,
    compile_node,
    compile_program,
    pretty,
    resolve_program,
)
from repro.ir.nodes import Const, DefineTop, Lambda, Node
from repro.lib import PRELUDE, paper_examples
from repro.lib.derived import LIBRARIES
from repro.machine.environment import GlobalEnv
from repro.machine.scheduler import Engine, Machine, SchedulerPolicy, normalize_engine
from repro.machine.values import Closure
from repro.obs.metrics import COUNTER, HIGH_WATER, HISTOGRAM, declare
from repro.obs.recorder import Recorder
from repro.primitives import OutputBuffer, install_primitives
from repro.reader import read_all

__all__ = ["SESSION_METRICS", "Base", "Session", "prelude_image"]

#: A session's serving counters (``session.*`` in ``stats``), updated
#: by its submit path and pump loop.
SESSION_METRICS = declare(
    "session",
    [
        ("submits", COUNTER, "evaluations accepted into the queue"),
        ("evals_completed", COUNTER, "handles that reached DONE"),
        ("evals_failed", COUNTER, "handles that reached FAILED or CANCELLED"),
        ("deadline_misses", COUNTER, "step-budget or wall-clock expiries"),
        ("cancellations", COUNTER, "cooperative cancels, queued or in flight"),
        ("saturations", COUNTER, "submits refused by the queue bound"),
        ("quanta_served", COUNTER, "pump calls that found work"),
        ("steps_served", COUNTER, "machine steps executed on behalf of evaluations"),
        ("max_queue_depth", HIGH_WATER, "peak of queued plus in-flight evaluations"),
        ("latency_us", HISTOGRAM, "submit to terminal state, per request, in µs"),
        ("steps_per_request", HISTOGRAM, "machine steps, per request"),
    ],
)

_session_ids = itertools.count()


def annotate_program(nodes: list[Node], globals_: Any, stats: Any = None) -> None:
    """A stub that nothing calls, kept bound here for one reader.

    The benchmark harness times each frontend phase by wrapping its
    name as bound in this module (``bench/spans.py``, ``FRONTEND``),
    and it still names the capture/effect analysis phase that 3.0
    removed.  With no caller its span never fires, so
    ``analysis.us_per_req`` reads 0.  Delete this once the harness no
    longer names it."""


#: Constant types the prelude image may hold: atoms no session can
#: mutate, so sharing them between sessions shares no state.
_IMMUTABLE_ATOMS = frozenset(
    {bool, int, float, complex, Fraction, str, Char, Symbol, Nil, Unspecified}
)

_prelude_image: tuple[tuple[Node, ...], dict[Symbol, Any]] | None = None
_prelude_lock = threading.Lock()


def prelude_image() -> tuple[tuple[Node, ...], dict[Symbol, Any]]:
    """The process-wide prelude image: :data:`PRELUDE` read and expanded
    once in a fresh ``ExpandEnv``, as (expanded top-level nodes, the
    macro entries that expansion defined).  Every prelude session boots
    from it, and a cluster front builds it before forking its workers.

    Expansion depends only on the macros in scope, so the image is valid
    only for a fresh ``ExpandEnv``.  It is shared, so it must be
    immutable: the resolver rebuilds every node except ``Const``, whose
    values are checked here to be immutable atoms.  A session binds the
    image instead of running it, so every form must be ``(define name
    <lambda|atom>)``; anything else raises :class:`TypeError`."""
    global _prelude_image
    image = _prelude_image
    if image is None:
        with _prelude_lock:
            image = _prelude_image
            if image is None:
                env = ExpandEnv()
                nodes = tuple(expand_program(read_all(PRELUDE), env))
                _check_bindable(nodes)
                _check_immutable(nodes)
                image = _prelude_image = (nodes, dict(env.macros))
    return image


def _check_bindable(nodes: tuple[Node, ...]) -> None:
    for node in nodes:
        if type(node) is not DefineTop or type(node.expr) not in (Lambda, Const):
            raise TypeError(
                f"prelude form {pretty(node)} is not (define name <lambda|atom>); "
                "a session binds the prelude without running it"
            )


def _check_immutable(nodes: tuple[Node, ...]) -> None:
    stack: list[Any] = list(nodes)
    while stack:
        node = stack.pop()
        if type(node) is Const:
            if type(node.value) not in _IMMUTABLE_ATOMS:
                raise TypeError(
                    f"prelude constant {scheme_repr(node.value)} is mutable; "
                    "a shared prelude image may hold only immutable atoms"
                )
            continue
        for field in fields(node):
            child = getattr(node, field.name)
            if isinstance(child, Node):
                stack.append(child)
            elif isinstance(child, tuple):
                stack.extend(c for c in child if isinstance(c, Node))


def _first_call_body(closure: Closure, define: DefineTop, engine: Engine) -> Any:
    """A prelude closure's body until its first application: a code
    thunk that builds the real body (``compile_node`` of the lambda's
    body, or under codegen the body function of the define's emitted
    module, so its self-call guard holds), stores it in
    ``closure.body`` and runs it in the same machine step.

    The real body is a pure function of the resolved IR in ``.node``,
    so deferring it changes no transition; a snapshot that catches a
    task at ``(EVAL, stub)`` writes that IR like any other code."""

    def enter(machine: Any, task: Any) -> Any:
        body = closure.body
        if body is enter:
            if engine == "codegen":
                body = codegen_node(define, lambda_body=True)
            else:
                body = compile_node(define.expr.body)
            closure.body = body
        return body(machine, task)

    enter.node = define.expr.body  # type: ignore[attr-defined]
    enter.triv = None  # type: ignore[attr-defined]
    return enter


class Base(NamedTuple):
    """What booting a session created, recorded when boot finishes.  A
    snapshot (:mod:`repro.snapshot`) names its session's base and
    carries only what changed since; restore boots the same base again.

    ``objects`` holds the global cells' values in cell order — its first
    ``cells`` entries: primitives, control primitives and, with the
    prelude, its closures and atoms — then the closures' top-level
    environment, then the prelude's macros.  No session can mutate any
    of them (:func:`prelude_image` admits only lambdas and immutable
    atoms), so a snapshot may name them by position instead of writing
    them down.  A tuple, not a dict: a host holds many sessions, and
    each pays only one pointer per object."""

    prelude: bool
    cells: int
    objects: tuple


#: Default pump chunk for synchronous driving (drive()/result()): big
#: enough that chunking is invisible, small enough that wall-clock
#: deadlines are still honoured promptly inside one pump.
_DRIVE_CHUNK = 1 << 20


class Session:
    """A complete Scheme-with-process-continuations system: one
    interpreter session, usable on its own (``repro.Interpreter`` is
    this class) or as one of a :class:`~repro.host.Host`'s N sessions.
    ``docs/API.md`` mirrors these parameters.

    Parameters
    ----------
    policy:
        Scheduling policy for ``pcall`` branches:
        :class:`~repro.machine.scheduler.SchedulerPolicy` or its string
        value — ``"round-robin"`` (default, deterministic), ``"random"``
        (seeded by ``seed``) or ``"serial"``.
    seed:
        RNG seed for the random policy.
    quantum:
        Steps a task runs before the scheduler rotates (round-robin).
    max_steps:
        Optional *lifetime* step budget for the session; exceeding it
        raises :class:`repro.errors.StepBudgetExceeded`.  Per-call
        budgets are the ``max_steps``/``deadline`` keywords on
        :meth:`submit`, :meth:`run` and :meth:`eval`.
    prelude:
        Load the Scheme prelude (list utilities, tree helpers).  On by
        default; switch off for a bare machine.
    echo_output:
        Also print ``display`` output to real stdout.
    engine:
        Execution engine: :class:`~repro.machine.scheduler.Engine` or
        its string value — ``"compiled"`` or ``"codegen"`` (see
        :data:`repro.machine.scheduler.ENGINES`).  Defaults to
        ``"compiled"``, the reference engine: the pipeline reader →
        expand → resolve → compile → machine.  ``"codegen"`` is the
        fast path — resolved IR is emitted as straight-line Python
        source, ``compile()``d once and cached by ``ir-hash-v1`` digest
        (:mod:`repro.ir.codegen`, DESIGN.md S26).  Both run on one run
        loop and agree on every program
        (``tests/integration/test_engine_matrix.py``).
    profile:
        Keep VM run-loop counters (quanta, spill causes, write-backs
        avoided) in ``machine.vm_stats``; surfaced through
        :attr:`stats` and the REPL's ``,stats``.
    record:
        Observability (see ``docs/OBSERVABILITY.md``): ``True`` attaches
        a fresh :class:`~repro.obs.Recorder` ring buffer, or pass an
        existing :class:`~repro.obs.Recorder` to share one across
        machines.  Control events (captures, reinstatements, forks,
        label pops, join fires) and per-quantum timings stream into it;
        export with ``session.recorder.to_chrome_trace()`` or
        ``session.recorder.render()``.  Default None: zero overhead.
    max_pending:
        Bound on queued + in-flight evaluations; :meth:`submit` beyond
        it raises :class:`~repro.errors.HostSaturated` — the same
        backpressure contract as every other frontend.
    name:
        Keyword-only label used in error messages and host listings.
    """

    def __init__(
        self,
        policy: str | SchedulerPolicy = SchedulerPolicy.ROUND_ROBIN,
        seed: int | None = None,
        quantum: int = 16,
        max_steps: int | None = None,
        prelude: bool = True,
        echo_output: bool = False,
        engine: str | Engine | None = None,
        profile: bool = False,
        record: "Recorder | bool | None" = None,
        max_pending: int = 64,
        *,
        name: str | None = None,
    ):
        engine = normalize_engine(engine if engine is not None else "compiled")
        self.name = name if name is not None else f"session-{next(_session_ids)}"
        self.engine = engine
        self.resolver_stats = RESOLVER_METRICS()
        self.compile_stats = COMPILE_METRICS()
        self.codegen_stats = CODEGEN_METRICS()
        self.globals = GlobalEnv()
        self.output = install_primitives(self.globals, OutputBuffer(echo=echo_output))
        register_control_primitives(self.globals)
        self.machine = Machine(
            self.globals,
            policy=policy,
            seed=seed,
            quantum=quantum,
            max_steps=max_steps,
            engine=engine,
            profile=profile,
            record=record,
        )
        self.expand_env = ExpandEnv()
        self._loaded_examples: set[str] = set()
        self.max_pending = max(1, max_pending)
        self._pending: deque[EvalHandle] = deque()
        self._active: EvalHandle | None = None
        self._in_pump = False
        self._output_from = 0  # active handle's unreported output.parts
        self.metrics = SESSION_METRICS()
        if prelude:
            nodes, macros = prelude_image()
            self.expand_env.macros.update(macros)
            # Bound, not run: resolving interns the cells in the order
            # running would, then each define binds its atom, or a
            # closure whose body is built at its first call.
            env = self.machine.toplevel_env
            for define in resolve_program(list(nodes), self.globals, self.resolver_stats):
                expr = define.expr
                if type(expr) is Const:
                    value = expr.value
                else:
                    value = Closure(expr.params, expr.rest, None, env, expr.name, expr.nslots)
                    value.body = _first_call_body(value, define, engine)
                self.globals.define(define.name, value)
        values = [cell.value for cell in self.globals.cells.values()]
        self.base = Base(
            prelude,
            len(values),
            (*values, self.machine.toplevel_env, *self.expand_env.macros.values()),
        )

    # -- submission ------------------------------------------------------

    def submit(
        self,
        source: str,
        *,
        max_steps: int | None = None,
        deadline: float | None = None,
        tenant: str | None = None,
    ) -> EvalHandle:
        """Queue ``source`` for evaluation; returns its handle.

        This is the **shared submit contract** (``source, *,
        max_steps=None, deadline=None, tenant=None``) honoured by every
        frontend — ``Session``, ``Host`` and ``Cluster`` — see
        ``docs/API.md``.

        The frontend (read → expand → resolve → compile, per the
        session's engine) runs eagerly here, so reader/expansion errors
        raise immediately and never occupy the machine.  ``max_steps``
        bounds the evaluation's machine steps (enforced exactly;
        exceeding it fails the handle with
        :class:`~repro.errors.StepBudgetExceeded`); ``deadline`` is a
        wall-clock allowance in seconds, started *now* — queueing time
        counts — and expiry fails the handle with
        :class:`~repro.errors.DeadlineExceeded` within one quantum.
        ``tenant`` is an attribution label stamped on the handle
        (quota accounting in :mod:`repro.gateway`); it never affects
        evaluation.  Raises :class:`~repro.errors.HostSaturated` when
        the bounded queue is full.
        """
        if self.queue_depth >= self.max_pending:
            self.metrics.saturations += 1
            raise HostSaturated(
                f"session {self.name}: submit queue full "
                f"({self.queue_depth}/{self.max_pending})"
            )
        return self._enqueue(
            expand_program(read_all(source), self.expand_env),
            max_steps=max_steps,
            deadline=deadline,
            tenant=tenant,
        )

    def _enqueue(
        self,
        nodes: list[Node],
        *,
        max_steps: int | None = None,
        deadline: float | None = None,
        tenant: str | None = None,
    ) -> EvalHandle:
        """Resolve and compile expanded ``nodes`` against this session's
        globals, and queue them as one evaluation."""
        nodes = resolve_program(nodes, self.globals, self.resolver_stats)
        if self.engine == "codegen":
            code = codegen_program(nodes, self.codegen_stats)
        else:
            code = compile_program(nodes, self.compile_stats)
        handle = EvalHandle(
            self,
            code,
            max_steps=max_steps,
            deadline_at=None if deadline is None else _monotonic() + deadline,
            tenant=tenant,
        )
        self._pending.append(handle)
        self.metrics.submits += 1
        depth = self.queue_depth
        if depth > self.metrics.max_queue_depth:
            self.metrics.max_queue_depth = depth
        return handle

    # -- state -----------------------------------------------------------

    @property
    def queue_depth(self) -> int:
        """Queued plus in-flight evaluations."""
        return len(self._pending) + (1 if self._active is not None else 0)

    @property
    def idle(self) -> bool:
        """True when the session has no queued or in-flight work."""
        return self._active is None and not self._pending

    # -- observability ---------------------------------------------------

    @property
    def recorder(self) -> Recorder | None:
        """The attached observability recorder, if any (shared with —
        and stored on — this session's machine)."""
        return self.machine.recorder

    def attach_recorder(self, recorder: Recorder | None) -> None:
        """Attach (or detach, with None) a recorder.  A host attaches
        its own recorder to member sessions so all layers' spans land
        in one stream."""
        self.machine.recorder = recorder

    # -- the pump --------------------------------------------------------

    def pump(self, budget: int) -> int:
        """Run up to ``budget`` machine steps of this session's queued
        work; returns the number of steps actually executed.  When a
        recorder is attached the pump is bracketed as a
        ``session.pump`` span on this session's track, so quantum and
        control events emitted inside nest under it.

        Evaluations are served FIFO; an unfinished one is suspended in
        place (its whole process tree survives on the machine) and
        resumes at the next pump.  Budget/deadline expiry, errors and
        cancellations terminate only the *current* evaluation — the
        failure is recorded on its handle, the tree is discarded at the
        root, and the session keeps serving.  The single exception is
        the session-lifetime ``max_steps`` (the constructor knob):
        exhausting it both fails the in-flight handle and re-raises, so
        a direct driver (:meth:`run`, :meth:`eval`) sees
        :class:`StepBudgetExceeded`.
        """
        if budget <= 0:
            return 0
        rec = self.machine.recorder
        if rec is not None and rec.enabled:
            with rec.span(
                "session.pump",
                f"{self.name} budget={budget}",
                track=self.name,
                step=self.machine.steps_total,
            ):
                return self._pump(budget)
        return self._pump(budget)

    def _pump(self, budget: int) -> int:
        machine = self.machine
        spent = 0
        served = False
        self._in_pump = True
        try:
            while spent < budget:
                handle = self._active
                if handle is None:
                    if not self._pending:
                        break
                    handle = self._pending.popleft()
                    self._active = handle
                    self._output_from = len(self.output.parts)
                    handle._move(HandleState.RUNNING)
                served = True
                if handle._cancel_requested:
                    self._abort_active(
                        SessionCancelled(
                            f"session {self.name}: evaluation {handle.uid} cancelled"
                        ),
                        kind="cancel",
                    )
                    continue
                # A finished evaluation completes even if its deadline
                # has passed, and an expired deadline stops it before
                # the next form begins, exactly where a step budget of
                # the same count would: a request cut off after N steps
                # is replayed by a budget of N (``repro.cluster``).
                if handle._node_index >= len(handle.nodes):
                    self._flush_output(handle)
                    handle._move(HandleState.DONE)
                    self.metrics.evals_completed += 1
                    self._finish_request(handle)
                    self._active = None
                    continue
                if handle.deadline_at is not None and _monotonic() >= handle.deadline_at:
                    self._abort_active(
                        DeadlineExceeded(
                            f"session {self.name}: evaluation {handle.uid} missed "
                            "its wall-clock deadline",
                            steps=handle.steps,
                        ),
                        kind="deadline",
                    )
                    continue
                handle_cap = None
                if handle.max_steps is not None:
                    remaining = handle.max_steps - handle.steps
                    if remaining <= 0:
                        self._abort_active(
                            StepBudgetExceeded(handle.steps), kind="deadline"
                        )
                        continue
                    handle_cap = machine.steps_total + remaining
                if not handle._node_running:
                    machine.begin_eval(handle.nodes[handle._node_index])
                    handle._node_running = True
                before = machine.steps_total
                try:
                    with machine.budget_scope(
                        max_steps=handle_cap, deadline_at=handle.deadline_at
                    ):
                        finished = machine.step_n(budget - spent)
                except StepBudgetExceeded as exc:
                    spent += self._account(handle, machine.steps_total - before)
                    lifetime = machine.max_steps
                    if handle_cap is not None and (
                        lifetime is None or handle_cap < lifetime
                    ):
                        # The per-request budget was the binding bound:
                        # a deadline miss for this evaluation only.
                        self._abort_active(
                            StepBudgetExceeded(handle.steps), kind="deadline"
                        )
                        continue
                    # The session-lifetime budget: the session will
                    # never pump again, so fail the in-flight handle
                    # AND drain the queue — a queued handle left
                    # PENDING here would block its waiter forever and
                    # re-fault the session on every future tick.
                    self._abort_active(exc, kind="error")
                    self._fail_pending(exc)
                    raise
                except DeadlineExceeded as exc:
                    spent += self._account(handle, machine.steps_total - before)
                    self._abort_active(
                        DeadlineExceeded(
                            f"session {self.name}: evaluation {handle.uid} missed "
                            "its wall-clock deadline",
                            steps=handle.steps,
                            mid_step=exc.mid_step,
                        ),
                        kind="deadline",
                    )
                    continue
                except ReproError as exc:
                    spent += self._account(handle, machine.steps_total - before)
                    self._abort_active(exc, kind="error")
                    continue
                spent += self._account(handle, machine.steps_total - before)
                if finished:
                    handle.values.append(machine.finish())
                    handle._node_running = False
                    handle._node_index += 1
            return spent
        finally:
            self._in_pump = False
            if served:
                self.metrics.quanta_served += 1
            if self._active is not None:
                self._flush_output(self._active)

    def _account(self, handle: EvalHandle, taken: int) -> int:
        handle.steps += taken
        self.metrics.steps_served += taken
        return taken

    def _flush_output(self, handle: EvalHandle) -> None:
        """Report output written since the mark to ``handle``, the
        running request; a handle without a listener keeps its mark."""
        if handle._listener is None:
            return
        parts = self.output.parts
        if len(parts) > self._output_from:
            text = "".join(parts[self._output_from:])
            self._output_from = len(parts)
            handle._output(text)

    def _finish_request(self, handle: EvalHandle) -> None:
        """Observe a request reaching *any* terminal state into the
        session's latency and steps histograms."""
        self.metrics.latency_us.observe((_monotonic() - handle.submitted_at) * 1e6)
        self.metrics.steps_per_request.observe(handle.steps)

    def _fail_pending(self, fault: BaseException) -> None:
        """Session-fatal fault containment: resolve every still-queued
        handle to CANCELLED, naming the fault that killed the session.
        The queue is left empty, so the session reads as idle and a
        host keeps scheduling around it instead of re-faulting it on
        every tick."""
        while self._pending:
            handle = self._pending.popleft()
            handle._move(
                HandleState.CANCELLED,
                SessionCancelled(
                    f"session {self.name}: evaluation {handle.uid} abandoned "
                    f"after session-fatal fault: {fault}"
                ),
            )
            self.metrics.evals_failed += 1
            self.metrics.cancellations += 1
            self._finish_request(handle)

    def _abort_active(self, exc: BaseException, *, kind: str) -> None:
        """End the in-flight evaluation: discard its tree at the root
        (capture-and-discard — never a mid-frame exception) and record
        the failure on its handle."""
        handle = self._active
        assert handle is not None
        if handle._node_running:
            self.machine.abort_tree()
            handle._node_running = False
        self._flush_output(handle)
        handle._move(
            HandleState.CANCELLED if kind == "cancel" else HandleState.FAILED, exc
        )
        self.metrics.evals_failed += 1
        if kind == "deadline":
            self.metrics.deadline_misses += 1
        elif kind == "cancel":
            self.metrics.cancellations += 1
        self._finish_request(handle)
        self._active = None

    # -- cancellation ----------------------------------------------------

    def cancel(self, handle: EvalHandle) -> bool:
        """Cooperatively cancel ``handle``; True if it was still live.

        Queued handles are cancelled on the spot.  The in-flight handle
        is discarded immediately when called between pumps (the machine
        is guaranteed to be at a quantum boundary), or at the top of
        the next pump iteration when called from inside one (e.g. from
        a trace hook).
        """
        if handle.session is not self:
            raise ValueError(f"{handle!r} belongs to {handle.session.name}, not {self.name}")
        if handle.done():
            return False
        if handle is self._active:
            if self._in_pump:
                handle._cancel_requested = True
            else:
                self._abort_active(
                    SessionCancelled(
                        f"session {self.name}: evaluation {handle.uid} cancelled"
                    ),
                    kind="cancel",
                )
            return True
        self._pending.remove(handle)
        handle._move(
            HandleState.CANCELLED,
            SessionCancelled(
                f"session {self.name}: evaluation {handle.uid} cancelled while queued"
            ),
        )
        self.metrics.evals_failed += 1
        self.metrics.cancellations += 1
        self._finish_request(handle)
        return True

    def cancel_all(self) -> int:
        """Cancel every queued and in-flight evaluation; returns the
        number cancelled."""
        count = 0
        for handle in list(self._pending):
            count += bool(self.cancel(handle))
        if self._active is not None:
            count += bool(self.cancel(self._active))
        return count

    # -- synchronous driving ---------------------------------------------

    def drive(self, handle: EvalHandle) -> list[Any]:
        """Pump until ``handle`` is terminal; return its per-form values
        or raise its failure.  Work queued ahead of it runs first
        (FIFO) — this is the single-session embedding path behind
        :meth:`run` and :meth:`eval`."""
        if handle.session is not self:
            raise ValueError(f"{handle!r} belongs to {handle.session.name}, not {self.name}")
        while not handle.done():
            self.pump(_DRIVE_CHUNK)
        if handle._exception is not None:
            raise handle._exception
        return list(handle.values)

    def run(
        self,
        source: str,
        *,
        max_steps: int | None = None,
        deadline: float | None = None,
    ) -> list[Any]:
        """Submit and drive ``source``; returns every form's value
        (definitions yield the unspecified value).

        ``max_steps`` bounds this call's machine steps (enforced
        exactly; raises :class:`~repro.errors.StepBudgetExceeded`);
        ``deadline`` is a wall-clock allowance in seconds (raises
        :class:`~repro.errors.DeadlineExceeded` within one machine
        quantum of expiry).  Both tighten, never loosen, the session's
        lifetime ``max_steps``."""
        return self.drive(self.submit(source, max_steps=max_steps, deadline=deadline))

    def eval(
        self,
        source: str,
        *,
        max_steps: int | None = None,
        deadline: float | None = None,
    ) -> Any:
        """Submit and drive ``source``; returns its last form's value.
        Budget keywords as for :meth:`run`."""
        values = self.run(source, max_steps=max_steps, deadline=deadline)
        return values[-1] if values else None

    # -- conveniences ----------------------------------------------------

    def eval_to_string(self, source: str) -> str:
        """Evaluate and render the result with ``write`` syntax."""
        return scheme_repr(self.eval(source))

    def load_paper_example(self, name: str) -> None:
        """Load one of the paper's programs (and its prerequisites,
        per :data:`repro.lib.paper_examples.PREREQUISITES`) by name."""
        for dep in paper_examples.PREREQUISITES.get(name, []):
            self.load_paper_example(dep)
        if name in self._loaded_examples:
            return
        source, kind = paper_examples.ALL[name]
        if kind == "definitions":
            self.run(source)
            self._loaded_examples.add(name)
        else:
            raise ValueError(
                f"{name} is an expression, not definitions; evaluate it "
                "with eval(paper_examples.ALL[name][0])"
            )

    def load_library(self, name: str) -> None:
        """Load a derived Scheme library (see :mod:`repro.lib.derived`)."""
        key = f"lib:{name}"
        if key in self._loaded_examples:
            return
        try:
            source = LIBRARIES[name]
        except KeyError:
            raise ValueError(
                f"unknown library {name!r}; available: {sorted(LIBRARIES)}"
            ) from None
        self.run(source)
        self._loaded_examples.add(key)

    def load_file(self, path: str) -> list[Any]:
        """Read and run a Scheme source file; returns the form values."""
        with open(path, encoding="utf-8") as handle:
            return self.run(handle.read())

    def output_text(self) -> str:
        """Everything ``display``/``write``/``newline`` produced so far."""
        return self.output.getvalue()

    def clear_output(self) -> None:
        self.output.clear()

    # -- snapshots -------------------------------------------------------

    def snapshot(self) -> bytes:
        """Serialize this session — including suspended evaluations,
        captured continuations and parked future trees — into a blob
        holding what it changed since boot (:attr:`base`); see
        :mod:`repro.snapshot`.  Deterministic:
        the same state yields the same bytes.  Must be called between
        pumps, not from inside one."""
        from repro.snapshot import snapshot_session

        return snapshot_session(self)

    @classmethod
    def restore(
        cls,
        blob: bytes,
        *,
        record=None,
        name: str | None = None,
        engine: "str | Engine | None" = None,
    ) -> "Session":
        """Rebuild a session from a :meth:`snapshot` blob, in this or
        any other process.  ``record`` attaches a fresh observability
        recorder (recorders are never serialized); ``name`` overrides
        the stored session name; ``engine`` restores under a different
        engine (code is recorded as resolved IR + digest, so each
        engine rebuilds its own executable form on restore)."""
        from repro.snapshot import restore_session

        if engine is not None:
            engine = normalize_engine(engine)
        return restore_session(blob, record=record, name=name, engine=engine)

    # -- introspection ---------------------------------------------------

    @property
    def stats(self) -> dict[str, int]:
        """Machine counters plus the compile-stage, VM and serving
        counters, namespaced (``resolver.*``, ``compile.*`` or
        ``codegen.*``, ``vm.*``, ``session.*``), so no key can overwrite
        a machine counter."""
        out = dict(self.machine.stats)
        out.update(self.resolver_stats.as_dict())
        if self.engine == "codegen":
            out.update(self.codegen_stats.as_dict())
        else:
            out.update(self.compile_stats.as_dict())
        if self.machine.profile:
            # The machine's own plain dict, keyed ``vm_<name>``.
            out.update({k.replace("_", ".", 1): v for k, v in self.machine.vm_stats.items()})
        out.update(self.metrics.as_dict())
        return out

    def __repr__(self) -> str:
        return (
            f"#<session {self.name} engine={self.engine} "
            f"depth={self.queue_depth} {'idle' if self.idle else 'busy'}>"
        )
