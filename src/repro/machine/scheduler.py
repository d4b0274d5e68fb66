"""The machine: a deterministic interleaving scheduler over the
process tree.

``pcall`` branches run as separate tasks; the scheduler steps runnable
tasks in quanta, giving the concurrency semantics of the paper without
physical parallelism (which is orthogonal to every claim reproduced —
see DESIGN.md).  Three policies are provided:

* ``round-robin`` (default): fair FIFO, fully deterministic;
* ``random``: seeded random task choice, for property tests that
  assert schedule-independence of results;
* ``serial``: run each task until it blocks or dies before starting
  the next — the degenerate "sequential elaboration" useful for
  differential tests against the Section 6 rewriting semantics.
"""

from __future__ import annotations

import contextlib
import enum
import random
from collections import deque
from time import monotonic as _monotonic
from typing import Any, Callable, Iterator

from repro.errors import DeadlineExceeded, MachineError, StepBudgetExceeded
from repro.ir import Node
from repro.machine.environment import Environment, GlobalEnv
from repro.machine.links import HaltLink, Join, Label, LabelLink, PromptLabel
from repro.machine.step import run_quantum_compiled
from repro.machine.task import EVAL, Task, TaskState
from repro.obs.recorder import Recorder, as_recorder

__all__ = ["ENGINES", "Engine", "Machine", "SchedulerPolicy", "normalize_engine"]

#: The execution engines a Machine can run (see repro.machine.step):
#:
#: * ``"compiled"`` — resolved IR pre-translated to code thunks by
#:   :mod:`repro.ir.compile`; the reference engine.
#: * ``"codegen"`` — resolved IR emitted as straight-line Python source
#:   and ``compile()``d once per form by :mod:`repro.ir.codegen`, with
#:   code objects cached by ``ir-hash-v1`` digest; the fast path.
#:
#: The emitted functions obey the same code-thunk contract as the
#: compiled engine's, so both share one run loop, push identical frame
#: chains and control points, and the capture/reinstate algebra — and
#: every Section 7 claim — is engine-independent.
ENGINES = ("compiled", "codegen")


class Engine(enum.Enum):
    """Execution-engine selector; every constructor that takes an
    ``engine`` accepts either this enum or its string value."""

    COMPILED = "compiled"
    CODEGEN = "codegen"


def normalize_engine(engine: "Engine | str") -> str:
    """Normalize an engine selector (enum or string) to its canonical
    string name, raising ``ValueError`` for unknown engines."""
    if isinstance(engine, Engine):
        return engine.value
    if engine not in ENGINES:
        raise ValueError(
            f"unknown engine {engine!r}; expected one of {', '.join(ENGINES)}"
        )
    return engine


class SchedulerPolicy(enum.Enum):
    ROUND_ROBIN = "round-robin"
    RANDOM = "random"
    SERIAL = "serial"


class _NoHalt:
    def __repr__(self) -> str:  # pragma: no cover
        return "#<no-halt>"


_NO_HALT = _NoHalt()


class Machine:
    """Evaluates IR programs over a shared global environment.

    One :class:`Machine` may evaluate many top-level forms in sequence;
    each form gets a fresh process tree rooted at an implicit label
    (the ``root label``), which is what the whole-tree ``call/cc``
    policy captures against.
    """

    def __init__(
        self,
        globals_: GlobalEnv | None = None,
        policy: SchedulerPolicy | str = SchedulerPolicy.ROUND_ROBIN,
        seed: int | None = None,
        quantum: int = 16,
        max_steps: int | None = None,
        engine: str | Engine = "compiled",
        profile: bool = False,
        record: "Recorder | bool | None" = None,
    ):
        self.globals = globals_ if globals_ is not None else GlobalEnv()
        self.policy = SchedulerPolicy(policy)
        self.quantum = max(1, quantum)
        # Analysis-granted quantum enlargement.  The session layer sets
        # this (to repro.analysis.effects.GRANT_QUANTUM) after proving
        # the form about to run capture- and spawn-free — single-task
        # forever — and clears it at form end.  step_n honours it only
        # while no other task is runnable, so multi-task scheduling is
        # untouched.  Transient by design: never serialized.
        self.quantum_grant: int | None = None
        self.max_steps = max_steps
        # Wall-clock deadline (absolute ``time.monotonic`` timestamp, or
        # None).  Checked once per quantum by step_n, so the host's
        # DeadlineExceeded fires within one quantum of the budget and
        # never mid-frame.  Set via budget_scope (scoped) or directly.
        self.deadline: float | None = None
        self.engine = normalize_engine(engine)
        # VM counters (satellite observability).  Always allocated so
        # the run loop can reference it; only *updated* when
        # ``profile=True`` (the loop skips the bookkeeping otherwise).
        self.profile = profile
        self.vm_stats: dict[str, int] = {
            "vm_quanta": 0,
            "vm_quantum_steps": 0,
            "vm_spill_apply": 0,
            "vm_spill_control": 0,
            "vm_spill_suspend": 0,
            "vm_spill_budget": 0,
            "vm_spill_trace": 0,
            "vm_spill_fallback": 0,
            "vm_allocations_avoided": 0,
        }
        self.rng = random.Random(seed)
        self.toplevel_env = Environment.toplevel(self.globals)

        # Per-evaluation state.
        self.root_entity: Any = None
        self.root_label_link: LabelLink | None = None
        self.queue: deque[Task] = deque()
        self.halt_value: Any = _NO_HALT
        self.steps_total = 0

        # Future trees (Section 8 forest) surviving across top-level
        # forms: runnable future-tree tasks parked between evals, and
        # the set of tasks currently blocked on placeholders.
        self.parked_futures: list[Task] = []
        self.waiting_tasks: set[Task] = set()

        # Lifetime counters (introspection / benchmarks).
        self.stats: dict[str, int] = {
            "forks": 0,
            "label_pops": 0,
            "join_fires": 0,
            "captures": 0,
            "reinstatements": 0,
            "tasks_created": 0,
        }
        # Optional step hook for tracing: fn(machine, task) before each step.
        self.trace_hook: Callable[["Machine", Task], None] | None = None
        # Observability recorder (repro.obs).  ``record=True`` builds a
        # fresh ring buffer; an existing Recorder is shared (the host
        # passes one recorder down through every session's machine so
        # spans from all layers land in one stream).  None — the
        # default — keeps every emit site on its zero-cost path.
        self.recorder = as_recorder(record)

    # -- scheduler interface used by step/tree/control ----------------------

    def spawn_task(self, task: Task) -> None:
        """Register a *newly created* task: count it in
        ``tasks_created`` and queue it.  Every site that constructs a
        fresh ``Task`` (root install, pcall branches, join successors,
        capture/reinstate successors, future roots) goes through here.
        """
        self.stats["tasks_created"] += 1
        self.queue.append(task)

    def enqueue(self, task: Task) -> None:
        """Queue an *existing* task: pure queueing, no accounting.
        Used for re-runnable tasks — woken placeholder waiters, parked
        future-tree tasks resuming at the next top-level form."""
        self.queue.append(task)

    def halt(self, value: Any) -> None:
        self.halt_value = value

    # -- control-event notify points ----------------------------------------
    #
    # Every control operation lands on exactly one of these, from both
    # engines (the sites live in shared code: the run loop's
    # _deliver_through_link, the pcall forks and the control primitives'
    # machine_apply).  They are the single source of truth for both the
    # stats counters and the observability stream: counted == emitted
    # by construction, which is what fixes the seed Tracer's event
    # loss (it sniffed counter deltas from a per-step hook and dropped
    # events when the evaluation aborted between hook calls).

    def notify_fork(self, join: Join) -> None:
        self.stats["forks"] += 1
        rec = self.recorder
        if rec is not None and rec.enabled:
            rec.emit("fork", f"join {id(join) & 0xFFFF:04x}", step=self.steps_total)

    def notify_label_pop(self, link: LabelLink) -> None:
        self.stats["label_pops"] += 1
        rec = self.recorder
        if rec is not None and rec.enabled:
            label = link.label
            name = "prompt-pop" if isinstance(label, PromptLabel) else "label-pop"
            rec.emit(name, label.name, step=self.steps_total)

    def notify_join_fire(self, join: Join) -> None:
        self.stats["join_fires"] += 1
        rec = self.recorder
        if rec is not None and rec.enabled:
            rec.emit("join-fire", f"join {id(join) & 0xFFFF:04x}", step=self.steps_total)

    def notify_capture(self, task: Task, kind: str = "") -> None:
        """A continuation (subtree or whole-tree) was captured by
        ``task``.  Counts into ``stats["captures"]`` and emits one
        recorder event — one call per capture, from every engine."""
        self.stats["captures"] += 1
        rec = self.recorder
        if rec is not None and rec.enabled:
            detail = f"{kind} by task {task.uid}" if kind else f"by task {task.uid}"
            rec.emit("capture", detail, step=self.steps_total)

    def notify_reinstate(self, task: Task, kind: str = "") -> None:
        """A captured continuation was reinstated by ``task``."""
        self.stats["reinstatements"] += 1
        rec = self.recorder
        if rec is not None and rec.enabled:
            detail = f"{kind} by task {task.uid}" if kind else f"by task {task.uid}"
            rec.emit("reinstate", detail, step=self.steps_total)

    def register_future_root(self, task: Task) -> None:
        self.stats["futures"] = self.stats.get("futures", 0) + 1

    def kill_main_tree_tasks(self) -> None:
        """Abort every task of the *main* tree only (whole-tree
        abortive continuations must not touch independent future
        trees — Section 8's isolation)."""
        self.queue.extend(self._drain_main_tree())

    def _drain_main_tree(self) -> list[Task]:
        """Empty the run queue: main-tree tasks die, and the runnable
        future-tree tasks are returned."""
        survivors: list[Task] = []
        for task in self.queue:
            if task.state is not TaskState.RUNNABLE:
                continue
            if self._in_future_tree(task):
                survivors.append(task)
            else:
                task.state = TaskState.DEAD
        self.queue.clear()
        return survivors

    def _in_future_tree(self, task: Task) -> bool:
        """True if ``task`` belongs to an independent future tree (its
        tree's HaltLink resolves a placeholder)."""
        root = self._tree_root(task)
        return isinstance(root, HaltLink) and root.placeholder is not None

    def _tree_root(self, task: Task) -> Any:
        """The HaltLink at the base of the tree containing ``task``,
        or None if the task sits in a detached (captured) subtree."""
        link: Any = task.link
        while True:
            if isinstance(link, HaltLink):
                return link
            if isinstance(link, LabelLink):
                link = link.cont_link
            elif link is None:
                return None
            else:  # ForkLink
                link = link.join.cont_link

    def _park_surviving_futures(self) -> None:
        """At the end of a top-level form: future-tree tasks survive
        into the next form; main-tree tasks die, and main-tree waiters
        are detached from their placeholders so a later resolve cannot
        wake a task of a finished form."""
        self.parked_futures = self._drain_main_tree()
        for task in list(self.waiting_tasks):
            if not self._in_future_tree(task):
                task.state = TaskState.DEAD
                self.waiting_tasks.discard(task)

    # -- evaluation ----------------------------------------------------------

    def begin_eval(self, node: Node, env: Environment | None = None) -> None:
        """Set up a fresh tree for ``node`` without running it.

        Drive it with :meth:`step_n` (incremental — engines use this)
        or :meth:`finish` (run to completion).
        """
        env = env if env is not None else self.toplevel_env
        root_task = Task((EVAL, node), env, None, None)  # type: ignore[arg-type]
        self._install_root(root_task)

    def begin_apply(self, fn: Any, args: list[Any]) -> None:
        """Like :meth:`begin_eval`, but the root task applies ``fn`` to
        ``args`` (used to run an existing closure, e.g. an engine's
        thunk)."""
        from repro.machine.task import APPLY

        root_task = Task((APPLY, fn, args), self.toplevel_env, None, None)  # type: ignore[arg-type]
        self._install_root(root_task)

    def _install_root(self, root_task: Task) -> None:
        halt = HaltLink(self)
        root_label = LabelLink(Label("root"), None, halt)
        self.root_entity = root_label
        self.root_label_link = root_label
        self.queue = deque()
        self.halt_value = _NO_HALT
        root_task.link = root_label
        root_label.child = root_task
        self.spawn_task(root_task)
        # Future trees parked at the end of the previous form resume:
        # these tasks already exist, so this is pure re-queueing — they
        # must not be recounted in tasks_created.
        for survivor in self.parked_futures:
            self.enqueue(survivor)
        self.parked_futures = []

    def finish(self) -> Any:
        """Run the current tree to completion and return its value.

        The chunk size only bounds how often control returns here;
        :meth:`step_n` clamps every quantum to the ``max_steps``
        headroom itself, so the budget is honoured exactly regardless
        of the chunking.
        """
        while not self.step_n(4096):
            pass
        self._park_surviving_futures()
        return self.halt_value

    def eval_node(self, node: Node, env: Environment | None = None) -> Any:
        """Evaluate one top-level IR node to a value."""
        self.begin_eval(node, env)
        return self.finish()

    def abort_tree(self) -> None:
        """Discard the in-flight tree at its root (cooperative
        cancellation / deadline enforcement).

        This is capture-and-discard: every main-tree task is unlinked
        exactly as an abortive controller discards a captured subtree —
        no exception is delivered into a running frame.  Independent
        future trees survive (they are parked for the next form, as at
        a normal form boundary), main-tree placeholder waiters are
        detached, and the machine is left ready for the next
        :meth:`begin_eval`.  Safe to call after an exception escaped
        :meth:`step_n` mid-run.
        """
        self._park_surviving_futures()
        self.halt_value = _NO_HALT
        self.root_entity = None
        self.root_label_link = None

    @contextlib.contextmanager
    def budget_scope(
        self,
        max_steps: int | None = None,
        deadline_at: float | None = None,
    ) -> Iterator[None]:
        """Temporarily tighten the step budget and wall-clock deadline.

        ``max_steps`` is an absolute ``steps_total`` ceiling,
        ``deadline_at`` an absolute ``time.monotonic`` timestamp.  The
        scope only ever *tightens*: an enclosing budget (the machine's
        lifetime ``max_steps``, or an outer scope — scopes nest, which
        is how the host hands a per-request budget down through
        re-entrant :meth:`step_n` calls) keeps binding if it is
        stricter.  Previous bounds are restored on exit, including when
        :class:`StepBudgetExceeded` / :class:`DeadlineExceeded`
        propagates.  This is the single budget mechanism shared by
        ``Session.run``/``eval(max_steps=..., deadline=...)`` and the
        host runtime's per-request deadlines.
        """
        prev_max, prev_deadline = self.max_steps, self.deadline
        if max_steps is not None:
            self.max_steps = max_steps if prev_max is None else min(prev_max, max_steps)
        if deadline_at is not None:
            self.deadline = (
                deadline_at if prev_deadline is None else min(prev_deadline, deadline_at)
            )
        try:
            yield
        finally:
            self.max_steps = prev_max
            self.deadline = prev_deadline

    def run(self, nodes: list[Node]) -> list[Any]:
        """Evaluate a program (list of top-level nodes) in order."""
        return [self.eval_node(node) for node in nodes]

    # -- the loop ------------------------------------------------------------

    def _pick(self) -> Task | None:
        """Pop the next runnable task per policy; None if none left."""
        queue = self.queue
        if self.policy is SchedulerPolicy.RANDOM:
            # Compact while scanning: dead/suspended entries are dropped
            # the first time they are seen, so a long-dead task is never
            # rescanned on a later pick.
            runnable = [t for t in queue if t.state is TaskState.RUNNABLE]
            queue.clear()
            if not runnable:
                return None
            # randrange consumes the RNG exactly like the rng.choice
            # this replaces, preserving seeded schedules.
            index = self.rng.randrange(len(runnable))
            choice = runnable[index]
            del runnable[index]
            queue.extend(runnable)
            return choice
        while queue:
            task = queue.popleft()
            if task.state is TaskState.RUNNABLE:
                return task
        return None

    def step_n(self, n: int) -> bool:
        """Run up to ``n`` machine steps; True iff the current tree has
        produced its value.  Raises on deadlock or budget exhaustion.

        The inner loop hands whole quanta to
        :func:`~repro.machine.step.run_quantum_compiled` (one Python
        call per quantum rather than per step); each quantum's budget
        is clamped to both ``n`` and the remaining ``max_steps``
        headroom, so :class:`StepBudgetExceeded` is raised at *exactly*
        the budget — never after an overflow step.
        """
        serial = self.policy is SchedulerPolicy.SERIAL
        max_steps = self.max_steps
        deadline = self.deadline
        rec = self.recorder
        if rec is not None and not rec.enabled:
            rec = None
        remaining = n
        while remaining > 0 and self.halt_value is _NO_HALT:
            if deadline is not None and _monotonic() >= deadline:
                # Checked at quantum granularity: an expired deadline
                # refuses the next quantum rather than interrupting one,
                # so enforcement lands within one quantum of the budget
                # and never mid-frame.
                raise DeadlineExceeded(
                    f"wall-clock deadline exceeded after {self.steps_total} steps",
                    steps=self.steps_total,
                )
            task = self._pick()
            if task is None:
                if self.waiting_tasks:
                    raise MachineError(
                        "deadlock: every runnable task is blocked on an "
                        "unresolved future placeholder whose tree can no "
                        "longer run"
                    )
                raise MachineError(
                    "deadlock: no runnable tasks but the program has not "
                    "produced a value (an abandoned pcall branch or a "
                    "dropped process continuation holds the only path to "
                    "the root)"
                )
            if serial:
                budget = remaining
            else:
                budget = min(self.quantum, remaining)
                grant = self.quantum_grant
                if grant is not None and grant > budget and not self.queue:
                    # The session proved this form single-task (capture-
                    # and spawn-free), so with no rotation partner a
                    # larger batch executes the identical step sequence.
                    # The empty-queue check is defense in depth: any
                    # second runnable task reverts to the base quantum.
                    budget = min(grant, remaining)
            if max_steps is not None:
                headroom = max_steps - self.steps_total
                if headroom <= 0:
                    # A runnable task exists but the budget is spent:
                    # the overflow step is refused, not executed.
                    self.queue.appendleft(task)
                    raise StepBudgetExceeded(self.steps_total)
                if budget > headroom:
                    budget = headroom
            if rec is None:
                taken = run_quantum_compiled(self, task, budget)
            else:
                # One X (complete) event per quantum: which task ran,
                # for how many steps, and how long it took.  Emitted
                # even when the quantum raises (budget/deadline/error)
                # so aborted work stays visible in the trace.
                t0 = rec.clock()
                s0 = self.steps_total
                try:
                    taken = run_quantum_compiled(self, task, budget)
                finally:
                    rec.complete(
                        "quantum",
                        t0,
                        rec.clock() - t0,
                        f"task {task.uid} ({self.steps_total - s0} steps)",
                        step=self.steps_total,
                    )
            remaining -= taken
            if task.state is TaskState.RUNNABLE and self.halt_value is _NO_HALT:
                self.queue.append(task)
        return self.halt_value is not _NO_HALT
