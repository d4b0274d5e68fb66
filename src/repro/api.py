"""The public API: :class:`Interpreter`, a single-session façade.

    >>> from repro import Interpreter
    >>> interp = Interpreter()
    >>> interp.eval("(+ 1 2)")
    3
    >>> interp.definitions("(define (twice f x) (f (f x)))")
    >>> interp.eval("(twice (lambda (n) (* n n)) 3)")
    81

An :class:`Interpreter` is a thin wrapper over one
:class:`repro.host.Session` — the same object the multi-session
:class:`repro.host.Host` schedules N at a time — so everything the host
runtime offers (per-request step budgets and wall-clock deadlines,
suspendable evaluation, cooperative cancellation) is available on the
single-interpreter surface too:

    >>> from repro.errors import StepBudgetExceeded
    >>> try:
    ...     interp.eval("(let loop ([n 0]) (loop (+ n 1)))", max_steps=1000)
    ... except StepBudgetExceeded as exc:
    ...     exc.steps
    1000

Paper programs load by name via :meth:`load_paper_example`.  The
canonical constructor surface — shared verbatim by ``Session`` and
documented once, here (``docs/API.md`` mirrors it) — accepts enums or
their string values interchangeably for ``engine`` and ``policy``:

    >>> from repro import Engine
    >>> Interpreter(engine=Engine.CODEGEN, prelude=False).engine
    'codegen'
    >>> Interpreter(engine="codegen", prelude=False).engine
    'codegen'
"""

from __future__ import annotations

from typing import Any

from repro.host.handle import EvalHandle
from repro.host.session import Session
from repro.machine.scheduler import Engine, SchedulerPolicy
from repro.obs.recorder import Recorder

__all__ = ["Interpreter"]


class Interpreter:
    """A complete Scheme-with-process-continuations system.

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
        Optional *lifetime* step budget for the interpreter; exceeding
        it raises :class:`repro.errors.StepBudgetExceeded`.  Per-call
        budgets are the ``max_steps``/``deadline`` keywords on
        :meth:`eval` and :meth:`run`.
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
        export with ``interp.recorder.to_chrome_trace()`` or
        ``interp.recorder.render()``.  Default None: zero overhead.
    analysis:
        Run the capture/effect analysis phase
        (:mod:`repro.analysis.effects`, ``docs/ANALYSIS.md``) on every
        submit: lambdas are stamped with conservative facts
        (capture-free, spawn-free, controller-confined, known-total),
        requests are classified pure / capture-heavy / spawning, and
        forms proven single-task run with an enlarged scheduler
        quantum.  On by default; ``analysis=False`` (the REPL's
        ``--no-analysis``) is the ablation baseline.  Semantics are
        identical either way (the analysis-ablation matrix of
        ``tests/integration/test_engine_matrix.py``).
    max_pending:
        Bound on queued + in-flight :meth:`submit` evaluations (passed
        to the underlying :class:`~repro.host.session.Session`);
        beyond it submit raises :class:`~repro.errors.HostSaturated` —
        the same backpressure contract as every other frontend.
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
        analysis: bool = True,
        max_pending: int = 64,
    ):
        self.session = Session(
            policy=policy,
            seed=seed,
            quantum=quantum,
            max_steps=max_steps,
            prelude=prelude,
            echo_output=echo_output,
            engine=engine,
            profile=profile,
            record=record,
            analysis=analysis,
            max_pending=max_pending,
        )
        # The wiring is the session's; these are the historical
        # attribute surface (tests, the REPL and the tracer reach for
        # interp.machine and friends directly).
        self.engine = self.session.engine
        self.machine = self.session.machine
        self.globals = self.session.globals
        self.output = self.session.output
        self.expand_env = self.session.expand_env
        self.resolver_stats = self.session.resolver_stats
        self.compile_stats = self.session.compile_stats
        self.analysis = self.session.analysis
        self.analysis_stats = self.session.analysis_stats

    @property
    def recorder(self) -> Recorder | None:
        """The attached observability recorder (None unless the
        interpreter was built with ``record=``)."""
        return self.session.recorder

    # -- evaluation -----------------------------------------------------

    def run(
        self,
        source: str,
        *,
        max_steps: int | None = None,
        deadline: float | None = None,
    ) -> list[Any]:
        """Read, expand, resolve and compile (or emit, on the codegen
        engine) every form in ``source``, then evaluate.

        Returns the list of values (definitions yield the unspecified
        value).  ``max_steps`` bounds this call's machine steps
        (enforced exactly; raises
        :class:`~repro.errors.StepBudgetExceeded`); ``deadline`` is a
        wall-clock allowance in seconds (raises
        :class:`~repro.errors.DeadlineExceeded` within one machine
        quantum of expiry).  Both tighten, never loosen, the
        interpreter's lifetime ``max_steps``."""
        return self.session.drive(
            self.session.submit(source, max_steps=max_steps, deadline=deadline)
        )

    def eval(
        self,
        source: str,
        *,
        max_steps: int | None = None,
        deadline: float | None = None,
    ) -> Any:
        """Evaluate ``source`` and return the value of its *last* form;
        budget keywords as for :meth:`run`."""
        results = self.run(source, max_steps=max_steps, deadline=deadline)
        if not results:
            return None
        return results[-1]

    def eval_to_string(self, source: str) -> str:
        """Evaluate and render the result with ``write`` syntax."""
        return self.session.eval_to_string(source)

    def submit(
        self,
        source: str,
        *,
        max_steps: int | None = None,
        deadline: float | None = None,
        tenant: str | None = None,
    ) -> EvalHandle:
        """Queue ``source`` without running it; returns the handle
        (resolve it with ``handle.result()`` or by pumping
        :attr:`session`).  The keyword surface is the shared submit
        contract (``docs/API.md``).  This is the incremental path —
        see :class:`repro.host.Session`."""
        return self.session.submit(
            source, max_steps=max_steps, deadline=deadline, tenant=tenant
        )

    # -- conveniences ----------------------------------------------------

    def definitions(self, source: str) -> None:
        """Alias of :meth:`run` for readability at call sites that load
        definitions only."""
        self.session.run(source)

    def load_paper_example(self, name: str) -> None:
        """Load one of the paper's programs (and its prerequisites) by
        name; see :data:`repro.lib.paper_examples.ALL` for names."""
        self.session.load_paper_example(name)

    def load_file(self, path: str) -> list[Any]:
        """Read and run a Scheme source file; returns the form values."""
        return self.session.load_file(path)

    def load_library(self, name: str) -> None:
        """Load a derived Scheme library: ``exceptions``,
        ``generators``, ``coroutines``, ``parallel`` or ``amb``
        (see :mod:`repro.lib.derived`)."""
        self.session.load_library(name)

    def output_text(self) -> str:
        """Everything ``display``/``write``/``newline`` produced so far."""
        return self.session.output_text()

    def clear_output(self) -> None:
        self.session.clear_output()

    @property
    def stats(self) -> dict[str, int]:
        """Machine counters (forks, captures, reinstatements, ...)
        plus the resolver's counters, the compiled engine's
        ``compile.*`` or the codegen engine's ``codegen.*`` counters,
        and the session serving counters, under namespaced keys
        (``resolver.*``, ``compile.*``, ``codegen.*``, ``vm.*``)."""
        return self.session.stats
