"""Capture/effect analysis — a compiler phase over resolved IR.

This module promotes ``repro.analysis`` from the spawn-site heuristic in
:mod:`repro.analysis.escape` into a real phase that runs between the
resolver and the compiler.  For every lambda (and every top-level form)
it computes four conservative facts:

``capture_free``
    Evaluation can never capture a continuation: no ``call/cc``,
    ``call/cc-leaf``, ``spawn`` controller, ``fcontrol``/``F``,
    ``call-with-prompt`` or engine can fire anywhere in the evaluation,
    including through every procedure that can be applied.

``spawn_free``
    Evaluation can never create, resume or wait on a sibling task: no
    ``pcall`` fork, ``future``/``touch``, ``spawn`` or engine runs.
    Together with ``capture_free`` this proves the evaluation is
    *single-task forever* — the fact the run loops exploit.

``controller_confined``
    Every ``(spawn (lambda (c) ...))`` site lexically inside the lambda
    has a safe classification per :mod:`repro.analysis.escape`: the
    controller is unused or used only in direct application position,
    never smuggled out as a value.  Trivially true when there are no
    spawn sites.

``known_total``
    Evaluation provably halts (normally or with a raised Scheme error)
    in a bounded number of steps: no recursion through any applied
    binding, only primitives applied.  This is a least-fixpoint fact —
    ``(define (loop) (loop))`` is *not* known-total.

The phase has two faces:

* :func:`annotate_program` — the descriptive pass run by
  ``Session.submit`` after resolution.  It stamps an interned
  :class:`EffectInfo` onto every ``Lambda`` node (closures created from
  those lambdas carry the facts at runtime and through the snapshot
  codec) and returns a :class:`ProgramReport` used to tag the request
  pure / capture-heavy / spawning for host scheduling, the REPL
  ``,analyze`` command and ``analysis.*`` stats.

* :func:`single_task_form` — the authoritative validator consulted at
  the moment a form is about to start running.  Annotation facts can go
  stale (an earlier form may redefine a global the facts relied on), so
  the scheduler-facing decision re-walks the form against the *current*
  global cell values.  Between that walk and the end of the form nothing
  foreign can run (the session grants only when the machine has no
  parked futures and no waiting tasks), and self-mutation is rejected by
  tracking the cells the form itself assigns.  See docs/ANALYSIS.md for
  the full soundness argument.

Facts are *derived* data: ``EffectInfo`` is excluded from IR equality
and from the ``ir-hash-v1`` digest, exactly like resolver slot counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from collections import deque

from repro.analysis.escape import SpawnSite, analyze_spawns
from repro.datum import intern
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
from repro.machine.values import Closure, ControlPrimitive, MachineApplicable, Primitive

__all__ = [
    "EffectInfo",
    "FormFacts",
    "ProgramReport",
    "AnalysisStats",
    "GRANT_QUANTUM",
    "annotate_program",
    "single_task_form",
    "analyze",
]

#: Quantum granted to a form proven single-task (capture-free and
#: spawn-free): with exactly one runnable task, rotation is a no-op, so
#: a larger batch executes the identical step sequence while paying the
#: spill→delegate→reload boundary 1/256th as often at quantum 16.
GRANT_QUANTUM = 4096

# Control primitives that can capture a continuation when applied.  Any
# of these anywhere in an evaluation kills ``capture_free``.
CAPTURING_PRIMITIVES = frozenset(
    {
        "spawn",
        "call/cc",
        "call-with-current-continuation",
        "call/cc-leaf",
        "F",
        "fcontrol",
        "call-with-prompt",
        "make-engine",
        "engine-run",
    }
)

# Control primitives that create, resume or wait on tasks.  Any of
# these (or a ``pcall`` node) kills ``spawn_free``.
SPAWNING_PRIMITIVES = frozenset(
    {
        "spawn",
        "future",
        "touch",
        "make-engine",
        "engine-run",
    }
)

# Control primitives that are pure predicates/accessors: they only set
# the calling task's value register (``placeholder?``, ``future-done?``,
# ``engine?``, ``engine-mileage``).  Safe on every axis.
SAFE_CONTROL_PRIMITIVES = frozenset(
    {
        "placeholder?",
        "future-done?",
        "engine?",
        "engine-mileage",
    }
)


class EffectInfo:
    """Interned, immutable capture/effect facts for one lambda.

    Sixteen instances exist per process (one per fact combination);
    equality is identity.  ``bits`` is the packed form the snapshot
    codec writes (``capture_free | spawn_free<<1 | controller_confined
    <<2 | known_total<<3``).
    """

    __slots__ = ("capture_free", "spawn_free", "controller_confined", "known_total", "bits")

    _INTERNED: list["EffectInfo | None"] = [None] * 16

    def __new__(
        cls,
        capture_free: bool = False,
        spawn_free: bool = False,
        controller_confined: bool = False,
        known_total: bool = False,
    ) -> "EffectInfo":
        bits = (
            (1 if capture_free else 0)
            | (2 if spawn_free else 0)
            | (4 if controller_confined else 0)
            | (8 if known_total else 0)
        )
        cached = cls._INTERNED[bits]
        if cached is not None:
            return cached
        self = object.__new__(cls)
        object.__setattr__(self, "capture_free", bool(capture_free))
        object.__setattr__(self, "spawn_free", bool(spawn_free))
        object.__setattr__(self, "controller_confined", bool(controller_confined))
        object.__setattr__(self, "known_total", bool(known_total))
        object.__setattr__(self, "bits", bits)
        cls._INTERNED[bits] = self
        return self

    @classmethod
    def from_bits(cls, bits: int) -> "EffectInfo":
        return cls(bool(bits & 1), bool(bits & 2), bool(bits & 4), bool(bits & 8))

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError("EffectInfo is immutable")

    def __repr__(self) -> str:
        flags = []
        if self.capture_free:
            flags.append("capture-free")
        if self.spawn_free:
            flags.append("spawn-free")
        if self.controller_confined:
            flags.append("controller-confined")
        if self.known_total:
            flags.append("known-total")
        return f"EffectInfo({', '.join(flags) if flags else 'bottom'})"


@dataclass
class AnalysisStats:
    """Counters for the analysis phase, merged into ``Session.stats``
    under the ``analysis.`` namespace (mirrors ``ResolverStats``)."""

    #: Top-level forms analyzed (prelude included).
    forms: int = 0
    #: Lambda nodes stamped with an :class:`EffectInfo`.
    lambdas: int = 0
    #: Of those, how many proved capture-free / spawn-free / known-total.
    capture_free: int = 0
    spawn_free: int = 0
    known_total: int = 0
    #: Spawn sites seen across analyzed forms.
    spawn_sites: int = 0
    #: Worklist recomputations of program-local defines (each is one
    #: walk of that define's body under the current assumptions).
    fixpoint_passes: int = 0
    #: Forms granted an enlarged quantum by the pump-time validator.
    grants: int = 0

    # Field order is the snapshot codec's wire order for the stats tuple.
    _FIELDS = (
        "forms",
        "lambdas",
        "capture_free",
        "spawn_free",
        "known_total",
        "spawn_sites",
        "fixpoint_passes",
        "grants",
    )

    def as_dict(self) -> dict[str, int]:
        # Prefixed like ResolverStats.as_dict, so Session.stats can both
        # namespace them (``analysis.forms``) and keep a flat alias
        # (``analysis_forms``) without colliding with machine counters.
        return {f"analysis_{name}": getattr(self, name) for name in self._FIELDS}


@dataclass
class FormFacts:
    """Facts for one top-level form of an analyzed program."""

    index: int
    effects: EffectInfo
    spawn_sites: int
    tag: str  # "pure" | "capture-heavy" | "spawning"


@dataclass
class ProgramReport:
    """What :func:`analyze` returns: per-form facts plus the program
    classification ``Session.submit`` tags requests with."""

    forms: list[FormFacts] = field(default_factory=list)
    spawn_sites: list[SpawnSite] = field(default_factory=list)
    lambdas: int = 0
    classification: str = "pure"

    def summary(self) -> str:
        lines = [
            f"classification: {self.classification}"
            f" ({len(self.forms)} form(s), {self.lambdas} lambda(s),"
            f" {len(self.spawn_sites)} spawn site(s))"
        ]
        for form in self.forms:
            lines.append(f"  form {form.index}: {form.tag:13s} {form.effects!r}")
        return "\n".join(lines)


# Fact triples used internally: (capture_free, spawn_free, known_total).
# ``controller_confined`` is computed separately (it is per-lambda
# lexical, not transitive).
_TOP = (True, True, True)
_BOTTOM = (False, False, False)

_SPAWN_RANK = {"pure": 0, "unknown": 1, "capture-heavy": 2, "spawning": 3}

# Node types whose evaluation is trivially effect-free (TOP).
_LEAF_TYPES = frozenset({Const, LocalRef, GlobalRef, Var})


def _meet(a: tuple, b: tuple) -> tuple:
    if a is b or b is _TOP:
        return a
    if a is _TOP:
        return b
    return (a[0] and b[0], a[1] and b[1], a[2] and b[2])


def _control_facts(name: str) -> tuple:
    if name in SAFE_CONTROL_PRIMITIVES:
        return _TOP
    known = name in CAPTURING_PRIMITIVES or name in SPAWNING_PRIMITIVES
    if not known:
        # A control primitive this table has never heard of: assume the
        # worst on every axis.
        return _BOTTOM
    return (name not in CAPTURING_PRIMITIVES, name not in SPAWNING_PRIMITIVES, False)


def _value_facts(value: Any) -> tuple:
    """Facts for applying a runtime value fetched from a global cell."""
    if isinstance(value, Primitive):
        # Plain Python functions: no machine access, terminate (possibly
        # by raising a Scheme error).
        return _TOP
    if isinstance(value, Closure):
        eff = value.effects
        if eff is None:
            return _BOTTOM
        return (eff.capture_free, eff.spawn_free, eff.known_total)
    if isinstance(value, ControlPrimitive):
        return _control_facts(value.name)
    if isinstance(value, MachineApplicable):
        return _BOTTOM
    # UNBOUND or a non-applicable value: the application raises before
    # any control effect can happen, which halts the evaluation.
    return _TOP


_SPAWN_NAME = intern("spawn")


class _ExitLambda:
    """Prepass stack marker: closes the lambda pushed just before it."""


_EXIT = _ExitLambda()


class _Analyzer:
    """One :func:`annotate_program` run over a resolved program."""

    def __init__(self, globals_: Any, stats: AnalysisStats) -> None:
        self.globals = globals_
        self.stats = stats
        # Program-local (define name (lambda ...)) bindings: cell -> lambdas.
        self.defined: dict[Any, list[Lambda]] = {}
        # Cells assigned by set! anywhere in the program, or defined to a
        # non-lambda: applying through them is bottom.
        self.untrusted: set[Any] = set()
        # Current fixpoint assumption per program-local define.
        self.assumed: dict[Any, tuple] = {}
        # Memo of lambda body facts, keyed by id(lambda).  Entries are
        # only ever valid under the current assumptions; the worklist
        # invalidates a cell's entries (see ``owned``) before
        # recomputing it.
        self.memo: dict[int, tuple] = {}
        # Every lambda node seen, for the final stamping pass.
        self.lambdas: dict[int, Lambda] = {}
        # cell -> cells whose walks read its assumption (reverse deps:
        # when a cell's facts change, these must be recomputed).
        self.deps: dict[Any, set[Any]] = {}
        # cell -> memo keys its last walk created (its lexical subtree;
        # lambdas are trees, so ownership is unique).
        self.owned: dict[Any, list[int]] = {}
        # The cell currently being recomputed (None outside the
        # fixpoint): the target of dep edges and owned keys.
        self._cell: Any = None
        # Spawn containment, filled by the prepass: for every ``spawn``
        # reference node, the lambdas lexically enclosing it (so sites
        # can be attributed to lambdas without re-walking bodies), and a
        # per-form flag gating the escape analyzer entirely.
        self.ref_lams: dict[int, tuple] = {}
        self.form_spawn: list[bool] = []

    # -- prepass -------------------------------------------------------------

    def prepass(self, nodes: list[Node]) -> None:
        """One walk per form collecting three things at once: the
        program-local defines and the untrusted (assigned) cells, and
        spawn containment — for every ``spawn`` reference, the lambdas
        enclosing it (and a per-form flag), so the escape analyzer runs
        once per spawning form and never re-walks lambda bodies."""
        cells = self.globals.cells
        ref_lams = self.ref_lams
        for node in nodes:
            stack: list[Any] = [node]
            lam_stack: list[Lambda] = []
            found_in_form = False
            while stack:
                n = stack.pop()
                k = type(n)
                # Ordered by rough frequency: leaves first.
                if k is LocalRef or k is Const:
                    pass
                elif k is GlobalRef:
                    if n.cell.name is _SPAWN_NAME:
                        found_in_form = True
                        ref_lams[id(n)] = tuple(lam_stack)
                elif k is Var:
                    if n.name is _SPAWN_NAME:
                        found_in_form = True
                        ref_lams[id(n)] = tuple(lam_stack)
                elif k is App:
                    stack.append(n.fn)
                    stack.extend(n.args)
                elif k is _ExitLambda:
                    lam_stack.pop()
                elif k is Lambda:
                    lam_stack.append(n)
                    stack.append(_EXIT)
                    stack.append(n.body)
                elif k is If:
                    stack.append(n.test)
                    stack.append(n.then)
                    stack.append(n.els)
                elif k is Seq or k is Pcall:
                    stack.extend(n.exprs)
                elif k is DefineTop:
                    cell = cells.get(n.name)
                    if cell is not None:
                        if type(n.expr) is Lambda:
                            self.defined.setdefault(cell, []).append(n.expr)
                        else:
                            self.untrusted.add(cell)
                    stack.append(n.expr)
                elif k is GlobalSet:
                    self.untrusted.add(n.cell)
                    stack.append(n.expr)
                elif k is SetBang:
                    cell = cells.get(n.name)
                    if cell is not None:
                        self.untrusted.add(cell)
                    stack.append(n.expr)
                elif k is LocalSet:
                    stack.append(n.expr)
            self.form_spawn.append(found_in_form)

        for cell, lams in self.defined.items():
            if cell in self.untrusted:
                continue
            prior = _TOP if cell.value is UNBOUND else _value_facts(cell.value)
            # Safety facts start optimistic (greatest fixpoint: recursion
            # like fib stays capture-free); the termination fact starts
            # pessimistic (least fixpoint: self-loops never prove total).
            self.assumed[cell] = (prior[0], prior[1], False)

    # -- fixpoint ------------------------------------------------------------

    def fixpoint(self) -> None:
        """Dependency-driven worklist over the program-local defines.

        Each cell's body is walked once, then again only when an
        assumption it actually read changes — instead of re-walking
        every body on every chaotic-iteration pass.  Safety facts
        descend and ``known_total`` ascends monotonically, so the
        iteration terminates; the budget is a backstop whose exhaustion
        can only leave *advisory* stamps optimistic (scheduling grants
        never read stamps — :func:`single_task_form` re-walks).
        """
        items = {
            cell: (lams, _TOP if cell.value is UNBOUND else _value_facts(cell.value))
            for cell, lams in self.defined.items()
            if cell not in self.untrusted
        }
        if not items:
            return
        pending = deque(items)
        queued = set(pending)
        budget = max(64, 8 * len(items))
        while pending and budget:
            budget -= 1
            cell = pending.popleft()
            queued.discard(cell)
            self.stats.fixpoint_passes += 1
            for key in self.owned.get(cell, ()):
                self.memo.pop(key, None)
            self._cell = cell
            self.owned[cell] = []
            lams, prior = items[cell]
            facts = prior
            for lam in lams:
                facts = _meet(facts, self.lambda_facts(lam))
            self._cell = None
            if facts != self.assumed[cell]:
                self.assumed[cell] = facts
                for dep in self.deps.get(cell, ()):
                    if dep in items and dep not in queued:
                        pending.append(dep)
                        queued.add(dep)

    # -- transfer functions --------------------------------------------------

    def lambda_facts(self, lam: Lambda) -> tuple:
        key = id(lam)
        got = self.memo.get(key)
        if got is not None:
            return got
        self.lambdas[key] = lam
        facts = self.eval_facts(lam.body)
        self.memo[key] = facts
        if self._cell is not None:
            self.owned[self._cell].append(key)
        return facts

    def apply_facts(self, fn: Any) -> tuple:
        """Facts for *applying* the operator expression ``fn``."""
        k = type(fn)
        if k is Lambda:
            return self.lambda_facts(fn)
        if k is GlobalRef:
            cell = fn.cell
            if cell in self.untrusted:
                return _BOTTOM
            got = self.assumed.get(cell)
            if got is not None:
                if self._cell is not None:
                    self.deps.setdefault(cell, set()).add(self._cell)
                return got
            return _value_facts(cell.value)
        if k is Var:
            cell = self.globals.cells.get(fn.name)
            if cell is None or cell in self.untrusted:
                return _BOTTOM
            got = self.assumed.get(cell)
            if got is not None:
                if self._cell is not None:
                    self.deps.setdefault(cell, set()).add(self._cell)
                return got
            return _value_facts(cell.value)
        # LocalRef or a computed operator: could be any procedure.
        return _BOTTOM

    def eval_facts(self, node: Any) -> tuple:
        k = type(node)
        # References and constants evaluate without control effects, so
        # the sub-walks below skip them instead of meeting with TOP.
        leaf = _LEAF_TYPES
        if k is App:
            fn = node.fn
            kf = type(fn)
            if kf is GlobalRef:
                # Inlined common case of :meth:`apply_facts`.
                cell = fn.cell
                if cell in self.untrusted:
                    facts = _BOTTOM
                else:
                    facts = self.assumed.get(cell)
                    if facts is not None:
                        if self._cell is not None:
                            self.deps.setdefault(cell, set()).add(self._cell)
                    else:
                        facts = _value_facts(cell.value)
            else:
                facts = self.apply_facts(fn)
                if kf not in leaf:
                    facts = _meet(facts, self.eval_facts(fn))
            for arg in node.args:
                if type(arg) not in leaf:
                    facts = _meet(facts, self.eval_facts(arg))
            return facts
        if k in leaf:
            return _TOP
        if k is Lambda:
            # Creating a closure is effect-free; still walk the body so
            # the lambda gets registered (and stamped later).
            self.lambda_facts(node)
            return _TOP
        if k is If:
            facts = _TOP
            for sub in (node.test, node.then, node.els):
                if type(sub) not in leaf:
                    facts = _meet(facts, self.eval_facts(sub))
            return facts
        if k is Seq:
            facts = _TOP
            for expr in node.exprs:
                if type(expr) not in leaf:
                    facts = _meet(facts, self.eval_facts(expr))
            return facts
        if k is Pcall:
            facts = _TOP
            if node.exprs:
                facts = self.apply_facts(node.exprs[0])
            for expr in node.exprs:
                if type(expr) not in leaf:
                    facts = _meet(facts, self.eval_facts(expr))
            # The fork itself creates sibling tasks.
            return (facts[0], False, facts[2])
        if k is LocalSet or k is GlobalSet or k is SetBang or k is DefineTop:
            return self.eval_facts(node.expr)
        return _BOTTOM


def _classify(facts: tuple, n_sites: int) -> str:
    if not facts[1] or n_sites:
        return "spawning"
    if not facts[0]:
        return "capture-heavy"
    return "pure"


def annotate_program(
    nodes: list[Node], globals_: Any, stats: AnalysisStats | None = None
) -> ProgramReport:
    """Analyze a resolved program, stamping facts onto its lambdas.

    Mutates every ``Lambda`` in ``nodes`` in place (sets its ``effects``
    field to an interned :class:`EffectInfo`) and returns a
    :class:`ProgramReport`.  The report is *descriptive*: it reflects
    global cell values at annotation time and is used for request
    tagging and observability, never directly for scheduling grants
    (see :func:`single_task_form`).
    """
    if stats is None:
        stats = AnalysisStats()
    analyzer = _Analyzer(globals_, stats)
    analyzer.prepass(nodes)
    analyzer.fixpoint()

    # Final pass with the converged assumptions: per-form facts (also
    # registers every lambda reachable from the forms).  Memo entries
    # from the fixpoint carry over — after the worklist drains they are
    # exactly the converged facts, so define bodies are not re-walked.
    report = ProgramReport()
    unsafe_lams: set[int] = set()
    for index, node in enumerate(nodes):
        facts = analyzer.eval_facts(node)
        sites = analyze_spawns([node]) if analyzer.form_spawn[index] else []
        stats.forms += 1
        stats.spawn_sites += len(sites)
        report.spawn_sites.extend(sites)
        confined = True
        for site in sites:
            if not site.is_safe():
                confined = False
                # Every lambda lexically enclosing the unsafe site loses
                # ``controller_confined`` (attribution via the prepass).
                unsafe_lams.update(
                    id(lam) for lam in analyzer.ref_lams.get(id(site.ref), ())
                )
        effects = EffectInfo(facts[0], facts[1], confined, facts[2])
        report.forms.append(
            FormFacts(index=index, effects=effects, spawn_sites=len(sites), tag=_classify(facts, len(sites)))
        )

    # Stamp every registered lambda.  A lambda is controller-confined
    # unless an unsafe spawn site sits lexically inside it (trivially
    # confined when it contains no spawn at all).
    stamp = object.__setattr__
    memo = analyzer.memo
    n_capture = n_spawn = n_total = 0
    for key, lam in analyzer.lambdas.items():
        facts = memo.get(key)
        if facts is None:
            facts = analyzer.lambda_facts(lam)
        info = EffectInfo(facts[0], facts[1], key not in unsafe_lams, facts[2])
        stamp(lam, "effects", info)
        if facts[0]:
            n_capture += 1
        if facts[1]:
            n_spawn += 1
        if facts[2]:
            n_total += 1
    report.lambdas = len(analyzer.lambdas)
    stats.lambdas += report.lambdas
    stats.capture_free += n_capture
    stats.spawn_free += n_spawn
    stats.known_total += n_total

    worst = "pure"
    for form in report.forms:
        if _SPAWN_RANK[form.tag] > _SPAWN_RANK[worst]:
            worst = form.tag
    report.classification = worst
    return report


def single_task_form(node: Any, globals_: Any, *, max_nodes: int = 20000) -> bool:
    """Decide, against *current* global cell values, whether evaluating
    ``node`` is provably single-task forever (capture-free and
    spawn-free through every procedure that can be applied).

    This is the authoritative pump-time check backing quantum grants.
    It is independent of annotation (facts stamped at submit time can go
    stale if an earlier form redefined a global) and closes the
    self-mutation hole by rejecting any form that assigns a cell it also
    applies through.  Compiled code thunks are unwrapped to their source
    nodes via their ``node`` attribute.
    """
    root = getattr(node, "node", node)
    seen: set[int] = {id(root)}
    stack: list[Any] = [root]
    applied: list[Any] = []
    mutated: set[Any] = set()
    visited = 0
    while stack:
        n = stack.pop()
        visited += 1
        if visited > max_nodes:
            return False
        k = type(n)
        if k is Const or k is LocalRef or k is GlobalRef:
            continue
        if k is Lambda:
            # Value position: a closure that can only be applied through
            # a LocalRef or computed operator, both of which bottom out
            # below — so an escaping lambda can never be applied inside
            # a granted form without the walk rejecting the apply site.
            continue
        if k is App:
            stack.extend(n.args)
            fn = n.fn
            if type(fn) is Lambda:
                stack.append(fn.body)
            elif type(fn) is GlobalRef:
                cell = fn.cell
                value = cell.value
                if isinstance(value, Closure):
                    applied.append(cell)
                    body = getattr(value.body, "node", value.body)
                    if id(body) not in seen:
                        seen.add(id(body))
                        stack.append(body)
                elif isinstance(value, Primitive):
                    applied.append(cell)
                elif isinstance(value, ControlPrimitive):
                    if value.name not in SAFE_CONTROL_PRIMITIVES:
                        return False
                    applied.append(cell)
                elif isinstance(value, MachineApplicable):
                    return False
                else:
                    # UNBOUND / non-applicable: the apply raises, which
                    # halts the (single) task.  Still track the cell —
                    # the form could define it first.
                    applied.append(cell)
            else:
                # Computed operator (or a dict-dialect Var): unknown
                # procedure, no proof.
                return False
            continue
        if k is If:
            stack.append(n.test)
            stack.append(n.then)
            stack.append(n.els)
            continue
        if k is Seq:
            stack.extend(n.exprs)
            continue
        if k is LocalSet:
            stack.append(n.expr)
            continue
        if k is GlobalSet:
            mutated.add(n.cell)
            stack.append(n.expr)
            continue
        if k is DefineTop:
            cell = globals_.cells.get(n.name)
            if cell is not None:
                mutated.add(cell)
            stack.append(n.expr)
            continue
        # Pcall forks tasks; Var/SetBang mean the unresolved dialect;
        # anything else is unknown.  All refuse the grant.
        return False
    if mutated:
        for cell in applied:
            if cell in mutated:
                return False
    return True


_SCRATCH_SESSION: Any = None


def _scratch_session() -> Any:
    """A lazily-built session (prelude loaded) that :func:`analyze`
    uses when no live session is supplied."""
    global _SCRATCH_SESSION
    if _SCRATCH_SESSION is None:
        from repro.host.session import Session

        _SCRATCH_SESSION = Session(name="analysis-scratch", engine="compiled")
    return _SCRATCH_SESSION


def analyze(source: str, *, session: Any = None) -> ProgramReport:
    """Analyze ``source`` and return a :class:`ProgramReport`.

    With ``session=`` the program is expanded with (a copy of) that
    session's macros and analyzed against its live globals — the same
    facts ``session.submit`` would compute.  Without it, a shared
    scratch session with the standard prelude is used.  Analysis never
    runs the program and never mutates the session (macros defined by
    ``source`` land in a throwaway expansion environment; resolution
    may intern cells for new names, which is observationally inert).
    """
    from repro.expander import ExpandEnv, expand_program
    from repro.ir.resolve import resolve_program
    from repro.reader import read_all

    sess = session if session is not None else _scratch_session()
    env = ExpandEnv()
    env.macros.update(sess.expand_env.macros)
    nodes = expand_program(read_all(source), env)
    nodes = resolve_program(nodes, sess.globals)
    return annotate_program(nodes, sess.globals)
