"""Differential matrix: the two engines must agree with each other.

Runs the paper's example programs (E1–E10 territory: call/cc products,
spawn/exit, pcall trees, parallel-or, parallel search, futures,
engines), pcall forks, call-heavy control-free programs and the
resolver's equivalence programs under both execution engines × all
three scheduler policies, asserting identical values —
and, for schedule-deterministic programs, identical
``captures``/``reinstatements`` statistics.

The engines differ in how many machine steps a program costs (codegen
fuses more per step), so under a fixed quantum the *interleaving* of
pcall branches can differ across engines.  Every case below is written
so its value is interleaving-independent; the stats assertions
additionally require that the number of continuation captures is
fixed by the program, not by the schedule.

The batching matrices run over the whole engine axis of
``tests/engines.py``, legacy-snapshot cells included.
"""

import pytest

from repro import Interpreter, Session
from repro.datum import scheme_repr
from repro.machine.scheduler import _NO_HALT, ENGINES
from repro.machine.step import run_quantum_compiled
from repro.machine.task import TaskState
from tests.engines import ENGINES as ENGINE_AXIS
from tests.engines import make_session
from tests.snapshot.test_randomized import gen_program

POLICIES = ("round-robin", "random", "serial")


class Case:
    def __init__(self, id, expr, examples=(), setup=None, check_stats=True):
        self.id = id
        self.expr = expr
        self.examples = examples
        self.setup = setup
        self.check_stats = check_stats


CASES = [
    # E1/E2 — product via call/cc escape (one capture, zero or one
    # reinstatement depending on a zero being present).
    Case("e1-product-zero", "(product '(1 2 3 0 5))", examples=("product-callcc",)),
    Case("e1-product-nozero", "(product '(1 2 3 4))", examples=("product-callcc",)),
    # E3 — spawn: return without using the controller, escape, and
    # multi-shot reinstatement of a saved process continuation.
    Case("e3-spawn-return", "(spawn (lambda (c) 5))"),
    Case("e3-spawn-escape", "(+ 1 (spawn (lambda (c) (+ 2 (c (lambda (k) 10))))))"),
    Case(
        "e3-spawn-multi-shot",
        """
        (let ([saved #f])
          (let ([r (+ 1 (spawn (lambda (c)
                                 (c (lambda (k) (set! saved k) 0)))))])
            (list r (saved 10) (saved 20))))
        """,
    ),
    # E4 — sum of products: two spawn/exit branches under a pcall.
    Case(
        "e4-sum-of-products",
        "(sum-of-products '(2 3) '(4 5))",
        examples=("make-cell", "product0", "sum-of-products"),
    ),
    Case(
        "e4-sum-of-products-zero",
        "(sum-of-products '(2 0 3) '(4 5))",
        examples=("make-cell", "product0", "sum-of-products"),
    ),
    # E5/E6 — parallel-or with exactly one truthy branch: exactly one
    # exit fires regardless of schedule.
    Case(
        "e6-parallel-or",
        "(parallel-or #f 7)",
        examples=("make-cell", "first-true", "parallel-or"),
    ),
    # E7/E8 — parallel search over a tree with a single hit: the
    # result list is a singleton, so ordering cannot vary.
    Case(
        "e7-search-all-one-hit",
        "(search-all t (lambda (x) (= x 4)))",
        examples=("make-cell", "parallel-search", "search-all"),
        setup="(define t (list->tree '(1 3 4 5 7 9)))",
    ),
    # E9 — deep capture/reinstate through a tower of frames.
    Case(
        "e9-deep-capture",
        """
        (define (build n k)
          (if (= n 0) (call/cc k) (+ 1 (build (- n 1) k))))
        (+ (build 40 (lambda (k) 0)) 2)
        """,
    ),
    # E10 — futures and engines.
    Case("e10-future", "(let ([p (future (lambda () 42))]) (+ 1 (touch p)))"),
    Case(
        "e10-engine",
        """
        (let ([eng (make-engine (lambda () (* 6 7)))])
          (engine-run eng 100000
                      (lambda (value fuel) value)
                      (lambda (new-eng) 'ran-out)))
        """,
    ),
    # Control operators beyond the paper: prompt/F (functional
    # continuations) and mutation visible through a reinstated capture.
    Case("prompt-F", "(+ 1 (prompt (+ 10 (F (lambda (k) (k (k 100)))))))"),
    Case(
        "set-through-capture",
        """
        (define cell 0)
        (define k2 (call/cc (lambda (k) k)))
        (set! cell (+ cell 1))
        (if (< cell 2) (k2 k2) cell)
        """,
    ),
    # Forks whose branches each return a fixed value, so the sum is
    # schedule-free however the branches interleave.
    Case("pcall-fork", "(pcall + (pcall * 2 3) (pcall - 10 4) 100)"),
    Case(
        "pcall-tree",
        "(pcall + (loop 40 0) (pcall + (loop 9 1) (loop 17 0)) (loop 3 2))",
        setup="(define (loop n acc) (if (= n 0) acc (loop (- n 1) (+ acc 1))))",
    ),
    Case(
        "spawn-future-mix",
        "(list (spawn (lambda (c) (+ 1 (c (lambda (k) (k 10))))))"
        " (touch (future (lambda () 32))))",
    ),
    # Call-heavy control-free programs, in one case to keep the matrix
    # small: codegen's self-call inlining (fib), nested non-tail calls
    # (tak), calls between two globals and list primitives.
    Case(
        "call-heavy",
        """
        (list (fib 12)
              (tak 9 6 3)
              (even2? 301)
              (length (reverse (append (iota 30) (map add1 (iota 30))))))
        """,
        setup="""
        (define (fib n) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2)))))
        (define (tak x y z)
          (if (not (< y x))
              z
              (tak (tak (- x 1) y z) (tak (- y 1) z x) (tak (- z 1) x y))))
        (define (even2? n) (if (= n 0) #t (odd2? (- n 1))))
        (define (odd2? n) (if (= n 0) #f (even2? (- n 1))))
        """,
    ),
    # Racy by construction: both parallel-or branches are truthy, so
    # which one wins depends on the schedule.  Values still agree in
    # the sense that both engines produce *a* truthy branch — pin the
    # branches to the same value so the result is schedule-free, but
    # skip the stats check (the losing branch may or may not have
    # reached its exit when it is abandoned).
    Case(
        "e6-parallel-or-both-true",
        "(parallel-or 9 9)",
        examples=("make-cell", "first-true", "parallel-or"),
        check_stats=False,
    ),
]

# The resolver test suite's equivalence programs double as a binding /
# mutation / capture torture battery; run them through the full matrix
# too (values only — they are deterministic but cheap enough that the
# per-case stats design above already covers the interesting ones).
from tests.machine.test_resolver import EQUIV_PROGRAMS


def _run_case(engine, policy, case):
    interp = Interpreter(engine=engine, policy=policy, seed=7)
    for example in case.examples:
        interp.load_paper_example(example)
    if case.setup:
        interp.run(case.setup)
    value = interp.eval_to_string(case.expr)
    stats = interp.stats
    return value, stats["captures"], stats["reinstatements"]


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("case", CASES, ids=[c.id for c in CASES])
def test_engines_agree(case, policy):
    results = {engine: _run_case(engine, policy, case) for engine in ENGINES}
    values = {engine: r[0] for engine, r in results.items()}
    assert len(set(values.values())) == 1, values
    if case.check_stats:
        counts = {engine: r[1:] for engine, r in results.items()}
        assert len(set(counts.values())) == 1, counts


@pytest.mark.parametrize("policy", POLICIES)
def test_schedule_free_cases_agree_across_policies(policy):
    # For the schedule-deterministic cases, values must not depend on
    # the policy either — compare each policy's run against serial.
    for case in CASES:
        if not case.check_stats:
            continue
        value = _run_case("compiled", policy, case)[0]
        baseline = _run_case("compiled", "serial", case)[0]
        assert value == baseline, case.id


@pytest.mark.parametrize("source", EQUIV_PROGRAMS)
@pytest.mark.parametrize("policy", POLICIES)
def test_equivalence_programs_across_engines(source, policy):
    values = {
        engine: Interpreter(engine=engine, policy=policy, seed=3).eval_to_string(source)
        for engine in ENGINES
    }
    assert len(set(values.values())) == 1, values


# ---------------------------------------------------------------------------
# Batching equivalence: the run loop batching a quantum in registers vs
# the same loop stepped, spilling every transition (a trace hook is
# installed).  Batching is an implementation detail of the run loop —
# for any quantum, a batched run must produce the same value, the same
# total step count and the same capture stats as a stepped one, because
# the scheduler rotates tasks at the same transition boundaries either
# way.
# ---------------------------------------------------------------------------

BATCH_QUANTA = (1, 2, 16, 4096)


def _run_case_counted(engine, policy, quantum, batched, case):
    session = make_session(engine, policy=policy, seed=7, quantum=quantum)
    if not batched:
        session.machine.trace_hook = lambda machine, task: None
    for example in case.examples:
        session.load_paper_example(example)
    if case.setup:
        session.run(case.setup)
    value = session.eval_to_string(case.expr)
    stats = session.stats
    return (
        value,
        session.machine.steps_total,
        stats["captures"],
        stats["reinstatements"],
    )


@pytest.mark.parametrize("quantum", BATCH_QUANTA)
@pytest.mark.parametrize("engine", ENGINE_AXIS)
def test_batched_matches_stepped(engine, quantum):
    for case in CASES:
        if not case.check_stats:
            continue
        batched = _run_case_counted(engine, "round-robin", quantum, True, case)
        stepped = _run_case_counted(engine, "round-robin", quantum, False, case)
        assert batched == stepped, (case.id, batched, stepped)


# ---------------------------------------------------------------------------
# The run-loop rule: under round-robin, step_n lets a lone runnable task
# run on past its quantum, because rotating a queue of one picks the
# same task again.  So it must schedule exactly as plain round-robin
# does: the same task at every step.  The reference driver below is
# that policy by hand, one quantum per pick and never extended.
# ---------------------------------------------------------------------------

RULE_QUANTA = (1, 3, 16)


def _round_robin(machine, node):
    """Evaluate ``node`` by plain round-robin: pick the next runnable
    task, run it for one quantum (``limit=budget``), rotate it to the
    back of the queue."""
    machine.begin_eval(node)
    while machine.halt_value is _NO_HALT:
        task = machine.queue.popleft()
        if task.state is not TaskState.RUNNABLE:
            continue
        budget = machine.quantum
        run_quantum_compiled(machine, task, budget, limit=budget)
        if task.state is TaskState.RUNNABLE and machine.halt_value is _NO_HALT:
            machine.queue.append(task)
    machine._park_surviving_futures()
    return machine.halt_value


def _traced_run(engine, quantum, case, by_hand):
    """Run ``case`` and record which task took every step: the uids,
    renumbered in order of first appearance."""
    session = Session(engine=engine, quantum=quantum)
    for example in case.examples:
        session.load_paper_example(example)
    if case.setup:
        session.run(case.setup)
    uids = []
    session.machine.trace_hook = lambda machine, task: uids.append(task.uid)
    if by_hand:
        handle = session.submit(case.expr)
        session.cancel(handle)  # keep its compiled forms, run them below
        values = [_round_robin(session.machine, node) for node in handle.nodes]
    else:
        values = session.run(case.expr)
    order = {}
    steps = [order.setdefault(uid, len(order)) for uid in uids]
    return [scheme_repr(v) for v in values], session.output_text(), steps


RULE_CASES = CASES + [
    Case(f"random-{seed}", gen_program(seed)) for seed in (3, 17, 29)
]


@pytest.mark.parametrize("quantum", RULE_QUANTA)
@pytest.mark.parametrize("engine", ENGINES)
def test_run_loop_rule_is_round_robin(engine, quantum):
    for case in RULE_CASES:
        ruled = _traced_run(engine, quantum, case, by_hand=False)
        by_hand = _traced_run(engine, quantum, case, by_hand=True)
        assert ruled == by_hand, case.id


@pytest.mark.parametrize("engine", ENGINE_AXIS)
def test_batched_values_quantum_invariant(engine):
    # Schedule-deterministic cases must not observe the quantum at all:
    # identical values and capture stats at every batch size.
    for case in CASES:
        if not case.check_stats:
            continue
        runs = {
            quantum: _run_case_counted(engine, "round-robin", quantum, True, case)
            for quantum in BATCH_QUANTA
        }
        values = {q: r[0] for q, r in runs.items()}
        assert len(set(values.values())) == 1, (case.id, values)
        captures = {q: r[2:] for q, r in runs.items()}
        assert len(set(captures.values())) == 1, (case.id, captures)
