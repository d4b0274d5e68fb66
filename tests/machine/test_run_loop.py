"""The quantum-batched run loop and its spill protocol.

The run loop (:func:`repro.machine.step.run_quantum_compiled`) holds
the control registers in Python locals and only writes them back to
the task at spill points.  An installed trace hook forces a spill
before every transition — the loop then runs unbatched, one observable
step at a time.  These tests pin the observable contract:

* a capture that fires mid-quantum sees exactly the machine state a
  quantum-of-one machine would have shown it;
* ``StepBudgetExceeded`` fires at *exactly* ``max_steps`` transitions,
  batched or stepped, with any quantum;
* a trace hook forces a per-step spill — it observes coherent task
  registers and step counters on every transition;
* ``profile=True`` keeps the VM counters, ``profile=False`` costs
  nothing and leaves them untouched;
* stepped and batched runs are behaviourally identical on every cell
  of the engine axis (``tests/engines.py``).
"""

import pytest

from repro import Interpreter
from repro.errors import StepBudgetExceeded
from repro.machine.task import APPLY, EVAL, VALUE
from tests.engines import ENGINES, eval_raw_ir, make_session

LOOP = "(define (count n) (if (= n 0) 'done (count (- n 1))))"


# ---------------------------------------------------------------------------
# Exact budget semantics (the step_n clamp)
# ---------------------------------------------------------------------------


def _stepped(machine):
    """Install a no-op trace hook: the run loop spills every step."""
    machine.trace_hook = lambda machine, task: None


@pytest.mark.parametrize("stepped", [True, False])
@pytest.mark.parametrize("quantum", [1, 16, 4096])
@pytest.mark.parametrize("max_steps", [1, 7, 100])
def test_budget_raises_at_exactly_max_steps(stepped, quantum, max_steps):
    interp = Interpreter(engine="compiled", quantum=quantum)
    interp.run(LOOP)
    if stepped:
        _stepped(interp.machine)
    interp.machine.steps_total = 0  # the budget covers the loop only
    interp.machine.max_steps = max_steps
    with pytest.raises(StepBudgetExceeded):
        interp.eval("(count 1000000)")
    assert interp.machine.steps_total == max_steps


@pytest.mark.parametrize("engine", ENGINES)
def test_budget_not_overshot_by_batching(engine):
    # A program that finishes within the budget must not raise even
    # when the quantum is far larger than the budget headroom.
    session = make_session(engine, quantum=4096, max_steps=100000)
    session.run(LOOP)
    assert session.eval_to_string("(count 10)") == "done"


# ---------------------------------------------------------------------------
# Mid-quantum capture sees the same machine as quantum-of-one
# ---------------------------------------------------------------------------

CAPTURE_PROGRAM = """
(define saved #f)
(define r (+ 1 (+ 2 (call/cc (lambda (k) (set! saved k) 10)))))
"""


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("stepped", [True, False])
def test_mid_quantum_capture_frame_chain(engine, stepped):
    results = {}
    for quantum in (1, 4096):
        session = make_session(engine, quantum=quantum)
        if stepped:
            _stepped(session.machine)
        session.run(CAPTURE_PROGRAM)
        first = session.eval("r")
        # Reinstating the saved continuation re-runs the additions
        # around the capture point: the frame chain spilled mid-quantum
        # must be the full (+ 1 (+ 2 _)) tower, re-binding r.
        session.eval("(if (< r 50) (saved 40) 'already)")
        results[quantum] = (first, session.eval("r"))
    assert results[1] == results[4096] == (13, 43)


@pytest.mark.parametrize("engine", ENGINES)
def test_multi_shot_reinstatement_mid_quantum(engine):
    session = make_session(engine, quantum=4096)
    session.run(CAPTURE_PROGRAM)
    # Fire the same captured continuation twice from inside a quantum:
    # each shot re-runs the (+ 1 (+ 2 _)) tower and re-binds r.
    session.eval("(if (< r 100) (saved 100) 'already)")
    assert session.eval("r") == 103
    session.eval("(if (< r 200) (saved 200) 'already)")
    assert session.eval("r") == 203


# ---------------------------------------------------------------------------
# Trace hooks force a per-step spill
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("profile", [True, False])
def test_trace_hook_sees_every_transition(engine, profile):
    session = make_session(engine, quantum=4096, profile=profile)
    session.run(LOOP)
    seen = []

    def hook(machine, task):
        # The spill protocol guarantees coherent registers here: the
        # tag is a live control tag and the machine counter matches
        # the number of hook calls so far.
        assert task.tag is EVAL or task.tag is VALUE or task.tag is APPLY
        assert machine.steps_total == len(seen)
        seen.append(task.tag)

    session.machine.steps_total = 0
    session.machine.trace_hook = hook
    session.eval("(count 20)")
    session.machine.trace_hook = None
    assert len(seen) == session.machine.steps_total
    # Engines fuse differently (codegen's self-call inlining runs two
    # loop iterations per step); any real run of the loop still takes
    # a healthy number of transitions.
    assert len(seen) > 10
    if profile:
        assert session.stats["vm.spill_trace"] >= len(seen)


def test_trace_hook_count_is_batching_invariant():
    # However many steps one quantum batches, the hook sees the same
    # transitions.
    counts = {}
    for quantum in (1, 16, 4096):
        interp = Interpreter(engine="compiled", quantum=quantum)
        interp.run(LOOP)
        calls = [0]

        def hook(machine, task, calls=calls):
            calls[0] += 1

        interp.machine.trace_hook = hook
        interp.eval("(count 50)")
        counts[quantum] = calls[0]
    assert len(set(counts.values())) == 1, counts


# ---------------------------------------------------------------------------
# VM profile counters
# ---------------------------------------------------------------------------


def test_profile_counters_track_quanta_and_spills():
    interp = Interpreter(engine="compiled", policy="serial", profile=True)
    interp.eval(LOOP)
    interp.eval("(count 100)")
    stats = interp.stats
    assert stats["vm.quanta"] > 0
    assert stats["vm.quantum_steps"] > 100
    # A tail loop of this shape runs almost entirely in registers.
    assert stats["vm.allocations_avoided"] > 100
    assert stats["vm.spill_trace"] == 0


def test_profile_off_leaves_counters_untouched():
    interp = Interpreter(engine="compiled")
    interp.eval("(+ 1 2)")
    assert all(value == 0 for value in interp.machine.vm_stats.values())
    assert "vm.quanta" not in interp.stats


def test_profile_counts_trace_spills():
    interp = Interpreter(engine="compiled", profile=True)
    interp.run(LOOP)
    interp.machine.trace_hook = lambda machine, task: None
    interp.eval("(count 10)")
    interp.machine.trace_hook = None
    assert interp.stats["vm.spill_trace"] > 0


# ---------------------------------------------------------------------------
# Stepped runs and the apply paths
# ---------------------------------------------------------------------------

APPLY_SHAPES = [
    ("(+ 1 2 3)", "6"),
    ("((lambda (a b) (- a b)) 10 4)", "6"),
    ("((lambda args (length args)) 1 2 3 4)", "4"),
    ("((lambda (a . rest) (cons a rest)) 1 2 3)", "(1 2 3)"),
    ("(apply + '(1 2 3))", "6"),
    ("(call/cc (lambda (k) (+ 1 (k 41))))", "41"),
    ("(+ 1 (prompt (+ 10 (F (lambda (k) (k (k 100)))))))", "121"),
    ("(spawn (lambda (c) 5))", "5"),
]


@pytest.mark.parametrize("source,expected", APPLY_SHAPES)
@pytest.mark.parametrize("engine", ENGINES)
def test_unbatched_apply_path_is_equivalent(engine, source, expected):
    # With every step spilled, each application goes through the same
    # apply path with the registers written back first.
    fast = make_session(engine)
    slow = make_session(engine)
    _stepped(slow.machine)
    assert fast.eval_to_string(source) == slow.eval_to_string(source) == expected


def test_arity_errors_agree_across_apply_paths():
    from repro.errors import ArityError

    # Slot-rib closures (compiled thunks, codegen's inline dispatch) and
    # dict-rib closures (the unresolved dialect on the raw-IR fallback).
    for engine in ("compiled", "codegen"):
        interp = Interpreter(engine=engine)
        with pytest.raises(ArityError):
            interp.eval("((lambda (a b) a) 1)")
        with pytest.raises(ArityError):
            interp.eval("((lambda (a b) a) 1 2 3)")
    for resolve in (True, False):
        interp = Interpreter()
        with pytest.raises(ArityError):
            eval_raw_ir(interp, "((lambda (a b) a) 1)", resolve=resolve)
        with pytest.raises(ArityError):
            eval_raw_ir(interp, "((lambda (a b) a) 1 2 3)", resolve=resolve)
