"""The tracer: event sequences for control operations."""

from repro import Interpreter
from repro.machine.trace import Tracer
from tests.engines import ENGINES, make_session


def test_fork_and_join_events():
    interp = Interpreter()
    with Tracer(interp.machine) as tracer:
        interp.eval("(pcall + 1 2)")
    kinds = tracer.kinds()
    assert kinds.count("fork") == 1
    assert kinds.count("join-fire") == 1
    assert kinds.index("fork") < kinds.index("join-fire")


def test_label_pop_on_normal_return():
    interp = Interpreter()
    with Tracer(interp.machine) as tracer:
        interp.eval("(spawn (lambda (c) 1))")
    # The spawn label pops, then the implicit root label pops.
    assert len(tracer.events_of_kind("label-pop")) == 2


def test_capture_reinstate_sequence():
    interp = Interpreter()
    with Tracer(interp.machine) as tracer:
        interp.eval("(spawn (lambda (c) (+ 1 (c (lambda (k) (k 10))))))")
    kinds = [k for k in tracer.kinds() if k in ("capture", "reinstate", "label-pop")]
    # capture, then reinstate, then the reinstated label pops, then root.
    assert kinds == ["capture", "reinstate", "label-pop", "label-pop"]


def test_abort_has_no_reinstate():
    interp = Interpreter()
    with Tracer(interp.machine) as tracer:
        interp.eval("(spawn (lambda (c) (+ 1 (c (lambda (k) 9)))))")
    assert len(tracer.events_of_kind("capture")) == 1
    assert not tracer.events_of_kind("reinstate")
    # Only the root label pops normally: the spawn label left by capture.
    assert len(tracer.events_of_kind("label-pop")) == 1


def test_prompt_pop_distinguished():
    interp = Interpreter()
    with Tracer(interp.machine) as tracer:
        interp.eval("(prompt (+ 1 2))")
    assert len(tracer.events_of_kind("prompt-pop")) == 1


def test_multi_shot_reinstates_counted():
    interp = Interpreter()
    interp.run("(define k (spawn (lambda (c) (+ 1 (c (lambda (kk) kk))))))")
    with Tracer(interp.machine) as tracer:
        interp.eval("(+ (k 1) (k 2))")
    assert len(tracer.events_of_kind("reinstate")) == 2


def test_task_switches_recorded_when_asked():
    interp = Interpreter(quantum=1)
    with Tracer(interp.machine, record_switches=True) as tracer:
        interp.eval("(pcall + (* 1 2) (* 3 4))")
    switches = tracer.events_of_kind("task-switch")
    assert len(switches) >= 3  # root, then at least the branches


def test_render_is_readable():
    interp = Interpreter()
    with Tracer(interp.machine) as tracer:
        interp.eval("(pcall + 1 (spawn (lambda (c) 2)))")
    text = tracer.render()
    assert "fork" in text and "label-pop" in text and "step" in text


def test_tracer_restores_machine_state():
    interp = Interpreter()
    original_fork = interp.machine.notify_fork
    with Tracer(interp.machine):
        interp.eval("(pcall + 1 2)")
    # Bound-method objects are recreated per access; compare equality.
    assert interp.machine.notify_fork == original_fork
    assert interp.machine.trace_hook is None
    # And a subsequent run records nothing new anywhere.
    interp.eval("(pcall + 3 4)")


def test_nested_search_trace_shape():
    """parallel-search: one capture per hit, one reinstate per resume."""
    interp = Interpreter()
    interp.load_paper_example("search-all")
    interp.run("(define t (list->tree '(2 1 3)))")
    with Tracer(interp.machine) as tracer:
        interp.eval("(search-all t odd?)")
    captures = len(tracer.events_of_kind("capture"))
    reinstates = len(tracer.events_of_kind("reinstate"))
    assert captures == 2  # two odd nodes: 1 and 3
    assert reinstates == 2  # each hit resumed once by the drain loop


def test_counted_equals_emitted_across_engines_and_quanta():
    """The seed tracer sniffed stats deltas from a per-step hook and
    collapsed multiple control events per interval; the notify-based
    tracer must emit exactly one event per counter unit — including
    under the batched loop at quantum 4096, where the hook fires once
    per quantum."""
    for engine in ENGINES:
        for quantum in (1, 16, 4096):
            interp = make_session(engine, quantum=quantum)
            interp.load_paper_example("search-all")
            interp.run("(define t (list->tree '(5 2 8 1 3 7 9)))")
            with Tracer(interp.machine) as tracer:
                interp.eval("(search-all t odd?)")
            counted_c = interp.stats["captures"]
            counted_r = interp.stats["reinstatements"]
            emitted_c = len(tracer.events_of_kind("capture"))
            emitted_r = len(tracer.events_of_kind("reinstate"))
            assert counted_c > 0, f"{engine}/q{quantum}"
            assert emitted_c == counted_c, f"{engine}/q{quantum}"
            assert emitted_r == counted_r, f"{engine}/q{quantum}"


def test_no_event_loss_on_budget_abort():
    """Regression: a capture immediately followed by a budget abort
    produced a counter bump with no further step for the old hook to
    observe, silently losing the event."""
    from repro.errors import StepBudgetExceeded

    for budget in range(1, 40):
        interp = Interpreter(quantum=16)
        with Tracer(interp.machine) as tracer:
            try:
                interp.eval("(spawn (lambda (c) (c (lambda (k) k))))",
                            max_steps=budget)
            except StepBudgetExceeded:
                pass
        assert len(tracer.events_of_kind("capture")) == interp.stats["captures"]
        assert (len(tracer.events_of_kind("reinstate"))
                == interp.stats["reinstatements"])


def test_tracer_reusable_across_sequential_with_blocks():
    interp = Interpreter()
    tracer = Tracer(interp.machine)
    with tracer:
        interp.eval("(pcall + 1 2)")
    first = len(tracer.events)
    assert first > 0
    with tracer:
        interp.eval("(pcall + 3 4)")
    # Second run starts from a clean slate, not an accumulated log.
    assert len(tracer.events) == first
    assert len(tracer.events_of_kind("fork")) == 1


def test_tracer_nested_entry_raises():
    import pytest

    interp = Interpreter()
    tracer = Tracer(interp.machine)
    with tracer:
        with pytest.raises(RuntimeError, match="re-entrant"):
            with tracer:
                pass
    # The outer exit restored the machine cleanly.
    assert interp.machine.trace_hook is None
    interp.eval("(pcall + 1 2)")


def test_capture_events_name_the_capturing_task():
    interp = Interpreter()
    with Tracer(interp.machine) as tracer:
        interp.eval("(spawn (lambda (c) (+ 1 (c (lambda (k) (k 10))))))")
    (capture,) = tracer.events_of_kind("capture")
    (reinstate,) = tracer.events_of_kind("reinstate")
    assert "task" in capture.detail
    assert "task" in reinstate.detail
