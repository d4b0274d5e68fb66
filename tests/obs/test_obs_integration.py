"""The observability layer end to end: machine → session → host.

The load-bearing invariant is *event conservation*: every unit of the
machine's capture/reinstate counters corresponds to exactly one
recorded event, across the whole engine axis and all quanta, including
runs that abort mid-quantum.  The span-tree shape (host.tick →
session.pump → quantum → control events) and the export gates ride on
top.
"""

from __future__ import annotations

import pytest

from repro import Host, Interpreter, Session
from repro.errors import StepBudgetExceeded
from repro.obs import Recorder, validate_chrome_trace
from tests.engines import ENGINES, make_session

QUANTA = [1, 16, 4096]

CHURN = """
(define (churn n)
  (if (= n 0)
      0
      (begin
        (spawn (lambda (c) (c (lambda (k) (k 1)))))
        (churn (- n 1)))))
"""


def _conservation(interp) -> tuple[int, int, int, int]:
    rec = interp.recorder
    return (
        interp.stats["captures"],
        len(rec.events_of("capture")),
        interp.stats["reinstatements"],
        len(rec.events_of("reinstate")),
    )


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("quantum", QUANTA)
def test_counted_equals_emitted_across_engines_and_quanta(engine, quantum):
    """The ISSUE acceptance criterion: counted == emitted for
    capture/reinstate at quantum ∈ {1, 16, 4096} on every engine."""
    interp = make_session(engine, quantum=quantum, record=True)
    interp.load_paper_example("search-all")
    interp.run("(define t (list->tree '(5 2 8 1 3 7 9)))")
    interp.eval("(search-all t odd?)")
    captures, emitted_c, reinstates, emitted_r = _conservation(interp)
    assert captures > 0
    assert emitted_c == captures
    assert emitted_r == reinstates


@pytest.mark.parametrize("engine", ENGINES)
def test_conservation_survives_budget_abort(engine):
    """Events must not be lost when the evaluation aborts right after
    a control operation (the seed Tracer's loss mode)."""
    for budget in range(1, 40):
        interp = make_session(engine, quantum=16, record=True)
        try:
            interp.eval("(spawn (lambda (c) (c (lambda (k) k))))", max_steps=budget)
        except StepBudgetExceeded:
            pass
        captures, emitted_c, reinstates, emitted_r = _conservation(interp)
        assert emitted_c == captures, f"budget={budget}"
        assert emitted_r == reinstates, f"budget={budget}"


def test_machine_record_accepts_shared_recorder():
    shared = Recorder()
    a = Interpreter(record=shared)
    b = Interpreter(record=shared)
    a.eval("(spawn (lambda (c) (c (lambda (k) (k 1)))))")
    b.eval("(spawn (lambda (c) (c (lambda (k) (k 1)))))")
    assert a.recorder is shared and b.recorder is shared
    assert len(shared.events_of("capture")) == 2


def test_record_false_and_default_mean_no_recorder():
    assert Interpreter().recorder is None
    assert Interpreter(record=False).recorder is None


def test_quantum_events_report_task_and_steps():
    interp = Interpreter(record=True, quantum=8)
    interp.eval("(+ 1 2)")
    quanta = interp.recorder.events_of("quantum")
    assert quanta, "expected at least one quantum X event"
    assert all(e.phase == "X" and e.dur >= 0 for e in quanta)
    assert all("task" in e.detail and "steps" in e.detail for e in quanta)


def test_host_span_tree_and_export():
    """host.tick → session.pump → quantum/control events, on separate
    tracks, exporting to a schema-valid Chrome trace."""
    host = Host(quantum=64, record=True)
    a = host.session("a", quantum=8)
    b = host.session("b", quantum=8)
    host.submit(a, "(spawn (lambda (c) (+ 1 (c (lambda (k) (k 41))))))")
    host.submit(b, "(+ 1 2)")
    host.run_until_idle()

    rec = host.recorder
    assert rec is a.recorder is b.recorder  # one shared stream
    names = {e.name for e in rec.events}
    assert {"host.tick", "session.pump", "quantum"} <= names
    assert {"capture", "reinstate"} <= names

    tick_b = next(e for e in rec.events if e.name == "host.tick" and e.phase == "B")
    pump_bs = [e for e in rec.events if e.name == "session.pump" and e.phase == "B"]
    assert tick_b.track == "host"
    assert {e.track for e in pump_bs} == {"a", "b"}
    assert all(e.parent == tick_b.span for e in pump_bs)  # pumps nest in the tick

    assert validate_chrome_trace(rec.to_chrome_trace()) == []


def test_session_brought_recorder_not_overridden_by_host():
    own = Recorder()
    host = Host(record=True)
    sess = host.session("own", record=own, prelude=False)
    assert sess.recorder is own
    other = host.session("inherits", prelude=False)
    assert other.recorder is host.recorder


def test_prelude_events_are_cleared():
    interp = Interpreter(record=True)  # prelude on
    assert len(interp.recorder) == 0


def test_booting_a_prelude_session_keeps_a_shared_recorders_events():
    host = Host(record=True)
    host.submit(host.session("a", prelude=False), "(+ 1 2)")
    host.run_until_idle()
    before = host.recorder.events
    assert before
    b = Session(name="b", record=host.recorder)  # prelude on
    assert b.recorder is host.recorder
    assert host.recorder.events == before
