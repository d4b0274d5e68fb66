"""Engines on the machine: bounded computation from a paused process
tree (``make-engine``/``engine-run``, reference [6])."""

import pytest

from repro import Interpreter
from repro.datum import to_pylist
from repro.errors import SchemeError, StepBudgetExceeded

WORK = r"""
(define (work n)
  (lambda ()
    (let loop ([i 0] [acc 0])
      (if (= i n) acc (loop (+ i 1) (+ acc i))))))
(define (slice eng fuel)
  (engine-run eng fuel
    (lambda (value remaining) (list 'done value remaining))
    (lambda (eng) (list 'expired eng))))
"""


@pytest.fixture
def eng_interp(interp):
    interp.run(WORK)
    interp.load_library("engines-util")
    return interp


def test_engine_completes_with_big_fuel(eng_interp):
    tag, value, remaining = to_pylist(eng_interp.eval("(slice (make-engine (work 3)) 10000)"))
    assert tag.name == "done"
    assert value == 3
    assert remaining > 0


def test_engine_expires_with_small_fuel(eng_interp):
    assert eng_interp.eval_to_string("(car (slice (make-engine (work 100)) 5))") == "expired"
    assert eng_interp.eval("(engine? (cadr (slice (make-engine (work 100)) 5)))") is True


def test_engine_resumable_to_completion(eng_interp):
    eng_interp.run("(define e (make-engine (work 50)))")
    rounds = 1
    while (outcome := to_pylist(eng_interp.eval("(slice e 5)")))[0].name == "expired":
        rounds += 1
    assert outcome[1] == sum(range(50))
    assert rounds > 1


def test_engine_mileage_monotonic(eng_interp):
    eng_interp.run("(define e (make-engine (work 50)))")
    eng_interp.eval("(slice e 5)")
    first = eng_interp.eval("(engine-mileage e)")
    eng_interp.eval("(slice e 5)")
    assert eng_interp.eval("(engine-mileage e)") > first


def test_completed_engine_cannot_rerun(eng_interp):
    eng_interp.run("(define e (make-engine (work 1)))")
    assert eng_interp.eval("(car (slice e 10000))").name == "done"
    with pytest.raises(SchemeError, match="already completed"):
        eng_interp.eval("(slice e 10)")


def test_fuel_must_be_positive(eng_interp):
    with pytest.raises(SchemeError, match="positive"):
        eng_interp.eval("(slice (make-engine (work 1)) 0)")


def test_round_robin_fairness(eng_interp):
    values = eng_interp.eval("(run-engines-fairly (list (work 10) (work 20) (work 30)) 7)")
    assert to_pylist(values) == [sum(range(10)), sum(range(20)), sum(range(30))]


def test_round_robin_single(eng_interp):
    assert eng_interp.eval_to_string("(run-engines-fairly (list (work 4)) 100)") == "(6)"


def test_round_robin_bounded():
    """A job that never halts keeps the round-robin going until the
    caller's step budget stops it."""
    interp = Interpreter(max_steps=10_000)
    interp.load_library("engines-util")
    with pytest.raises(StepBudgetExceeded):
        interp.eval("(run-engines-fairly (list (lambda () (let forever () (forever)))) 1)")


def test_engine_value_can_be_any_object(eng_interp):
    value = eng_interp.eval_to_string("(cadr (slice (make-engine (lambda () (vector 'k '(1 2)))) 100))")
    assert value == "#(k (1 2))"
