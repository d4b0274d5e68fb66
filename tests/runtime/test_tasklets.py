"""Process-tree basics on the machine: calls, spawn, pcall, budgets and
control counters."""

import pytest

from repro import Interpreter
from repro.errors import SchemeError, StepBudgetExceeded


def test_plain_return(interp):
    assert interp.eval("42") == 42


def test_call_plain_function(interp):
    assert interp.eval("((lambda (a b) (+ a b)) 1 2)") == 3


def test_call_nested_tasklets(interp):
    interp.run(
        """
        (define (inner n) (* n 2))
        (define (middle n) (+ (inner n) 1))
        """
    )
    assert interp.eval("(middle 10)") == 21


def test_deep_call_chain(interp):
    interp.run("(define (countdown n) (if (= n 0) 'bottom (let ([v (countdown (- n 1))]) v)))")
    assert interp.eval("(countdown 500)").name == "bottom"


def test_exception_propagates_through_frames(interp):
    interp.load_library("exceptions")
    result = interp.eval_to_string(
        """
        (with-handler (lambda (e) (list 'caught e))
                      (lambda (raise)
                        (define (boom) (raise 'inner-boom))
                        (+ 1 (* 2 (boom)))))
        """
    )
    assert result == "(caught inner-boom)"


def test_uncaught_exception_raises_from_run(interp):
    with pytest.raises(SchemeError, match="division by zero"):
        interp.eval("(+ 1 (/ 1 0))")


def test_spawn_normal_return(interp):
    assert interp.eval("(spawn (lambda (c) (+ 1 2) 'process-value))").name == "process-value"


def test_pcall_combines_in_order():
    interp = Interpreter(quantum=1)
    interp.run("(define (branch n) (let loop ([i n]) (if (zero? i) n (loop (- i 1)))))")
    assert interp.eval_to_string("(pcall list (branch 5) (branch 1) (branch 3))") == "(5 1 3)"


def test_pcall_zero_branches(interp):
    assert interp.eval("(pcall (lambda () 'empty))").name == "empty"


def test_pcall_branches_interleave():
    """Each branch displays its tag as it loops; a display is one
    machine step, so the output is the interleaving."""
    interp = Interpreter(quantum=1)
    interp.run(
        """
        (define (branch tag)
          (let loop ([i 5]) (unless (zero? i) (display tag) (loop (- i 1)))) tag)
        (pcall list (branch "a") (branch "b"))
        """
    )
    head = interp.output.getvalue()[:6]
    assert "a" in head and "b" in head


def test_nested_pcall(interp):
    assert interp.eval("(pcall * (pcall + 1 2) 10)") == 30


def test_max_steps():
    with pytest.raises(StepBudgetExceeded):
        Interpreter(max_steps=100).eval("(let loop () (loop))")


def test_step_counting_and_stats(interp):
    def delta(source):
        before, steps = dict(interp.stats), interp.machine.steps_total
        interp.run(source)
        assert interp.machine.steps_total > steps
        return {key: interp.stats[key] - before[key] for key in ("forks", "label_pops")}

    plain = delta("'x")["label_pops"]  # the form's own root
    assert delta("(spawn (lambda (c) 'x))") == {"forks": 0, "label_pops": plain + 1}
    assert delta("(pcall (lambda () #f))") == {"forks": 1, "label_pops": plain}


def test_runtime_restartable(interp):
    assert interp.eval("'a").name == "a"
    assert interp.eval("'b").name == "b"
