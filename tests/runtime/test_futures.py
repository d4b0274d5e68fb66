"""Multilisp-style futures on the machine: the Section 8 forest of
trees."""

import pytest

from repro import Interpreter
from repro.datum import to_pylist
from repro.errors import DeadControllerError, MachineError

SPIN = "(define (spin n v) (if (zero? n) v (spin (- n 1) v)))"


def test_future_returns_placeholder_immediately(interp):
    interp.run(SPIN)
    result = interp.eval(
        """
        (let ([ph (future (lambda () (spin 10 9)))])
          ;; Not yet computed at creation.
          (list (placeholder? ph) (future-done? ph) (touch ph)))
        """
    )
    assert to_pylist(result) == [True, False, 9]


def test_future_runs_concurrently_with_parent():
    """The main tree samples ``future-done?`` as it works: the future
    finishes while the main tree is still running."""
    interp = Interpreter(quantum=1)
    interp.run(SPIN)
    samples = interp.eval(
        """
        (let ([ph (future (lambda () (spin 5 'f)))])
          (let loop ([i 0] [seen '()])
            (if (= i 50)
                (cons (touch ph) (reverse seen))
                (loop (+ i 1) (cons (future-done? ph) seen)))))
        """
    )
    value, *seen = to_pylist(samples)
    assert value.name == "f"
    assert seen[0] is False and seen[-1] is True


def test_touch_resolved_placeholder_is_immediate(interp):
    interp.run("(define ph (future (lambda () 1)))")
    assert interp.eval("(touch ph)") == 1
    assert interp.eval("(future-done? ph)") is True
    assert interp.eval("(+ (touch ph) (touch ph))") == 2


def test_multiple_waiters_all_released(interp):
    interp.run(SPIN)
    result = interp.eval_to_string(
        "(let ([ph (future (lambda () (spin 20 7)))]) (pcall list (touch ph) (touch ph) (touch ph)))"
    )
    assert result == "(7 7 7)"


def test_future_args(interp):
    """A future's thunk closes over the arguments of its work."""
    interp.run("(define (work a b) (* a b))")
    assert interp.eval("(touch (future (lambda () (work 6 7))))") == 42


def test_controller_cannot_cross_trees(interp):
    """Section 8: control operations affect only the tree in which they
    occur.  A future's task walking up for a controller rooted in the
    main tree finds nothing."""
    with pytest.raises(DeadControllerError):
        interp.eval("(spawn (lambda (c) (touch (future (lambda () (c (lambda (k) 'cross)))))))")


def test_deadlock_on_self_touch(interp):
    """A future that touches its own placeholder can never resolve: the
    machine reports deadlock."""
    interp.run("(define ph #f)")
    interp.run("(set! ph (future (lambda () (touch ph))))")
    with pytest.raises(MachineError, match="deadlock"):
        interp.eval("(touch ph)")
