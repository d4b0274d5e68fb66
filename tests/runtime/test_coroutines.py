"""Coroutines from process continuations: ``make-coroutine`` in the
``coroutines`` library, run on the machine."""

import pytest

from repro.errors import SchemeError

from tests.lib.test_derived import SAME_FRINGE


@pytest.fixture
def co_interp(interp):
    interp.load_library("coroutines")
    return interp


def test_basic_yield_sequence(co_interp):
    co_interp.run("(define co (make-coroutine (lambda (yield) (yield 0) (yield 1) (yield 2) 'end)))")
    results = [co_interp.eval_to_string("(resume co)") for _ in range(4)]
    assert results == ["(yield . 0)", "(yield . 1)", "(yield . 2)", "(done . end)"]


def test_values_flow_both_ways(co_interp):
    co_interp.run(
        """
        (define co
          (make-coroutine
            (lambda (yield)
              (let* ([got1 (yield 'ready)]
                     [got2 (yield (* got1 2))])
                (+ got2 1)))))
        """
    )
    assert co_interp.eval("(coroutine-value (resume co))").name == "ready"
    assert co_interp.eval("(coroutine-value (resume co 10))") == 20
    assert co_interp.eval("(coroutine-value (resume co 100))") == 101


def test_resume_after_done_raises(co_interp):
    co_interp.run("(define co (make-coroutine (lambda (yield) 'x)))")
    assert co_interp.eval("(coroutine-done? (resume co))") is True
    with pytest.raises(SchemeError, match="already completed"):
        co_interp.eval("(resume co)")


def test_coroutine_with_inner_calls(co_interp):
    co_interp.run(
        """
        (define (fib n) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2)))))
        (define co
          (make-coroutine
            (lambda (yield)
              (let loop ([i 0])
                (when (< i 7) (yield (fib i)) (loop (+ i 1))))
              'done)))
        (define (drain)
          (let ([r (resume co)])
            (if (coroutine-done? r) '() (cons (coroutine-value r) (drain)))))
        """
    )
    assert co_interp.eval_to_string("(drain)") == "(0 1 1 2 3 5 8)"


def test_two_coroutines_independent(co_interp):
    co_interp.run(
        """
        (define (counter)
          (make-coroutine (lambda (yield) (yield 0) (yield 1) (yield 2) #f)))
        (define a (counter))
        (define b (counter))
        """
    )
    order = ["a", "b", "a", "b"]
    values = [co_interp.eval(f"(coroutine-value (resume {name}))") for name in order]
    assert values == [0, 0, 1, 1]


def test_samefringe(co_interp):
    """Same fringe is lazy: a mismatch at the first leaf stops both walks
    at once, however large the rest of the trees are."""
    co_interp.run(SAME_FRINGE)
    co_interp.run("(define big (iota 400))")

    def steps(source):
        before = co_interp.machine.steps_total
        result = co_interp.eval(source)
        return result, co_interp.machine.steps_total - before

    equal, full_walk = steps("(same-fringe? big (list big))")
    differ, early_exit = steps("(same-fringe? (cons 'x big) (list big))")
    assert equal is True and differ is False
    assert early_exit * 20 < full_walk
