"""Derived combinators on the machine: ``spawn/exit`` and
``first-true`` (§5) and ``par-map`` from the ``parallel`` library."""

import pytest

from repro import Interpreter


@pytest.fixture
def exits(paper_interp):
    paper_interp.load_library("parallel")
    paper_interp.run("(define (spin n v) (if (zero? n) v (spin (- n 1) v)))")
    return paper_interp


def test_spawn_exit_early(exits):
    assert exits.eval("(spawn/exit (lambda (exit) (exit 'early) 'late))").name == "early"


def test_spawn_exit_normal(exits):
    assert exits.eval("(spawn/exit (lambda (exit) (spin 3 'normal)))").name == "normal"


def test_spawn_exit_from_deep_call(exits):
    result = exits.eval(
        """
        (spawn/exit (lambda (exit)
                      (let deep ([n 10])
                        (if (= n 0) (exit 'from-depth) (+ 1 (deep (- n 1)))))
                      'unreached))
        """
    )
    assert result.name == "from-depth"


def test_nested_spawn_exit_levels(exits):
    result = exits.eval(
        """
        (spawn/exit (lambda (exit-outer)
                      (list 'inner-gave
                            (spawn/exit (lambda (exit-inner)
                                          (exit-outer 'outer-exit))))))
        """
    )
    assert result.name == "outer-exit"


def test_first_true_fast_wins():
    interp = Interpreter(quantum=1)
    interp.load_paper_example("first-true")
    interp.run("(define (spin n v) (if (zero? n) v (spin (- n 1) v)))")
    result = interp.eval("(first-true (lambda () (spin 200 'slow)) (lambda () (spin 1 'fast)))")
    assert result.name == "fast"


def test_first_true_all_false(exits):
    """Neither branch exits: the pcall applies the identity to #f."""
    assert exits.eval("(first-true (lambda () (spin 1 #f)) (lambda () (spin 1 #f)))") is False


def test_first_true_loser_abandoned():
    interp = Interpreter(quantum=1)
    interp.load_paper_example("first-true")
    interp.run(
        """
        (define progress 0)
        (define (slow)
          (let loop ([i 0])
            (if (= i 10000) 'slow (begin (set! progress i) (loop (+ i 1))))))
        """
    )
    assert interp.eval("(first-true slow (lambda () 'fast))").name == "fast"
    assert interp.eval("progress") < 10_000  # the slow branch never finished


def test_parallel_map_order_preserved():
    interp = Interpreter(quantum=1)
    interp.load_library("parallel")
    interp.run("(define (square-after x) (let loop ([i x]) (if (zero? i) (* x x) (loop (- i 1)))))")
    # Uneven work per item; values still come back in list order.
    assert interp.eval_to_string("(par-map square-after '(5 1 4 2))") == "(25 1 16 4)"


def test_parallel_map_empty(exits):
    assert exits.eval_to_string("(par-map (lambda (x) x) '())") == "()"
