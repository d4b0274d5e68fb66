#!/usr/bin/env python3
"""Coroutines from process continuations.

``make-coroutine`` (the ``coroutines`` library, written in the embedded
Scheme over ``spawn``) suspends its body at each ``yield`` by capturing
the body's process continuation, and ``resume`` reinstates it.
Demonstrates:

* a producer/consumer coroutine pair;
* the classic *same-fringe* problem — comparing the leaf sequences of
  two differently shaped trees lazily, stopping at the first mismatch.

Futures, the other half of Section 8's forest of trees, are in
``examples/futures_forest.py``.

Run:  python examples/coroutines_samefringe.py
"""

import sys

from repro import Interpreter

SHOP = r"""
(define shop
  (make-coroutine
    (lambda (yield)
      (for-each (lambda (item)
                  (let ([ack (yield item)])
                    (display "   producer: consumer said ")
                    (write ack)
                    (newline)))
                '(bread milk eggs))
      'sold-out)))
"""

SAME_FRINGE = r"""
;; A coroutine yielding the leaves of a nested list, left to right.
(define (fringe tree)
  (make-coroutine
    (lambda (yield)
      (let walk ([t tree])
        (cond [(pair? t) (walk (car t)) (walk (cdr t))]
              [(not (null? t)) (yield t)])))))

(define (same-fringe? t1 t2)
  (let ([a (fringe t1)] [b (fringe t2)])
    (let loop ()
      (let* ([ra (resume a)] [rb (resume b)])
        (cond [(or (coroutine-done? ra) (coroutine-done? rb))
               (and (coroutine-done? ra) (coroutine-done? rb))]
              [(equal? (coroutine-value ra) (coroutine-value rb)) (loop)]
              [else #f])))))
"""


def demo_producer_consumer(interp: Interpreter, failures: list) -> None:
    print("== Producer / consumer ==")
    interp.run(SHOP)
    bought = []
    interp.run("(define r (resume shop))")
    while interp.eval("(coroutine-yielded? r)"):
        item = interp.eval_to_string("(coroutine-value r)")
        print(f"   consumer: buying {item}")
        bought.append(item)
        interp.run(f'(define r (resume shop "thanks for the {item}"))')
    closed = interp.eval_to_string("(coroutine-value r)")
    print(f"   shop closed: {closed}\n")
    if (bought, closed) != (["bread", "milk", "eggs"], "sold-out"):
        failures.append(f"producer/consumer: bought {bought}, closed {closed}")


def demo_same_fringe(interp: Interpreter, failures: list) -> None:
    print("== Same fringe ==")
    interp.run(SAME_FRINGE)
    cases = [
        ("((1 2) 3)", "(1 (2 3))", True),
        ("(1 (2 (3 4)))", "(((1 2) 3) 4)", True),
        ("(1 2 3)", "(1 2 4)", False),
        ("(1 2)", "(1 2 3)", False),
    ]
    for t1, t2, want in cases:
        got = interp.eval(f"(same-fringe? '{t1} '{t2})")
        print(f"   {t1:16s} vs {t2:16s} -> {got}")
        if got is not want:
            failures.append(f"same-fringe {t1} {t2}: got {got}, want {want}")
    print()


def main() -> int:
    interp = Interpreter(echo_output=True)
    interp.load_library("coroutines")
    failures: list = []
    demo_producer_consumer(interp, failures)
    demo_same_fringe(interp, failures)
    if failures:
        print(f"{len(failures)} WRONG ANSWERS: {failures}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
