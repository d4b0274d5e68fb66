#!/usr/bin/env python3
"""Engines: preemptive time-slicing from process continuations.

Dybvig & Hieb derived engines from continuations ("Engines from
Continuations", reference [6] of the paper).  In the machine an engine
is a paused process tree, run for a given number of steps at a time
(``make-engine`` / ``engine-run``).  The demo slices one job by hand,
builds a fair round-robin scheduler for unequal jobs, then shows nested
slicing — an engine running engines.

Run:  python examples/engines_timeslicing.py
"""

import sys

from repro import Interpreter
from repro.datum import scheme_repr, to_pylist

JOBS = r"""
;; A job that logs its progress every quarter of the way to n.
(define progress '())
(define (job name n)
  (lambda ()
    (let loop ([i 0])
      (when (zero? (remainder i (max 1 (quotient n 4))))
        (set! progress (cons (list name i) progress)))
      (if (< i n)
          (loop (+ i 1))
          (begin (set! progress (cons (list name 'done) progress))
                 (list name n))))))
"""


def check(failures: list, label: str, got: str, want: str) -> None:
    print(f"   {label}: {got}")
    if got != want:
        failures.append(f"{label}: got {got}, want {want}")


def demo_manual_slicing(interp: Interpreter, failures: list) -> None:
    print("== Manual slicing ==")
    interp.run("(set! progress '()) (define solo (make-engine (job 'solo 40)))")
    # One slice per eval: (value fuel-left) when the job finishes, #f
    # when the slice expires (the engine stays armed for the next one).
    slice_once = "(engine-run solo 40 (lambda (value fuel) (list value fuel)) (lambda (e) #f))"
    slices = 1
    while (outcome := interp.eval(slice_once)) is False:
        print(f"   slice {slices}: expired (mileage {interp.eval('(engine-mileage solo)')})")
        slices += 1
    value, fuel_left = to_pylist(outcome)
    check(failures, f"slice {slices} finished", scheme_repr(value), "(solo 40)")
    print(f"   fuel left in last slice: {fuel_left}")
    print(f"   progress log: {interp.eval_to_string('(reverse progress)')}\n")


def demo_fair_scheduler(interp: Interpreter, failures: list) -> None:
    print("== Fair round-robin over unequal jobs ==")
    interp.load_library("engines-util")
    interp.run("(set! progress '())")
    results = interp.eval_to_string(
        "(run-engines-fairly (list (job 'long 150) (job 'medium 90) (job 'short 30)) 20)"
    )
    check(failures, "results", results, "((short 30) (medium 90) (long 150))")
    done = interp.eval_to_string(
        "(map car (filter (lambda (e) (eq? (cadr e) 'done)) (reverse progress)))"
    )
    print(f"   completion order: {done} (shortest first — fairness)\n")


def demo_nested_engines(interp: Interpreter, failures: list) -> None:
    print("== An engine running engines ==")
    interp.run(
        """
        ;; This job itself slices two inner engines to completion...
        (define (meta)
          (run-engines-fairly (list (job 'inner-a 25) (job 'inner-b 25)) 10))
        ;; ...while being sliced by an outer engine.
        (define (slices-to-finish engine fuel count)
          (engine-run engine fuel
            (lambda (value remaining) (list count value))
            (lambda (engine) (slices-to-finish engine fuel (+ count 1)))))
        """
    )
    outer_slices, inner = to_pylist(interp.eval("(slices-to-finish (make-engine meta) 30 1)"))
    print(f"   outer slices used: {outer_slices}")
    check(failures, "inner results", scheme_repr(inner), "((inner-a 25) (inner-b 25))")
    print()


def main() -> int:
    interp = Interpreter()
    interp.run(JOBS)
    failures: list = []
    demo_manual_slicing(interp, failures)
    demo_fair_scheduler(interp, failures)
    demo_nested_engines(interp, failures)
    if failures:
        print(f"{len(failures)} WRONG ANSWERS: {failures}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
