"""One-command experiment reproduction: ``python -m repro.experiments``.

Re-runs the deterministic core of every experiment in EXPERIMENTS.md —
the machine-step series whose *shapes* reproduce the paper's claims —
and prints them as a single report.  (Wall-clock microbenchmarks live in
``pytest benchmarks/ --benchmark-only``; this runner sticks to exact,
machine-independent counts plus a few order-of-magnitude timings.)

Exit code 0 means every shape assertion held.
"""

from __future__ import annotations

import sys
import time
from typing import Callable

from repro import Interpreter
from repro.control.spawn import ProcessContinuation
from repro.machine.ablation import clone_capture_copying
from repro.machine.tree import clone_capture

__all__ = ["main", "run_all"]


def _steps(interp: Interpreter, source: str) -> int:
    before = interp.machine.steps_total
    interp.eval(source)
    return interp.machine.steps_total - before


def _sl(values) -> str:
    return "(" + " ".join(str(v) for v in values) + ")"


class Report:
    def __init__(self) -> None:
        self.failures: list[str] = []

    def section(self, title: str) -> None:
        print(f"\n=== {title} ===")

    def row(self, text: str) -> None:
        print(f"  {text}")

    def check(self, condition: bool, claim: str) -> None:
        status = "ok " if condition else "FAIL"
        print(f"  [{status}] {claim}")
        if not condition:
            self.failures.append(claim)


def e1(report: Report) -> None:
    report.section("E1  §3 product: early exit via call/cc")
    length = 400

    def steps_for(zero_at):
        interp = Interpreter()
        interp.load_paper_example("product-callcc")
        values = [2] * length
        if zero_at is not None:
            values[zero_at] = 0
        return _steps(interp, f"(product '{_sl(values)})")

    front, middle, none = steps_for(0), steps_for(length // 2), steps_for(None)
    report.row(f"zero@0={front}  zero@n/2={middle}  no-zero={none} steps")
    report.check(front < middle < none, "cost tracks zero position")
    report.check(front * 10 < none, "front zero skips ~everything")


def e2(report: Report) -> None:
    report.section("E2  §3 whole-tree call/cc captures every sibling")
    from repro.datum import to_pylist

    def size(kind, siblings):
        interp = Interpreter(quantum=2)
        interp.run("(define (spin n) (if (= n 0) 0 (spin (- n 1))))")
        body = (
            "(call/cc (lambda (k) k))"
            if kind == "callcc"
            else "(spawn (lambda (c) (c (lambda (k) k))))"
        )
        branches = " ".join("(spin 400)" for _ in range(siblings))
        result = interp.eval(f"(pcall list {body} {branches})")
        return to_pylist(result)[0].capture.task_count()

    cc = [size("callcc", n) for n in (1, 4, 8)]
    sp = [size("spawn", n) for n in (1, 4, 8)]
    report.row(f"call/cc snapshot tasks for 1/4/8 siblings: {cc}")
    report.row(f"spawn   capture  tasks for 1/4/8 siblings: {sp}")
    report.check(cc[0] < cc[1] < cc[2], "whole-tree snapshot grows with siblings")
    report.check(sp == [1, 1, 1], "controller capture constant in siblings")


def e3(report: Report) -> None:
    report.section("E3  §4 controller validity (paper examples)")
    from repro.errors import DeadControllerError
    from repro.lib import paper_examples

    interp = Interpreter()
    for name, source in [
        ("invalid after return", paper_examples.INVALID_AFTER_RETURN),
        ("invalid after use", paper_examples.INVALID_AFTER_USE),
    ]:
        try:
            interp.eval(source)
            report.check(False, f"{name} rejected")
        except DeadControllerError:
            report.check(True, f"{name} rejected")
    value = interp.eval(f"({paper_examples.VALID_AFTER_REINSTATEMENT.strip()} 'w)")
    report.check(getattr(value, "name", None) == "w",
                 "triple-controller example is the identity procedure")


def e4_e5(report: Report) -> None:
    report.section("E4/E5  §5 branch-local exits and subtree aborts")
    length = 300
    ones, zfront = [1] * length, [0] + [1] * (length - 1)

    def sum_steps(a, b):
        interp = Interpreter()
        interp.load_paper_example("sum-of-products")
        return _steps(interp, f"(sum-of-products '{_sl(a)} '{_sl(b)})")

    def prod_steps(a, b):
        interp = Interpreter(quantum=4)
        interp.load_paper_example("product-of-products-spawn")
        return _steps(interp, f"(product-of-products/spawn '{_sl(a)} '{_sl(b)})")

    clean, one_zero = sum_steps(ones, ones), sum_steps(zfront, ones)
    report.row(f"E4 sum-of-products: clean={clean}  one-zero={one_zero}")
    report.check(one_zero < 0.75 * clean, "one zero kills ~one branch only")
    p_clean, p_zero = prod_steps(ones, ones), prod_steps(zfront, ones)
    report.row(f"E5 product-of-products: clean={p_clean}  zero={p_zero}")
    report.check(p_zero < 0.25 * p_clean, "one zero aborts BOTH branches")
    flat = [prod_steps([0], [1] * n) for n in (50, 150, 300)]
    report.row(f"E5 abort steps vs sibling length 50/150/300: {flat}")
    report.check(max(flat) - min(flat) <= max(flat) * 0.5,
                 "abort cost flat in sibling size")


def e6(report: Report) -> None:
    report.section("E6  §5 parallel-or: winner ≈ min, loser abandoned")

    def steps_for(expr):
        interp = Interpreter(quantum=4)
        interp.load_paper_example("parallel-or")
        interp.run("(define (work n v) (if (= n 0) v (work (- n 1) v)))")
        return _steps(interp, expr)

    fast = steps_for("(parallel-or (work 20 'yes) (work 2000 'also))")
    slow_alone = steps_for("(work 2000 'x)")
    both_false = steps_for("(parallel-or (work 2000 #f) (work 2000 #f))")
    report.row(f"fast-wins={fast}  slow-alone={slow_alone}  both-false={both_false}")
    report.check(fast < 0.5 * slow_alone, "winner ≈ min(branches)")
    report.check(both_false > 1.5 * slow_alone, "no winner ⇒ pay for both")


def e7(report: Report) -> None:
    report.section("E7  §5 parallel-search / search-all")

    def balanced(lo, hi):
        if lo > hi:
            return []
        mid = (lo + hi) // 2
        return [mid] + balanced(lo, mid - 1) + balanced(mid + 1, hi)

    def fresh():
        interp = Interpreter(quantum=4)
        interp.load_paper_example("search-all")
        interp.run(f"(define t (list->tree '{_sl(balanced(1, 127))}))")
        return interp

    hit = _steps(fresh(), "(parallel-search t even?)")
    miss = _steps(fresh(), "(parallel-search t (lambda (x) (> x 999)))")
    report.row(f"first-hit={hit}  exhaustive-miss={miss} steps")
    report.check(hit < 0.7 * miss, "suspend-on-hit beats full scan")
    interp = fresh()
    found = interp.eval("(length (search-all t even?))")
    report.check(found == 63, "search-all complete (63 evens in 1..127)")


def e8(report: Report) -> None:
    report.section("E8  §6 semantics ≡ machine (differential)")
    from repro.semantics import run_both, values_agree

    programs = [
        "(spawn (lambda (c) 42))",
        "(spawn (lambda (c) (+ 1 (c (lambda (k) 5)))))",
        "(spawn (lambda (c) (+ 1 (c (lambda (k) (k (k 10)))))))",
        "((spawn (lambda (c) (c (c (lambda (k) (k (lambda (k) "
        "(k (lambda (k) k))))))))) 9)",
    ]
    agreed = 0
    for source in programs:
        rr, mv = run_both(source)
        if values_agree(rr.value, mv):
            agreed += 1
    report.row(f"{agreed}/{len(programs)} curated programs agree")
    report.check(agreed == len(programs), "rewriting system matches machine")


def e9(report: Report) -> None:
    report.section("E9  §7 cost: flat in size, linear in control points")

    def continuation_with_depth(depth):
        interp = Interpreter()
        interp.run(
            "(define (deep n thunk) (if (= n 0) (thunk) (+ 1 (deep (- n 1) thunk))))"
        )
        k = interp.eval(
            f"(spawn (lambda (c) (deep {depth} (lambda () (c (lambda (kk) kk))))))"
        )
        assert isinstance(k, ProcessContinuation)
        return k

    def timed(fn, repeats=200):
        fn()
        start = time.perf_counter()
        for _ in range(repeats):
            fn()
        return (time.perf_counter() - start) / repeats * 1e6

    rows = []
    for depth in (50, 800, 3200):
        k = continuation_with_depth(depth)
        share = timed(lambda: clone_capture(k.capture))
        copy = timed(lambda: clone_capture_copying(k.capture))
        rows.append((depth, share, copy))
        report.row(f"depth {depth:5d}: sharing {share:7.2f}μs  copying {copy:8.2f}μs")
    report.check(rows[-1][1] < rows[0][1] * 3 + 5, "sharing clone flat in depth")
    report.check(rows[-1][2] > rows[0][2] * 10, "copying ablation linear in depth")


def e10(report: Report) -> None:
    report.section("E10  §8 engines / coroutines / futures")
    from repro.datum import to_pylist

    interp = Interpreter()
    interp.load_library("coroutines")
    interp.run(
        """
        (define (sum-to n)
          (lambda ()
            (let loop ([i 0] [acc 0]) (if (= i n) acc (loop (+ i 1) (+ acc i))))))
        (define (drive eng fuel slices)
          (engine-run eng fuel
            (lambda (value remaining) (list value slices))
            (lambda (eng) (drive eng fuel (+ slices 1)))))
        (define e (make-engine (sum-to 500)))
        (define co (make-coroutine (lambda (yield) (yield 0) (yield 1) (yield 2) 'end)))
        (define ph (future (lambda () (* 6 7))))
        """
    )
    value, slices = to_pylist(interp.eval("(drive e 50 1)"))
    mileage = interp.eval("(engine-mileage e)")
    report.row(f"engine: {slices} slices of 50 fuel, mileage {mileage}; value {value}")
    report.check(value == interp.eval("((sum-to 500))"), "sliced engine = unsliced answer")
    values = [interp.eval("(coroutine-value (resume co))") for _ in range(3)]
    report.check(values == [0, 1, 2], "coroutine yields in order")
    report.check(interp.eval("(touch ph)") == 42, "machine futures resolve")


RUNNERS: list[Callable[[Report], None]] = [e1, e2, e3, e4_e5, e6, e7, e8, e9, e10]


def run_all() -> Report:
    report = Report()
    print("repro — experiment reproduction run (see EXPERIMENTS.md)")
    for runner in RUNNERS:
        runner(report)
    print()
    if report.failures:
        print(f"{len(report.failures)} shape assertion(s) FAILED:")
        for failure in report.failures:
            print(f"  - {failure}")
    else:
        print("all shape assertions held.")
    return report


def main() -> int:
    return 1 if run_all().failures else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
