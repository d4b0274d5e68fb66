"""E10 — Section 8 / references [6] and [11]: engines, coroutines and
futures derive from process continuations.

Claims reproduced, all on the machine (``make-engine``/``engine-run``,
``make-coroutine`` from the ``coroutines`` library, ``future``/``touch``):

* engine preemption costs suspensions, not work: the mileage is the
  same at every fuel, and the number of suspensions scales as 1/fuel;
* a fair round-robin of engines finishes every job;
* coroutine transfer cost is flat in the coroutine's past (resume 451
  costs the same as resume 1);
* futures overlap with their parent (forest of trees): at quantum 1 the
  future's and the main tree's events interleave.
"""

from __future__ import annotations

import time

import pytest

from repro import Interpreter
from repro.datum import to_pylist

WORK = r"""
(define (work n)
  (lambda ()
    (let loop ([i 0] [acc 0])
      (if (= i n) acc (loop (+ i 1) (+ acc i))))))
(define suspensions 0)
(define (drive eng fuel)
  (engine-run eng fuel
    (lambda (value remaining) value)
    (lambda (eng) (set! suspensions (+ suspensions 1)) (drive eng fuel))))
"""


def _engines(**kwargs) -> Interpreter:
    interp = Interpreter(**kwargs)
    interp.run(WORK)
    return interp


def test_e10_engine_overhead_scales_with_suspensions():
    print("\nE10  engine: mileage and suspensions vs fuel (work = 2000 iterations)")
    mileages = set()
    for fuel in (10, 100, 1000):
        interp = _engines()
        interp.run("(define e (make-engine (work 2000)))")
        assert interp.eval(f"(drive e {fuel})") == sum(range(2000))
        mileage = interp.eval("(engine-mileage e)")
        suspensions = interp.eval("suspensions")
        print(f"  fuel={fuel:5d}: suspensions={suspensions:4d} mileage={mileage}")
        mileages.add(mileage)
        # Every suspension used up a whole slice: 1/fuel scaling.
        assert suspensions == -(-mileage // fuel) - 1
    # Same machine work at every fuel: slicing re-executes nothing.
    assert len(mileages) == 1


def test_e10_round_robin_is_fair():
    """Three unequal jobs sliced fairly all finish, cheapest first."""
    interp = _engines()
    interp.load_library("engines-util")
    sizes = (300, 600, 900)
    jobs = " ".join(f"(work {n})" for n in sizes)
    values = to_pylist(interp.eval(f"(run-engines-fairly (list {jobs}) 50)"))
    assert values == [sum(range(n)) for n in sizes]


def test_e10_coroutine_transfer_cost_flat():
    interp = Interpreter()
    interp.load_library("coroutines")
    interp.run(
        """
        (define co
          (make-coroutine
            (lambda (yield)
              (let loop ([i 0])
                (if (eq? (yield i) 'stop) i (loop (+ i 1)))))))
        (define (resume-n n) (unless (zero? n) (resume co) (resume-n (- n 1))))
        """
    )
    interp.eval("(resume co)")

    def cost_of_next(batch: int) -> float:
        start = time.perf_counter()
        interp.eval(f"(resume-n {batch})")
        return (time.perf_counter() - start) / batch

    early = cost_of_next(50)
    interp.eval("(resume-n 400)")
    late = cost_of_next(50)
    print(f"\nE10  coroutine transfer: early={early * 1e6:.1f}μs late={late * 1e6:.1f}μs")
    # Flat: transfer cost after 450 resumes ≈ cost after 1.
    assert late < early * 3 + 1e-4
    assert interp.eval_to_string("(resume co 'stop)") == "(done . 500)"


@pytest.mark.parametrize("ncoroutines", [1, 8])
def test_e10_coroutine_timing(benchmark, ncoroutines):
    interp = Interpreter()
    interp.load_library("coroutines")
    interp.run(
        """
        (define (counter)
          (make-coroutine
            (lambda (yield)
              (let loop ([i 0]) (when (< i 20) (yield i) (loop (+ i 1))))
              'done)))
        (define (drain co)
          (let ([r (resume co)])
            (if (coroutine-done? r) (coroutine-value r) (drain co))))
        """
    )
    source = f"(map drain (map (lambda (i) (counter)) (iota {ncoroutines})))"
    assert benchmark(lambda: interp.eval_to_string(source)) == (
        "(" + " ".join(["done"] * ncoroutines) + ")"
    )


def test_e10_futures_overlap_with_parent():
    """Each tree displays its tag per iteration.  A display is one
    machine step, so the session output records the interleaving
    exactly, with no lost updates between the two trees."""
    interp = Interpreter(quantum=1)
    interp.run(
        """
        (define (note tag n) (unless (zero? n) (display tag) (note tag (- n 1))))
        (define ph (future (lambda () (note "f" 30) 'bg)))
        """
    )
    assert interp.eval("""(begin (note "m" 30) (touch ph))""").name == "bg"
    events = interp.output.getvalue()
    first_20 = events[:20]
    print(
        f"\nE10  future/parent interleaving (first 20 events): "
        f"{first_20.count('m')} main / {first_20.count('f')} future"
    )
    assert sorted(events) == ["f"] * 30 + ["m"] * 30
    assert 5 <= first_20.count("m") <= 15  # genuinely overlapped


@pytest.mark.parametrize("nfutures", [1, 4, 16])
def test_e10_future_fanout_timing(benchmark, nfutures):
    interp = Interpreter()
    interp.run(
        """
        (define (job n)
          (lambda ()
            (let loop ([i 0] [acc 0])
              (if (= i 50) acc (loop (+ i 1) (+ acc (* i n)))))))
        (define (fanout k)
          (fold-left + 0 (map touch (map (lambda (n) (future (job n))) (iota k)))))
        """
    )
    expected = sum(sum(i * n for i in range(50)) for n in range(nfutures))
    assert benchmark(lambda: interp.eval(f"(fanout {nfutures})")) == expected


@pytest.mark.parametrize("fuel", [50, 5000])
def test_e10_machine_engine_timing(benchmark, fuel):
    interp = _engines()

    def go():
        interp.run("(define e (make-engine (work 100)))")
        return interp.eval(f"(drive e {fuel})")

    assert benchmark(go) == sum(range(100))
