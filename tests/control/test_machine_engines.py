"""Machine-level engines (reference [6] in Scheme)."""

import pytest

from repro import Interpreter
from repro.control.engines import EngineValue
from repro.errors import SchemeError, WrongTypeError


@pytest.fixture
def interp():
    i = Interpreter()
    i.run(
        """
        (define (sum-to n)
          (lambda ()
            (let loop ([i n] [acc 0])
              (if (zero? i) acc (loop (- i 1) (+ acc i))))))
        (define (drive eng fuel)
          (engine-run eng fuel
            (lambda (value remaining) (list 'done value remaining))
            (lambda (eng2) (drive eng2 fuel))))
        """
    )
    return i


def test_make_engine_returns_engine(interp):
    assert isinstance(interp.eval("(make-engine (sum-to 5))"), EngineValue)
    assert interp.eval("(engine? (make-engine (sum-to 1)))") is True
    assert interp.eval("(engine? 5)") is False


def test_completes_with_big_fuel(interp):
    result = interp.eval_to_string(
        "(engine-run (make-engine (sum-to 5)) 100000 "
        "(lambda (v r) (list 'done v)) (lambda (e) 'expired))"
    )
    assert result == "(done 15)"


def test_expires_with_small_fuel(interp):
    assert (
        interp.eval(
            "(engine-run (make-engine (sum-to 1000)) 5 "
            "(lambda (v r) 'done) (lambda (e) 'expired))"
        ).name
        == "expired"
    )


def test_sliced_equals_unsliced(interp):
    assert interp.eval("(car (cdr (drive (make-engine (sum-to 200)) 37)))") == sum(
        range(201)
    )


def test_remaining_fuel_reported(interp):
    # With huge fuel, remaining must be positive.
    remaining = interp.eval(
        "(engine-run (make-engine (sum-to 3)) 100000 "
        "(lambda (v r) r) (lambda (e) -1))"
    )
    assert remaining > 0


def test_mileage_accumulates(interp):
    interp.run("(define e (make-engine (sum-to 500)))")
    interp.eval("(engine-run e 10 (lambda (v r) v) (lambda (e2) e2))")
    first = interp.eval("(engine-mileage e)")
    interp.eval("(engine-run e 10 (lambda (v r) v) (lambda (e2) e2))")
    assert interp.eval("(engine-mileage e)") > first


def test_spent_engine_rejected(interp):
    interp.run("(define e (make-engine (sum-to 1)))")
    interp.eval("(engine-run e 100000 (lambda (v r) v) (lambda (e2) e2))")
    with pytest.raises(SchemeError, match="completed"):
        interp.eval("(engine-run e 10 (lambda (v r) v) (lambda (e2) e2))")


def test_bad_arguments(interp):
    with pytest.raises(WrongTypeError):
        interp.eval("(engine-run 5 10 car cdr)")
    with pytest.raises(SchemeError):
        interp.eval("(engine-run (make-engine (sum-to 1)) 0 car cdr)")
    with pytest.raises(WrongTypeError):
        interp.eval("(engine-mileage 9)")


def test_engine_with_internal_concurrency(interp):
    """The engine body may pcall and spawn freely — a whole tree pauses
    between slices."""
    interp.run(
        """
        (define e (make-engine (lambda ()
          (pcall +
                 (spawn (lambda (c) (+ 1 (c (lambda (k) (k 10))))))
                 (let loop ([i 50]) (if (zero? i) 100 (loop (- i 1))))))))
        """
    )
    assert interp.eval("(car (cdr (drive e 13)))") == 111


def test_round_robin_in_scheme(interp):
    """A fair scheduler written in Scheme over machine engines."""
    interp.run(
        """
        (define (run-all engines acc fuel)
          (if (null? engines)
              (reverse acc)
              (engine-run (car engines) fuel
                (lambda (v r) (run-all (cdr engines) (cons v acc) fuel))
                (lambda (e) (run-all (append (cdr engines) (list e)) acc fuel)))))
        """
    )
    # Note: round-robin by requeueing expired engines at the back;
    # completed values accumulate in completion order.
    result = interp.eval(
        """
        (let ([values (run-all (list (make-engine (sum-to 30))
                                     (make-engine (sum-to 10))
                                     (make-engine (sum-to 20)))
                               '() 25)])
          (fold-left + 0 values))
        """
    )
    assert result == sum(range(31)) + sum(range(11)) + sum(range(21))


def test_nested_engines(interp):
    interp.run(
        """
        (define inner-sum
          (lambda ()
            (drive (make-engine (sum-to 50)) 11)))
        (define outer (make-engine inner-sum))
        """
    )
    result = interp.eval_to_string("(drive outer 17)")
    assert "1275" in result  # sum(1..50)


def test_controller_from_engine_invalid_outside(interp):
    """A controller created inside an engine belongs to the engine's
    tree; using it in the host machine is structurally invalid."""
    from repro.errors import DeadControllerError

    interp.run(
        """
        (define leaked
          (engine-run
            (make-engine (lambda () (spawn (lambda (c) c))))
            100000
            (lambda (v r) v)
            (lambda (e) 'expired)))
        """
    )
    with pytest.raises(DeadControllerError):
        interp.eval("(leaked (lambda (k) k))")


def test_engine_shares_the_store(interp):
    """Engines share the global store with the host (one store, many
    trees — as with futures)."""
    interp.run("(define counter 0)")
    interp.run(
        """
        (define e (make-engine (lambda ()
          (set! counter (+ counter 1))
          counter)))
        """
    )
    interp.run("(set! counter 100)")
    value = interp.eval(
        "(engine-run e 100000 (lambda (v r) v) (lambda (e2) 'expired))"
    )
    assert value == 101
    assert interp.eval("counter") == 101


def test_seeded_random_engine_blobs_are_byte_identical(monkeypatch):
    """``make-engine`` seeds its sub-machine from the parent's RNG, so a
    seeded random-policy session builds the same engine on every run,
    and its blob — which holds the engine's RNG state — is the same
    bytes.  Each run starts the uid streams at the same place and ages
    requests at a frozen clock, as a fresh process would."""
    from repro import Session
    from repro.snapshot.codec import uid_streams

    monkeypatch.setattr("repro.host.session._monotonic", lambda: 1000.0)
    streams = uid_streams()
    starts = [stream.peek() for stream in streams]

    def blob():
        for stream, start in zip(streams, starts):
            stream.reset(start)
        s = Session(policy="random", seed=7, name="e")
        s.run(
            "(define (work n) (lambda () (let loop ([i 0] [acc 0])"
            " (if (= i n) acc (loop (+ i 1) (pcall + acc i))))))"
            "(define e (make-engine (work 50)))"
            "(define r (engine-run e 40 (lambda (v left) v) (lambda (e2) 'expired)))"
        )
        return s.snapshot()

    assert blob() == blob()
