"""The session snapshot codec: round-trip fidelity, identity and
sharing preservation, blobs relative to the boot base, determinism,
format errors, and the in-pump guard."""

from __future__ import annotations

import random

import pytest

from repro import Session
from repro.errors import (
    SnapshotBaseMismatch,
    SnapshotError,
    SnapshotFormatError,
    UnboundVariableError,
)
from repro.snapshot import FORMAT_VERSION, MAGIC, restore_session, snapshot_session
from repro.snapshot.wire import Reader
from tests.engines import ENGINES, make_session


def drained(session: Session) -> Session:
    """Drive everything queued; the session ends idle."""
    while not session.idle:
        handle = session._active or session._pending[0]
        session.drive(handle)
    return session


# -- basic round trips ----------------------------------------------------


@pytest.mark.parametrize("engine", ENGINES)
def test_idle_roundtrip_preserves_output_and_stats(engine):
    s = make_session(engine)
    s.drive(s.submit("(define (sq n) (* n n)) (display (sq 12))"))
    blob = s.snapshot()
    r = Session.restore(blob)
    assert r.output_text() == s.output_text()
    assert r.machine.stats == s.machine.stats
    assert r.stats == s.stats
    assert r.name == s.name
    assert r.engine == s.engine


@pytest.mark.parametrize("engine", ENGINES)
def test_restored_session_continues_computing(engine):
    s = make_session(engine)
    s.drive(s.submit("(define (fact n) (if (= n 0) 1 (* n (fact (- n 1)))))"))
    r = Session.restore(s.snapshot())
    h = r.submit("(fact 10)")
    assert r.drive(h) == [3628800]


def test_mutable_state_survives():
    s = Session()
    s.drive(s.submit("(define counter 0) (define (bump!) (set! counter (+ counter 1)))"))
    s.drive(s.submit("(bump!) (bump!)"))
    r = Session.restore(s.snapshot())
    h = r.submit("(bump!) counter")
    assert r.drive(h)[-1] == 3


def test_macros_survive():
    s = Session()
    s.drive(
        s.submit(
            "(define-syntax unless2"
            " (syntax-rules () ((_ c e) (if c #f e))))"
        )
    )
    r = Session.restore(s.snapshot())
    assert r.drive(r.submit("(unless2 #f 42)"))[-1] == 42


def test_shared_structure_stays_shared():
    s = Session()
    s.drive(s.submit("(define a (list 1 2 3)) (define b a)"))
    r = Session.restore(s.snapshot())
    r.drive(r.submit("(set-car! a 99)"))
    assert r.drive(r.submit("(car b)"))[-1] == 99


def test_cyclic_structure_roundtrips():
    s = Session()
    s.drive(s.submit("(define knot (list 1 2)) (set-cdr! (cdr knot) knot)"))
    r = Session.restore(s.snapshot())
    assert r.drive(r.submit("(car (cdr (cdr (cdr knot))))"))[-1] == 2


def test_vectors_and_exotic_scalars():
    s = Session()
    s.drive(
        s.submit(
            '(define v (vector 1 2.5 "s" #\\x (/ 1 3) (expt 10 30)))'
        )
    )
    r = Session.restore(s.snapshot())
    assert r.drive(r.submit("(vector-ref v 4)"))[-1].numerator == 1
    assert r.drive(r.submit("(vector-ref v 5)"))[-1] == 10**30


# -- the boot base --------------------------------------------------------


def _base_digest_offset(blob: bytes) -> int:
    """Offset of the header's 32-byte base digest."""
    r = Reader(blob)
    r.raw(4)  # magic
    r.u8()  # version
    for _ in range(3):  # name, engine, policy
        r.str_()
    r.varint()  # quantum
    r.u8()  # flags
    for _ in range(7):  # max_pending, six uid watermarks
        r.varint()
    r.u8()  # base kind
    return r.pos


def test_base_objects_keep_their_identity():
    s = Session()
    s.drive(s.submit("(define f map) (define l (list car map))"))
    r = Session.restore(s.snapshot())
    assert r.eval_to_string("(list (eq? f map) (eq? (cadr l) map) (eq? (car l) car))") == (
        "(#t #t #t)"
    )


def test_changed_prelude_names_are_carried_and_win():
    s = Session()
    s.drive(s.submit("(define (filter keep? ls) 'mine) (set! identity 42)"))
    r = Session.restore(s.snapshot())
    # ``remove`` is booted afresh and calls ``filter`` through its cell.
    assert r.eval_to_string("(remove 1 '(1 2))") == "mine"
    assert r.eval("identity") == 42
    assert r.eval_to_string("(map car '((1) (2)))") == "(1 2)"


def test_bare_session_roundtrips():
    s = Session(prelude=False)
    s.drive(s.submit("(define (sq n) (* n n)) (define l (list car))"))
    blob = s.snapshot()
    r = Session.restore(blob)
    assert r.snapshot() == blob
    assert not r.base.prelude
    assert r.eval("(sq 7)") == 49
    assert r.eval("(eq? (car l) car)") is True
    with pytest.raises(UnboundVariableError):
        r.eval("map")


@pytest.mark.parametrize(("engine", "other"), [("compiled", "codegen"), ("codegen", "compiled")])
def test_blob_restores_under_the_other_engine(engine, other):
    s = Session(engine=engine)
    s.drive(s.submit("(define f map) (define (sq n) (* n n))"))
    r = Session.restore(s.snapshot(), engine=other)
    assert r.engine == other
    assert r.eval_to_string("(list (eq? f map) (f sq '(1 2 3)))") == "(#t (1 4 9))"


@pytest.mark.parametrize("prelude", [True, False])
def test_foreign_base_digest_refused(prelude):
    blob = bytearray(Session(prelude=prelude).snapshot())
    blob[_base_digest_offset(bytes(blob))] ^= 0xFF
    with pytest.raises(SnapshotBaseMismatch):
        restore_session(bytes(blob))


def test_round_robin_blob_carries_no_rng_state():
    # Only the random policy reads the RNG, so only its blob changes
    # when the RNG is reseeded.
    for policy, carried in (("round-robin", False), ("random", True)):
        s = Session(policy=policy, seed=1)
        blob = s.snapshot()
        s.machine.rng.seed(2)
        assert (s.snapshot() != blob) is carried


# -- suspended computations ----------------------------------------------


@pytest.mark.parametrize("engine", ENGINES)
def test_suspended_mid_pcall_resumes_identically(engine):
    prog = (
        "(define (loop n) (if (= n 0) 0 (loop (- n 1))))"
        "(display (pcall + (loop 40) (loop 60) (loop 25)))"
    )
    ref = make_session(engine, quantum=8)
    ref.drive(ref.submit(prog))

    s = make_session(engine, quantum=8)
    s.submit(prog)
    s.pump(5)  # suspend with the pcall branches mid-flight
    r = Session.restore(s.snapshot())
    assert not r.idle
    drained(r)
    assert r.output_text() == ref.output_text()
    assert r.machine.stats == ref.machine.stats


@pytest.mark.parametrize("engine", ENGINES)
def test_parked_future_survives_snapshot(engine):
    s = make_session(engine, quantum=16)
    s.drive(
        s.submit(
            "(define (loop n) (if (= n 0) 7 (loop (- n 1))))"
            "(define f (future (lambda () (loop 500))))"
        )
    )
    # The future's tree is parked (or its value delivered) between forms.
    r = Session.restore(s.snapshot())
    assert r.drive(r.submit("(+ (touch f) 1)"))[-1] == 8


def test_captured_continuation_survives():
    s = Session(quantum=16)
    s.drive(
        s.submit(
            "(define saved #f)"
            "(define out (spawn (lambda (c) (+ 100 (c (lambda (k) (set! saved k) 5))))))"
        )
    )
    r = Session.restore(s.snapshot())
    # The controller's continuation was stashed; reinstating it still works.
    assert r.drive(r.submit("(spawn (lambda (c2) (saved 1)))"))[-1] == 101


#: Closures whose code holds quoted structure: a list, a ``case``
#: clause's datum list and a vector literal.
QUOTED = (
    "(define (g) '(a b))"
    "(define (h x) (case x ((1) 'one) (else 'other)))"
    "(define (v) '#(1 2))"
)


@pytest.mark.parametrize("engine", ["compiled", "codegen"])
def test_code_over_quoted_structure_restores_idle(engine):
    s = Session(engine=engine)
    s.run(QUOTED)
    r = Session.restore(s.snapshot())
    assert r.eval_to_string("(list (g) (h 1) (h 2) (v))") == "((a b) one other #(1 2))"


@pytest.mark.parametrize("engine", ["compiled", "codegen"])
def test_code_over_quoted_structure_restores_mid_run(engine):
    prog = QUOTED + (
        "(define (loop n) (if (= n 0) (list (g) (h 1) (v)) (loop (- n 1))))"
        "(display (loop 200))"
    )
    s = Session(engine=engine, quantum=8)
    s.submit(prog)
    s.pump(40)
    assert not s.idle
    r = Session.restore(s.snapshot())
    drained(r)
    assert r.output_text() == "((a b) one #(1 2))"


@pytest.mark.parametrize("engine", ["compiled", "codegen"])
def test_continuation_captured_in_a_do_loop_survives(engine):
    # The continuation's code names the loop's gensym-bound locals,
    # whose binding lambda is no longer reachable from the session.
    s = Session(engine=engine)
    s.run("(define k #f) (define n 0)")
    s.run(
        "(do ((i 0 (+ i 1))) ((= i 3) 'end)"
        " (set! n (+ n 1))"
        " (if (= i 1) (call/cc (lambda (c) (set! k c)))))"
    )
    r = Session.restore(s.snapshot())
    assert r.eval_to_string("(k #f)") == "end"
    assert r.eval("n") == 4


def test_pending_queue_survives():
    s = Session()
    s.submit("(define a 1)")
    s.submit("(define b 2)")
    s.submit("(+ a b)")
    assert s.queue_depth == 3
    r = Session.restore(s.snapshot())
    assert r.queue_depth == 3
    results = [drained(r)][0]
    last = r._pending[-1] if r._pending else None
    assert r.idle
    assert r.drive(r.submit("(+ a b)"))[-1] == 3


def test_counter_watermarks_advance_on_restore():
    """Restoring a snapshot brings every uid stream at least up to the
    snapshot's watermark, so ids minted after restore can never collide
    with ids living inside the restored graph (gensym printed names,
    task/label/future uids in traces)."""
    from repro.datum.symbols import _gensym_counter, gensym

    s = Session()
    s.drive(s.submit("(define ok 1)"))
    for _ in range(3):
        gensym()  # advance the stream past wherever it was
    watermark = _gensym_counter.peek()
    blob = s.snapshot()
    saved = _gensym_counter.peek()
    try:
        _gensym_counter.reset(0)  # simulate a fresh process
        Session.restore(blob)
        assert _gensym_counter.peek() >= watermark
        # And never backwards: restoring an *old* snapshot must not
        # rewind a further-along stream.
        _gensym_counter.reset(watermark + 100)
        Session.restore(blob)
        assert _gensym_counter.peek() >= watermark + 100
    finally:
        _gensym_counter.advance(max(saved, _gensym_counter.peek()))


# -- determinism ----------------------------------------------------------


@pytest.mark.parametrize("engine", ENGINES)
def test_idle_snapshot_is_deterministic(engine):
    fresh = make_session(engine)
    warm = make_session(engine)  # user state and a macro
    warm.drive(
        warm.submit(
            "(define z (list 1 2 3)) (display z)"
            "(define-syntax swap! (syntax-rules ()"
            " ((_ a b) (let ((t a)) (set! a b) (set! b t)))))"
        )
    )
    for s in (fresh, warm):
        blob = s.snapshot()
        assert s.snapshot() == blob  # stable under repetition
        r = Session.restore(blob)
        assert r.snapshot() == blob  # and under a restore cycle


def test_random_policy_rng_state_carried():
    prog = (
        "(define (loop n) (if (= n 0) 0 (loop (- n 1))))"
        "(display (pcall + (loop 30) (loop 50) (loop 20) (loop 40)))"
    )
    ref = Session(policy="random", seed=3, quantum=2)
    ref.drive(ref.submit(prog))
    s = Session(policy="random", seed=3, quantum=2)
    s.submit(prog)
    s.pump(4)
    r = Session.restore(s.snapshot())
    drained(r)
    assert r.machine.stats == ref.machine.stats
    assert r.output_text() == ref.output_text()


# -- guards and format errors ---------------------------------------------


def test_snapshot_inside_pump_refused():
    s = Session()
    s.submit("(define x 1)")
    s._in_pump = True
    try:
        with pytest.raises(SnapshotError):
            s.snapshot()
    finally:
        s._in_pump = False


def test_bad_magic_rejected():
    with pytest.raises(SnapshotFormatError):
        restore_session(b"NOPE" + b"\x00" * 64)


def test_bad_version_rejected():
    s = Session()
    blob = bytearray(s.snapshot())
    assert blob[:4] == MAGIC
    blob[4] = FORMAT_VERSION + 1
    with pytest.raises(SnapshotFormatError):
        restore_session(bytes(blob))


def test_truncated_blob_rejected():
    s = Session()
    blob = s.snapshot()
    # A truncation is always reported as a snapshot problem, never an
    # IndexError/KeyError: usually SnapshotFormatError, but a cut that
    # lands inside a name string can surface as the (parent)
    # SnapshotError for a primitive that "does not exist".
    for cut in (5, len(blob) // 2, len(blob) - 1):
        with pytest.raises(SnapshotError):
            restore_session(blob[:cut])


def test_corrupt_bytes_raise_only_snapshot_errors():
    # A byte flipped anywhere may land in a UTF-8 string, an enum value,
    # a field count or a denominator; restore still reports it as a
    # snapshot problem, with the underlying error chained.
    s = Session()
    s.run("(define counter 0) (define (bump!) (set! counter (+ counter 1)) counter)")
    s.run("(define v (vector 1 2.5 'a \"s\" #\\x 1/3))")
    blob = s.snapshot()
    rng = random.Random(20)
    causes = []
    for _ in range(500):
        corrupt = bytearray(blob)
        corrupt[rng.randrange(len(corrupt))] = rng.randrange(256)
        try:
            restore_session(bytes(corrupt))
        except SnapshotError as exc:
            causes.append(type(exc.__cause__))
    assert len(causes) > 250
    assert UnicodeDecodeError in causes


def test_empty_blob_rejected():
    with pytest.raises(SnapshotFormatError):
        restore_session(b"")


def test_name_override():
    s = Session(name="origin")
    blob = s.snapshot()
    r = Session.restore(blob, name="replica")
    assert r.name == "replica"
    assert Session.restore(blob).name == "origin"


def test_module_level_api_matches_methods():
    s = Session()
    s.drive(s.submit("(display 1)"))
    assert restore_session(snapshot_session(s)).output_text() == "1"
