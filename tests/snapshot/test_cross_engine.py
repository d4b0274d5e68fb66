"""Cross-engine snapshot restore: a blob taken under one engine
restores and completes under another.

``Session.restore(blob, engine=...)`` overrides the header engine; the
``_N_CODE`` records are re-instantiated by the *restoring* engine
(codegen re-emits through its ir-hash cache, compiled re-runs the
closure compiler).  Values must be byte-identical across the restoring
engines.  Step totals are only gated within one engine — engines
legitimately differ in how many machine steps a program costs (codegen
fuses more per step), so cross-engine totals are *expected* to differ.
"""

from __future__ import annotations

import pytest

from repro import Session
from repro.machine.scheduler import ENGINES
from tests.engines import LEGACY, LEGACY_PROG, legacy_blob

PROG = (
    "(define (loop n acc) (if (= n 0) acc (loop (- n 1) (+ acc n))))"
    "(display (pcall + (loop 40 0) (loop 60 0) (loop 25 0)))"
)

RESTORE_ENGINES = ["codegen", "compiled", "resolved", "dict"]


def drained(session: Session) -> Session:
    while not session.idle:
        handle = session._active or session._pending[0]
        session.drive(handle)
    return session


def _mid_pcall_codegen_blob():
    s = Session(engine="codegen", quantum=8)
    s.submit(PROG)
    s.pump(5)  # suspend with the pcall branches mid-flight
    assert not s.idle
    return s.snapshot()


@pytest.mark.parametrize("engine", RESTORE_ENGINES)
def test_mid_pcall_codegen_restores_under_any_engine(engine):
    if engine in LEGACY:
        # A legacy cell: the mid-pcall blob the pre-1.5 engine wrote
        # resumes under compiled.
        prog, r = LEGACY_PROG, Session.restore(legacy_blob(engine, "mid-pcall"))
        assert r.engine == "compiled"
    else:
        prog, r = PROG, Session.restore(_mid_pcall_codegen_blob(), engine=engine)
        assert r.engine == engine
    ref = Session(engine="codegen", quantum=8)
    ref.drive(ref.submit(prog))
    assert not r.idle
    drained(r)
    assert r.output_text() == ref.output_text()


def test_cross_engine_values_byte_identical():
    blob = _mid_pcall_codegen_blob()
    outputs = {
        engine: drained(Session.restore(blob, engine=engine)).output_text()
        for engine in ENGINES
    }
    assert len(set(outputs.values())) == 1, outputs


def test_same_engine_restore_is_deterministic():
    # Restoring the same blob twice under the same engine must replay
    # to identical values AND identical step totals.
    blob = _mid_pcall_codegen_blob()
    for engine in ENGINES:
        a = drained(Session.restore(blob, engine=engine))
        b = drained(Session.restore(blob, engine=engine))
        assert a.output_text() == b.output_text()
        assert a.machine.steps_total == b.machine.steps_total
        assert a.machine.stats == b.machine.stats


def test_restored_codegen_session_serves_new_code():
    # After a cross-engine round trip back to codegen, the session must
    # emit and run fresh forms (the code cache is module-level, so this
    # also exercises restore-time cache hits).
    blob = _mid_pcall_codegen_blob()
    r = Session.restore(blob, engine="codegen")
    drained(r)
    assert r.drive(r.submit("(loop 10 0)"))[-1] == 55


def test_codegen_blob_under_compiled_serves_new_code():
    r = Session.restore(_mid_pcall_codegen_blob(), engine="compiled")
    drained(r)
    assert r.drive(r.submit("(loop 10 0)"))[-1] == 55


def test_header_engine_used_when_no_override():
    s = Session(engine="codegen")
    s.drive(s.submit("(define x 1)"))
    r = Session.restore(s.snapshot())
    assert r.engine == "codegen"
    assert r.drive(r.submit("(+ x 41)"))[-1] == 42


def test_migrate_compiled_to_codegen():
    # The reverse direction: a compiled-engine snapshot restored under
    # codegen — closures whose bodies were compiled thunks are re-coded
    # by codegen at restore time.
    s = Session(engine="compiled", quantum=8)
    s.submit(PROG)
    s.pump(5)
    ref = Session(engine="compiled", quantum=8)
    ref.drive(ref.submit(PROG))
    r = Session.restore(s.snapshot(), engine="codegen")
    drained(r)
    assert r.output_text() == ref.output_text()
    assert r.drive(r.submit("(loop 10 0)"))[-1] == 55
