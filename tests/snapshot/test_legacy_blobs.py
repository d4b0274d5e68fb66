"""Snapshots written by older builds still restore.

The pre-1.5 fixtures, written when ``dict`` and ``resolved`` were
engines of their own, are format version 3 blobs, which decode onto a
bare session: the header's engine name maps to ``compiled``, the
reserved ``batched`` flag bit and ``fold`` field are read and ignored,
and the old engines' closures — unresolved bodies over dict ribs, raw
resolved IR — run on the run loop's raw-IR fallback.  The ``v4-*``
fixtures are the 1.8.0 golden corpus and the ``v5-*`` fixtures the
3.0.0 one, both relative to the boot base this build still boots.
Versions 3 and 4 carry the capture/effect analysis's fields and metric
roots, which a restore reads and drops.  The fixtures are described in
``tests/snapshot/legacy/README.md``.
"""

from __future__ import annotations

from types import FunctionType

import pytest

from repro import Session
from repro.machine.environment import Environment
from repro.snapshot import FORMAT_VERSION
from repro.snapshot.wire import Reader
from tests.engines import (
    LEGACY,
    LEGACY_FOLLOW_UP,
    LEGACY_OUTPUT,
    LEGACY_PROG,
    legacy_blob,
)


def drained(session: Session) -> Session:
    while not session.idle:
        session.pump(10_000)
    return session


#: The format version the fixtures were written in.
FIXTURE_VERSION = 3


def _header(blob: bytes) -> tuple[int, str, int, int]:
    """(format version, engine name, flags byte, offset of the flags
    byte) of a blob."""
    r = Reader(blob)
    r.raw(4)
    version = r.u8()
    r.str_()  # session name
    engine = r.str_()
    r.str_()  # policy
    r.varint()  # quantum
    return version, engine, r.u8(), r.pos - 1


@pytest.mark.parametrize("engine", LEGACY)
def test_fixture_headers_name_the_old_engine(engine):
    for kind in ("idle", "mid-pcall"):
        version, stored, flags, _ = _header(legacy_blob(engine, kind))
        assert (version, stored) == (FIXTURE_VERSION, engine)
        assert flags & 1  # the pre-1.5 ``batched`` flag, set by default


@pytest.mark.parametrize("engine", LEGACY)
def test_mid_pcall_blob_drains_like_a_fresh_compiled_run(engine):
    ref = Session(quantum=8, prelude=False)
    ref.drive(ref.submit(LEGACY_PROG))

    r = Session.restore(legacy_blob(engine, "mid-pcall"))
    assert r.engine == r.machine.engine == "compiled"
    assert not r.idle
    drained(r)
    assert r.output_text() == ref.output_text() == LEGACY_OUTPUT
    # The old engine's closures keep serving new code.
    source, value = LEGACY_FOLLOW_UP
    assert r.eval_to_string(source) == ref.eval_to_string(source) == value


@pytest.mark.parametrize("engine", LEGACY)
def test_mid_pcall_blob_restores_under_codegen(engine):
    r = Session.restore(legacy_blob(engine, "mid-pcall"), engine="codegen")
    assert r.engine == "codegen"
    assert drained(r).output_text() == LEGACY_OUTPUT


@pytest.mark.parametrize("engine", LEGACY)
def test_restored_closures_keep_the_old_dialect(engine):
    s = Session.restore(legacy_blob(engine))
    closure = s.eval("map")
    assert not isinstance(closure.body, FunctionType)  # plain IR, not code
    if engine == "dict":
        assert closure.nslots is None
        assert type(closure.env) is Environment
    else:
        assert closure.nslots is not None
    assert s.eval_to_string("(map (lambda (x) (* x x)) '(1 2 3))") == "(1 4 9)"


def _counts(namespace: str, **nonzero: int) -> dict[str, int]:
    return {f"{namespace}.{name}": value for name, value in nonzero.items()}


#: What each fixture's metric records hold once restored; every other
#: declared metric is zero.  A declaration reordered against the wire
#: order puts these values under the wrong names.  The fixtures also
#: carry the analysis root and three ``submits_*`` session counters,
#: which 3.0 removed: a restore reads them in the fixture's layout and
#: drops them (``resolved/mid-pcall`` counted ``submits_spawning=1``).
LEGACY_METRICS = {
    ("dict", "idle"): {},
    ("dict", "mid-pcall"): _counts(
        "session", submits=1, quanta_served=20, steps_served=39, max_queue_depth=1
    ),
    ("resolved", "idle"): _counts(
        "resolver", locals=153, globals=113, lambdas=46, cells_interned=28, cell_cache_hits=113
    ),
    ("resolved", "mid-pcall"): {
        **_counts(
            "resolver", locals=11, globals=15, lambdas=4, cells_interned=3, cell_cache_hits=15
        ),
        **_counts(
            "session", submits=1, quanta_served=18, steps_served=37, max_queue_depth=1
        ),
    },
}


@pytest.mark.parametrize("engine, kind", sorted(LEGACY_METRICS))
def test_fixture_metrics_restore_in_declaration_order(engine, kind):
    s = Session.restore(legacy_blob(engine, kind))
    restored: dict[str, int] = {}
    for record in (s.resolver_stats, s.compile_stats, s.codegen_stats, s.metrics):
        restored.update(record.as_dict())
    assert restored == {**dict.fromkeys(restored, 0), **LEGACY_METRICS[engine, kind]}
    assert not any(key.startswith(("analysis.", "session.submits_")) for key in s.stats)
    assert {name: h["count"] for name, h in s.metrics.histograms().items()} == {
        "session.latency_us": 0,
        "session.steps_per_request": 0,
    }


def test_reserved_flag_bit_is_ignored_on_read():
    # Written set; a blob with it clear (a pre-1.5 ``batched=False``
    # session) restores all the same.
    s = Session(prelude=False)
    s.drive(s.submit("(define x 41)"))
    blob = bytearray(s.snapshot())
    version, engine, flags, offset = _header(bytes(blob))
    assert (version, engine) == (FORMAT_VERSION, "compiled") and flags & 1
    blob[offset] = flags & ~1
    r = Session.restore(bytes(blob))
    assert r.eval("(+ x 1)") == 42


#: The golden corpus (``tests/snapshot/test_golden.py``) as two releases
#: wrote it: 1.8.0 in version 4 (``v4-*``) and 3.0.0 in version 5
#: (``v5-*``).  Per case, the output its suspended work prints once
#: drained, a follow-up request and that request's answer.
CORPUS = {
    "idle": ("", "(bump!)", "2"),
    "mid-pcall": ("0", "(loop 3)", "0"),
    "parked-future": ("", "(touch f)", "7"),
    "captured-continuation": ("", "(list out (procedure? saved))", "(5 #t)"),
    "gensym-cell": ("", "(peek)", "41"),
    "user-macro": ("", "(swap! x y) (list x y)", "(1 2)"),
    "redefined-prelude-name": ("", "(list (filter odd? '(1 2)) identity)", "(mine 42)"),
}


def _restores_and_serves(version: int, engine: str, case: str) -> None:
    blob = legacy_blob(f"v{version}-{engine}", case)
    assert _header(blob)[:2] == (version, engine)
    restored = Session.restore(blob)
    again = restored.snapshot()
    assert _header(again)[0] == FORMAT_VERSION
    output, source, value = CORPUS[case]
    for session in (restored, Session.restore(again)):
        assert drained(session).output_text() == output
        assert session.eval_to_string(source) == value


@pytest.mark.parametrize("engine", ["compiled", "codegen"])
@pytest.mark.parametrize("case", sorted(CORPUS))
def test_v4_corpus_restores_and_serves(engine, case):
    _restores_and_serves(4, engine, case)


@pytest.mark.parametrize("engine", ["compiled", "codegen"])
@pytest.mark.parametrize("case", sorted(CORPUS))
def test_v5_corpus_restores_and_serves(engine, case):
    # Written by a build whose boot ran the prelude, so the blob's uid
    # watermarks and counters include that boot.
    _restores_and_serves(5, engine, case)
