"""Snapshots written before 1.5, when ``dict`` and ``resolved`` were
engines of their own, still restore.

They are format version 3 blobs, which decode onto a bare session: the
header's engine name maps to ``compiled``, the reserved ``batched``
flag bit and ``fold`` field are read and ignored, and the old engines'
closures — unresolved bodies over dict ribs, raw resolved IR — run on
the run loop's raw-IR fallback.  The fixtures are described in
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


_RESOLVED_IDLE = {
    **_counts(
        "resolver", locals=153, globals=113, lambdas=46, cells_interned=28, cell_cache_hits=113
    ),
    **_counts(
        "analysis",
        forms=28,
        lambdas=46,
        capture_free=21,
        spawn_free=21,
        known_total=17,
        fixpoint_passes=32,
        grants=28,
    ),
}

#: What each fixture's metric records hold once restored; every other
#: declared metric is zero.  A declaration reordered against the wire
#: order puts these values under the wrong names.
LEGACY_METRICS = {
    ("dict", "idle"): {},
    ("dict", "mid-pcall"): _counts(
        "session", submits=1, quanta_served=20, steps_served=39, max_queue_depth=1
    ),
    ("resolved", "idle"): _RESOLVED_IDLE,
    ("resolved", "mid-pcall"): {
        **_counts(
            "resolver", locals=11, globals=15, lambdas=4, cells_interned=3, cell_cache_hits=15
        ),
        **_counts(
            "analysis",
            forms=4,
            lambdas=4,
            capture_free=3,
            spawn_free=3,
            known_total=2,
            fixpoint_passes=2,
            grants=3,
        ),
        **_counts(
            "session",
            submits=1,
            quanta_served=18,
            steps_served=37,
            max_queue_depth=1,
            submits_spawning=1,
        ),
    },
}


@pytest.mark.parametrize("engine, kind", sorted(LEGACY_METRICS))
def test_fixture_metrics_restore_in_declaration_order(engine, kind):
    s = Session.restore(legacy_blob(engine, kind))
    restored: dict[str, int] = {}
    for record in (
        s.resolver_stats,
        s.compile_stats,
        s.codegen_stats,
        s.analysis_stats,
        s.metrics,
    ):
        restored.update(record.as_dict())
    assert restored == {**dict.fromkeys(restored, 0), **LEGACY_METRICS[engine, kind]}
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
