"""The prelude image: ``PRELUDE`` is read and expanded once per process,
then resolved and bound by every session that loads it.  Sessions
booted from the shared image stay fully isolated.

A boot runs nothing: each prelude closure's body is built at its first
call, in the step that enters it, so boot compiles nothing and takes no
uids, every program takes the steps it took when boot ran the prelude,
and a snapshot may catch a task about to enter a body not yet built."""

from __future__ import annotations

import sys
import threading

import pytest

import repro.host.handle as handle_mod
import repro.host.session as session_mod
import repro.snapshot.codec as codec_mod
from repro import Cluster, Session
from repro.datum import intern
from repro.expander import ExpandEnv, expand_program
from repro.ir.hashing import stable_hash
from repro.lib import PRELUDE
from repro.machine.task import EVAL
from repro.reader import read_all


@pytest.fixture
def no_image(monkeypatch):
    """A process that has not built the image yet (the built one is
    put back afterwards)."""
    monkeypatch.setattr(session_mod, "_prelude_image", None)


def test_image_equals_a_fresh_expansion():
    nodes, macros = session_mod.prelude_image()
    env = ExpandEnv()
    fresh = expand_program(read_all(PRELUDE), env)
    assert len(nodes) == len(fresh)
    for cached, node in zip(nodes, fresh):
        assert cached == node
        assert stable_hash(cached) == stable_hash(node)
    assert set(macros) == set(env.macros) == {intern("delay")}


def test_sessions_booted_from_the_image_are_isolated():
    a, sibling = Session(), Session()
    a.run("(define (map f ls) 'mine)")
    a.run("(extend-syntax (delay) [(delay e) 'lazy])")
    assert a.eval_to_string("(map car '((1)))") == "mine"
    assert a.eval_to_string("(delay 5)") == "lazy"
    for session in (sibling, Session()):
        assert session.eval_to_string("(map car '((1)))") == "(1)"
        assert session.eval_to_string("(force (delay 5))") == "5"


def _count_frontend_calls(monkeypatch) -> dict[str, int]:
    """Count calls of the reader and expander as bound in
    ``repro.host.session`` (where the image build looks them up)."""
    calls = {"read_all": 0, "expand_program": 0}
    lock = threading.Lock()

    def counting(name):
        original = getattr(session_mod, name)

        def wrapper(*args, **kwargs):
            with lock:
                calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(session_mod, name, counting(name))
    return calls


def test_ten_sessions_read_and_expand_the_prelude_once(no_image, monkeypatch):
    calls = _count_frontend_calls(monkeypatch)
    sessions = [Session() for _ in range(10)]
    assert calls == {"read_all": 1, "expand_program": 1}
    assert all(s.eval_to_string("(force (delay (tree-size (leaf 1))))") == "1" for s in sessions)


def test_concurrent_first_sessions_build_one_image(no_image, monkeypatch):
    calls = _count_frontend_calls(monkeypatch)
    barrier = threading.Barrier(8)
    sessions: list[Session] = []

    def boot():
        barrier.wait(timeout=30)
        sessions.append(Session())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=boot) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert calls == {"read_all": 1, "expand_program": 1}
    assert len(sessions) == 8
    assert all(s.eval_to_string("(map car '((1) (2)))") == "(1 2)" for s in sessions)


@pytest.mark.parametrize(
    ("defaults", "built"), [(None, True), ({"prelude": False}, False)]
)
def test_cluster_front_builds_the_image_before_forking(no_image, defaults, built):
    cluster = Cluster(workers=2, session_defaults=defaults)
    try:
        assert (session_mod._prelude_image is not None) is built
    finally:
        cluster.close()


def test_immutability_guard_rejects_a_quoted_list(no_image, monkeypatch):
    monkeypatch.setattr(session_mod, "PRELUDE", PRELUDE + "\n(define shared '(1 2))\n")
    with pytest.raises(TypeError, match=r"\(1 2\) is mutable"):
        Session()
    assert session_mod._prelude_image is None
    assert Session(prelude=False).eval("(+ 1 2)") == 3


@pytest.mark.parametrize(
    "form", ["(display 1)", "(define x (car '(1)))", "(define y x)", "(set! map car)"]
)
def test_image_holds_only_bindable_defines(no_image, monkeypatch, form):
    monkeypatch.setattr(session_mod, "PRELUDE", PRELUDE + "\n" + form + "\n")
    with pytest.raises(TypeError, match=r"is not \(define name <lambda\|atom>\)"):
        Session()
    assert session_mod._prelude_image is None
    assert Session(prelude=False).eval("(+ 1 2)") == 3


# -- booting binds, it does not run ------------------------------------------


@pytest.mark.parametrize("engine", ["compiled", "codegen"])
def test_boot_compiles_nothing_and_takes_no_uids(engine):
    Session(engine=engine)  # the image is built
    streams = codec_mod.uid_streams()
    before = [stream.peek() for stream in streams]
    s = Session(engine=engine)
    assert [stream.peek() for stream in streams] == before
    stats = s.stats
    assert stats["compile.nodes" if engine == "compiled" else "codegen.nodes"] == 0
    assert stats["tasks_created"] == 0
    assert s.machine.steps_total == 0


#: Steps each program took when boot ran the prelude (3.0.0), on its
#: first call and on every later one.
PRELUDE_STEPS = {
    "(map (lambda (x) (* x x)) '(1 2 3 4 5))": {"compiled": 38, "codegen": 31},
    "(tree->list (list->tree '(5 3 8 1 4 7)))": {"compiled": 224, "codegen": 259},
    "(fold-right cons '() (filter odd? '(1 2 3 4 5 6 7)))": {"compiled": 53, "codegen": 26},
    "(list-copy '(1 2 3 4 5 6 7 8))": {"compiled": 37, "codegen": 16},
}


@pytest.mark.parametrize("engine", ["compiled", "codegen"])
@pytest.mark.parametrize("source", sorted(PRELUDE_STEPS))
def test_a_lazily_built_body_takes_the_steps_a_booted_one_did(engine, source):
    s = Session(engine=engine)
    steps = []
    for _ in range(2):
        handle = s.submit(source)
        s.drive(handle)
        steps.append(handle.steps)
    assert steps == [PRELUDE_STEPS[source][engine]] * 2


def test_codegen_builds_the_body_its_self_call_guard_names():
    # The define's emitted module inlines a self-call behind ``f.body is
    # <body function>``, naming the body as a module global: the first
    # call must install that function, not a standalone emission.
    s = Session(engine="codegen")
    closure = s.eval("list-copy")
    stub = closure.body
    assert s.eval_to_string("(list-copy '(1 2))") == "(1 2)"
    body = closure.body
    assert body is not stub and body.node is stub.node
    assert body.__globals__[body.__name__] is body
    assert body.__name__ in body.__code__.co_names  # the guard


def _park_at_stub(engine: str, source: str, name: str) -> Session:
    """A ``quantum=1`` session that has applied the prelude closure
    ``name`` and not yet entered its body: a task sits at ``(EVAL,
    stub)``."""
    s = Session(engine=engine, quantum=1)
    stub = s.eval(name).body
    s.submit(source)
    while not any(task.tag is EVAL and task.payload is stub for task in s.machine.queue):
        assert not s.idle
        s.pump(1)
    return s


def _finish(session: Session) -> tuple[list, int]:
    handle = session._active
    return session.drive(handle), handle.steps


@pytest.mark.parametrize("engine", ["compiled", "codegen"])
def test_snapshot_of_a_task_about_to_enter_an_unbuilt_body(engine, monkeypatch):
    # A frozen clock: a live handle's blob carries its age.
    monkeypatch.setattr(handle_mod, "monotonic", lambda: 1000.0)
    monkeypatch.setattr(codec_mod, "_monotonic", lambda: 1000.0)
    source = "(display (list-copy '(1 2 3))) (fold-left + 0 '(4 5 6))"
    fresh = Session(engine=engine, quantum=1)
    handle = fresh.submit(source)
    expected = (fresh.drive(handle), handle.steps)

    blob = _park_at_stub(engine, source, "fold-left").snapshot()
    restored = Session.restore(blob)
    assert restored.snapshot() == blob
    assert _finish(restored) == expected
    assert restored.output_text() == "(1 2 3)"
    other = "codegen" if engine == "compiled" else "compiled"
    assert _finish(Session.restore(blob, engine=other))[0] == expected[0]
