"""The prelude image: ``PRELUDE`` is read and expanded once per process,
then resolved, analysed, compiled and run by every session that loads
it.  Sessions booted from the shared image stay fully isolated."""

from __future__ import annotations

import sys
import threading

import pytest

import repro.host.session as session_mod
from repro import Cluster, Session
from repro.datum import intern
from repro.expander import ExpandEnv, expand_program
from repro.ir.hashing import stable_hash
from repro.lib import PRELUDE
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
