"""Handles report their own transitions (``repro.host.handle.Handle``):
one listener per handle is called with every state change, in order,
on every submit-contract frontend that hands out handles — Session,
Host and an inline ``Cluster(workers=0)``."""

from __future__ import annotations

import time

import pytest

from repro import Cluster, Session
from repro.host.handle import HandleState

from tests.host.test_submit_contract import LOOP, _ClusterFront, _HostFront, _SessionFront

FRONTS = [_SessionFront, _HostFront, _ClusterFront]

RUNNING = HandleState.RUNNING
DONE = HandleState.DONE
CANCELLED = HandleState.CANCELLED


@pytest.fixture(params=FRONTS, ids=[f.name for f in FRONTS])
def front(request):
    built = request.param()
    yield built
    built.close()


def _recorder():
    """A listener that records its calls, plus the list it fills."""
    calls: list[tuple[HandleState | None, str]] = []
    return calls, lambda state, text: calls.append((state, text))


def test_listener_sees_running_then_one_terminal_state(front):
    calls, listener = _recorder()
    # Held, so nothing can finish before the listener is attached (a
    # cluster request may already be RUNNING: subscribe reports it).
    with front.held():
        handle = front.submit("(+ 1 2)")
        handle.subscribe(listener)
    front.drive(handle)
    assert [state for state, _ in calls] == [RUNNING, DONE]


def test_cancel_while_queued_reports_one_cancelled(front):
    calls, listener = _recorder()
    with front.held():
        blocker = front.submit(LOOP, max_steps=50_000)
        queued = front.submit("(+ 1 1)")
        queued.subscribe(listener)
        assert queued.cancel() is True
        assert calls == [(CANCELLED, "")]
    front.drive(blocker)
    assert calls == [(CANCELLED, "")]


def test_subscribe_to_terminal_handle_reports_it_once(front):
    handle = front.submit("(+ 1 1)")
    front.drive(handle)
    calls, listener = _recorder()
    handle.subscribe(listener)
    assert calls == [(DONE, "")]


def test_output_reaches_the_listener_before_the_terminal_state(front):
    calls, listener = _recorder()
    with front.held():
        handle = front.submit('(display "out") 7')
        handle.subscribe(listener)
    front.drive(handle)
    text = "".join(t for state, t in calls if state is None)
    assert text == "out"
    assert calls[-1] == (DONE, "")


def test_close_force_resolve_notifies_once():
    """``Cluster.close`` abandons an in-flight request (CANCELLED); the
    dispatcher's later resolution of the same handle is a no-op, and
    the listener hears exactly one terminal state."""
    cluster = Cluster(workers=0, session_defaults={"prelude": False})
    calls, listener = _recorder()
    with cluster._op_lock:  # park the dispatcher before the shard call
        handle = cluster.submit_async("s", "(+ 1 1)")
        handle.subscribe(listener)
        deadline = time.monotonic() + 10.0
        while handle.state is not RUNNING:  # taken by the dispatcher
            assert time.monotonic() < deadline
            time.sleep(0.001)
        cluster.close(join_timeout=0.05)
        assert handle.state is CANCELLED
    cluster._dispatcher.join(10.0)
    assert not cluster._dispatcher.is_alive()
    assert calls[-1] == (CANCELLED, "")
    assert [state for state, _ in calls if state is not None and state.terminal] == [
        CANCELLED
    ]


def test_listener_leaves_snapshot_bytes_unchanged(monkeypatch):
    monkeypatch.setattr("repro.snapshot.codec._monotonic", lambda: 1_000_000.0)
    session = Session(prelude=False)
    handle = session.submit('(display "x") (+ 1 2)')
    without = session.snapshot()
    handle.subscribe(lambda state, text: None)
    assert session.snapshot() == without
    # A restored handle starts with an empty slot and can be listened to.
    restored = Session.restore(without)
    calls, listener = _recorder()
    pending = restored._pending[0]
    pending.subscribe(listener)
    restored.drive(pending)
    assert calls == [(RUNNING, ""), (None, "x"), (DONE, "")]
