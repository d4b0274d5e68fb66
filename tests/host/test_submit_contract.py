"""The shared submit contract (docs/API.md): every frontend —
``Session``, ``Interpreter``, ``Host``, ``Cluster`` — accepts the same
``submit(source, *, max_steps=None, deadline=None, tenant=None)``
keyword surface, returns a handle on the same
:class:`~repro.host.handle.HandleState` state machine, and refuses with
the same exception types (``HostSaturated`` for backpressure,
``DeadlineExceeded`` for a missed deadline, ``SessionCancelled`` +
CANCELLED for a cancel).  One parametrised suite drives all four
through one driver seam, so the contract cannot drift per-tier."""

from __future__ import annotations

import contextlib
import inspect

import pytest

from repro import Cluster, Host, Interpreter, Session
from repro.errors import DeadlineExceeded, HostSaturated, SessionCancelled
from repro.host.handle import HandleState

LOOP = "(let loop ((i 0)) (loop (+ i 1)))"


class _SessionFront:
    name = "session"

    def __init__(self, **limits):
        self.session = Session(prelude=False, **limits)

    def submit(self, source, **kwargs):
        return self.session.submit(source, **kwargs)

    def drive(self, handle):
        """Run until the handle is terminal; never raises."""
        while not handle.done():
            self.session.pump(1 << 14)

    def held(self):
        """A context in which the front starts no work: nothing runs
        here until the caller pumps."""
        return contextlib.nullcontext()

    def submit_fn(self):
        return self.session.submit

    def close(self):
        pass


class _InterpreterFront(_SessionFront):
    name = "interpreter"

    def __init__(self, **limits):
        self.interp = Interpreter(prelude=False, **limits)
        self.session = self.interp.session

    def submit(self, source, **kwargs):
        return self.interp.submit(source, **kwargs)

    def submit_fn(self):
        return self.interp.submit


class _HostFront:
    name = "host"

    def __init__(self, **limits):
        self.host = Host(**limits)
        self.host.session(name="s", prelude=False)

    def submit(self, source, **kwargs):
        return self.host.submit("s", source, **kwargs)

    def drive(self, handle):
        while not handle.done():
            self.host.tick()

    def held(self):
        return contextlib.nullcontext()

    def submit_fn(self):
        return self.host.submit

    def close(self):
        pass


class _ClusterFront:
    name = "cluster"

    def __init__(self, **limits):
        self.cluster = Cluster(
            workers=0, session_defaults={"prelude": False}, **limits
        )

    def submit(self, source, **kwargs):
        return self.cluster.submit_async("s", source, **kwargs)

    def drive(self, handle):
        handle.wait(30.0)

    def held(self):
        """Hold the front's op lock: the dispatcher may take the first
        request off the queue, but parks on the lock before any shard
        round-trip, so every later request stays queued."""
        return self.cluster._op_lock

    def submit_fn(self):
        return self.cluster.submit_async

    def close(self):
        self.cluster.close()


FRONTS = [_SessionFront, _InterpreterFront, _HostFront, _ClusterFront]


@pytest.fixture(params=FRONTS, ids=[f.name for f in FRONTS])
def front(request):
    built = request.param()
    yield built
    built.close()


@pytest.fixture(params=FRONTS, ids=[f.name for f in FRONTS])
def tight_front(request):
    built = request.param(max_pending=1)
    yield built
    built.close()


# -- the keyword surface --------------------------------------------------


def test_submit_kwargs_identical_across_frontends():
    contract = {"max_steps", "deadline", "tenant"}
    for front_cls in FRONTS:
        built = front_cls()
        try:
            sig = inspect.signature(built.submit_fn())
            keyword_only = {
                name
                for name, param in sig.parameters.items()
                if param.kind is inspect.Parameter.KEYWORD_ONLY
            }
            assert contract <= keyword_only, front_cls.name
            for name in contract:
                assert sig.parameters[name].default is None, front_cls.name
        finally:
            built.close()


# -- the handle-state machine ---------------------------------------------


def test_handle_reaches_done_with_parity_surface(front):
    handle = front.submit("(+ 40 2)", tenant="acme")
    # Pre-drive the handle is live (cluster may already be running it).
    assert handle.state in (HandleState.PENDING, HandleState.RUNNING, HandleState.DONE)
    front.drive(handle)
    assert handle.state is HandleState.DONE
    assert handle.done()
    assert handle.exception() is None
    assert handle.tenant == "acme"
    assert handle.steps > 0


def test_handle_failure_is_terminal_failed(front):
    handle = front.submit("(+ 1 unbound-here)")
    front.drive(handle)
    assert handle.state is HandleState.FAILED
    assert handle.done()
    assert handle.exception() is not None


def test_cancel_while_queued_is_cancelled_with_session_cancelled(front):
    # While the front cannot start work, a request submitted behind a
    # blocker is provably still queued when it is cancelled.
    with front.held():
        blocker = front.submit(LOOP, max_steps=50_000)
        queued = front.submit("(+ 1 1)")
        assert queued.state is HandleState.PENDING
        assert queued.cancel() is True
        assert queued.state is HandleState.CANCELLED
        assert isinstance(queued.exception(), SessionCancelled)
    front.drive(blocker)
    assert blocker.done()
    assert queued.state is HandleState.CANCELLED


def test_cancel_of_terminal_handle_returns_false(front):
    handle = front.submit("(+ 1 1)")
    front.drive(handle)
    assert handle.cancel() is False


# -- refusal types --------------------------------------------------------


def test_saturation_raises_host_saturated(tight_front):
    tight_front.submit(LOOP, max_steps=500_000)
    with pytest.raises(HostSaturated):
        tight_front.submit("(+ 1 1)")


def test_queued_deadline_expiry_raises_deadline_exceeded(front):
    # One slow request occupies the tier, so the probe's deadline
    # clock (started at submit, per the contract) expires while it is
    # still queued — every tier fails it with DeadlineExceeded without
    # running a single step of it.
    front.submit(LOOP, max_steps=200_000)
    probe = front.submit("(+ 1 1)", deadline=1e-9)
    front.drive(probe)
    assert probe.state is HandleState.FAILED
    assert isinstance(probe.exception(), DeadlineExceeded)


def test_deadline_on_running_request_fails_the_handle(front):
    handle = front.submit(LOOP, deadline=0.02)
    front.drive(handle)
    assert handle.state is HandleState.FAILED
    exc = handle.exception()
    # Host tiers raise DeadlineExceeded directly; the cluster reports
    # the shard-side miss in-band, preserving the type name in
    # ClusterEvalError.error_type.
    assert "DeadlineExceeded" in type(exc).__name__ or (
        getattr(exc, "error_type", None) == "DeadlineExceeded"
    )
