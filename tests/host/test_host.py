"""Host-level behaviour: fair multiplexing of many sessions, deadline
enforcement mid-``pcall``, backpressure, and the engine × policy
differential matrix for budget enforcement."""

from __future__ import annotations

import pytest

from repro import Host, Session
from repro.errors import DeadlineExceeded, HostSaturated, StepBudgetExceeded
from repro.host import HandleState, HostPolicy
from tests.engines import ENGINES, make_session

HOST_POLICIES = ["round-robin", "deficit"]

LOOP = "(define (loop n) (loop (+ n 1)))"


def _spin(n: int) -> str:
    return f"(let loop ([i 0]) (if (= i {n}) i (loop (+ i 1))))"


def _session(host: Host, name: str, engine: str, **kwargs) -> Session:
    """Attach a session for one cell of the engine axis."""
    return host.add_session(make_session(engine, name=name, **kwargs))


# -- membership -----------------------------------------------------------


def test_session_lookup_and_iteration():
    host = Host()
    a = host.session("a", prelude=False)
    b = host.session("b", prelude=False)
    assert host["a"] is a
    assert list(host) == [a, b]
    assert len(host) == 2


def test_duplicate_names_rejected():
    host = Host()
    host.session("a", prelude=False)
    with pytest.raises(ValueError):
        host.add_session(Session(name="a", prelude=False))


def test_foreign_session_rejected():
    host = Host()
    stray = Session(prelude=False)
    with pytest.raises(ValueError):
        host.submit(stray, "(+ 1 2)")


def test_remove_session_cancels_work():
    host = Host()
    sess = host.session("a", prelude=False)
    handle = host.submit(sess, _spin(10_000))
    host.tick()
    host.remove_session("a")
    assert handle.state is HandleState.CANCELLED
    assert len(host) == 0


# -- fairness -------------------------------------------------------------


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("policy", HOST_POLICIES)
def test_eight_sessions_complete_with_correct_results(engine, policy):
    """The headline acceptance check: ≥8 concurrent sessions running
    capture-heavy paper programs to completion, each with the correct
    per-session result, under every engine and host policy."""
    host = Host(policy=policy, quantum=200)
    handles = {}
    expected = {}
    for k in range(8):
        sess = _session(host, f"s{k}", engine, quantum=4)
        if k % 2 == 0:
            # sum-of-products = product(ls1) + product(ls2)
            sess.load_paper_example("sum-of-products")
            handles[f"s{k}"] = host.submit(sess, f"(sum-of-products '(1 2 3) '(4 {k} 6))")
            expected[f"s{k}"] = 6 + 24 * k
        else:
            sess.load_paper_example("parallel-or")
            handles[f"s{k}"] = host.submit(sess, f"(parallel-or #f {k})")
            expected[f"s{k}"] = k
    ticks = host.run_until_idle(max_ticks=10_000)
    assert ticks < 10_000, "host did not drain"
    for name, want in expected.items():
        assert handles[name].result() == want, name
        assert host[name].metrics.evals_failed == 0, name


@pytest.mark.parametrize("engine", ENGINES)
def test_results_are_per_session_correct(engine):
    host = Host(quantum=150)
    handles = {}
    for k in range(8):
        sess = _session(host, f"s{k}", engine, quantum=4)
        sess.load_paper_example("sum-of-products")
        handles[k] = host.submit(sess, f"(sum-of-products '(1 2 3) '(4 {k} 6))")
    host.run_until_idle(max_ticks=10_000)
    for k, handle in handles.items():
        assert handle.result() == 6 + 24 * k, f"session s{k}"


def test_round_robin_serves_identical_workloads_in_step():
    """Strict per-tick fairness: identical workloads on identical
    sessions finish in the same tick."""
    host = Host(policy="round-robin", quantum=100)
    handles = []
    finish_tick = {}
    for k in range(8):
        sess = host.session(f"s{k}", prelude=False)
        handles.append((k, host.submit(sess, _spin(2000))))
    tick = 0
    while not host.idle:
        host.tick()
        tick += 1
        for k, handle in handles:
            if handle.done() and k not in finish_tick:
                finish_tick[k] = tick
    assert len(set(finish_tick.values())) == 1


def test_deficit_lets_backlogged_session_catch_up():
    """A session that sat idle accrues no credit, but one with standing
    backlog gets its banked share: total service converges."""
    host = Host(policy="deficit", quantum=100)
    busy = host.session("busy", prelude=False)
    late = host.session("late", prelude=False)
    h_busy = host.submit(busy, _spin(3000))
    for _ in range(4):
        host.tick()
    h_late = host.submit(late, _spin(3000))
    host.run_until_idle(max_ticks=10_000)
    assert h_busy.result() == 3000
    assert h_late.result() == 3000
    # The late session was never starved below the busy one's rate:
    assert late.metrics.steps_served > 0


def test_sessions_survive_sibling_failure():
    host = Host(quantum=100)
    good = host.session("good", prelude=False)
    bad = host.session("bad", prelude=False)
    h_good = host.submit(good, _spin(2000))
    h_bad = host.submit(bad, "(error \"tenant bug\")")
    host.run_until_idle(max_ticks=10_000)
    assert h_bad.state is HandleState.FAILED
    assert h_good.result() == 2000


def test_lifetime_exhaustion_is_contained_as_session_fault():
    host = Host(quantum=100)
    doomed = host.session("doomed", prelude=False, max_steps=150)
    good = host.session("good", prelude=False)
    h_doomed = host.submit(doomed, _spin(5000))
    h_good = host.submit(good, _spin(2000))
    host.run_until_idle(max_ticks=10_000)
    assert isinstance(h_doomed.exception(), StepBudgetExceeded)
    assert host.metrics.session_faults >= 1
    assert h_good.result() == 2000


# -- deadlines under the host --------------------------------------------


@pytest.mark.parametrize("engine", ENGINES)
def test_deadline_expiry_mid_pcall(engine):
    """A wall-clock deadline expiring while the tree is suspended
    mid-pcall kills only that request; the session and its siblings
    keep serving correct results."""
    host = Host(quantum=50)
    victim = _session(host, "victim", engine, quantum=4)
    victim.run(LOOP)
    victim.load_paper_example("sum-of-products")
    sibling = _session(host, "sibling", engine, quantum=4)
    sibling.load_paper_example("sum-of-products")
    # An unbounded loop *inside* a pcall branch: the deadline fires
    # while the other branch sits suspended in the fork.
    doomed = host.submit(victim, "(pcall + (loop 0) 1)", deadline=0.03)
    fine = host.submit(sibling, "(sum-of-products '(1 2 3) '(4 0 6))")
    host.run_until_idle(max_ticks=1_000_000)
    assert isinstance(doomed.exception(), DeadlineExceeded)
    assert doomed.steps > 0  # it genuinely ran before expiring
    assert fine.result() == 6
    # The victim session itself is not corrupted:
    assert victim.eval("(sum-of-products '(1 2 3) '(4 0 6))") == 6


# -- backpressure ---------------------------------------------------------


def test_host_wide_saturation():
    host = Host(max_pending=2)
    a = host.session("a", prelude=False)
    b = host.session("b", prelude=False)
    host.submit(a, "(+ 1 1)")
    host.submit(b, "(+ 2 2)")
    with pytest.raises(HostSaturated):
        host.submit(a, "(+ 3 3)")
    assert host.metrics.saturations == 1
    host.run_until_idle(max_ticks=1000)
    host.submit(a, "(+ 3 3)")  # capacity restored after draining


def test_per_session_saturation_counted_by_host():
    host = Host()
    a = host.session("a", prelude=False, max_pending=1)
    host.submit(a, "(+ 1 1)")
    with pytest.raises(HostSaturated):
        host.submit(a, "(+ 2 2)")
    assert host.metrics.saturations == 1
    assert a.metrics.saturations == 1


# -- the differential matrix ----------------------------------------------


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("task_policy", ["round-robin", "serial", "random"])
@pytest.mark.parametrize("quantum", [1, 4, 16])
def test_step_budget_enforcement_is_engine_invariant(engine, task_policy, quantum):
    """Zero divergence gate: a per-request step budget is enforced at
    *exactly* the configured step count — same count, same exception —
    and a zero wall-clock deadline runs *zero* steps, whatever the
    engine, task policy or machine quantum.  The session serves the
    next request after both misses."""
    session = make_session(engine, policy=task_policy, quantum=quantum)
    session.run(LOOP)
    handle = session.submit("(loop 0)", max_steps=333)
    while not handle.done():
        session.pump(100)
    assert isinstance(handle.exception(), StepBudgetExceeded)
    assert handle.steps == 333
    instant = session.submit("(loop 0)", deadline=0.0)
    session.pump(1 << 20)
    assert isinstance(instant.exception(), DeadlineExceeded)
    assert instant.steps == 0
    assert session.eval("(+ 40 2)") == 42


@pytest.mark.parametrize("engine", ENGINES)
def test_doomed_session_does_not_skew_siblings(engine):
    """One session burning its budget in a hot loop must not change
    what any other session computes (engine × policy acceptance)."""
    for policy in HOST_POLICIES:
        host = Host(policy=policy, quantum=100)
        doomed_sess = _session(host, f"doomed-{policy}", engine, prelude=False)
        doomed_sess.run(LOOP)
        doomed = host.submit(doomed_sess, "(loop 0)", max_steps=5_000)
        others = [
            (host.submit(_session(host, f"w{k}-{policy}", engine, prelude=False),
                         _spin(1000)), 1000)
            for k in range(3)
        ]
        host.run_until_idle(max_ticks=10_000)
        assert isinstance(doomed.exception(), StepBudgetExceeded)
        assert doomed.steps == 5_000
        for handle, want in others:
            assert handle.result() == want


def test_host_stats_rollup():
    host = Host(quantum=100)
    a = host.session("a", prelude=False)
    host.submit(a, "(+ 1 2)")
    host.run_until_idle(max_ticks=100)
    stats = host.stats
    assert stats["host.sessions"] == 1
    assert stats["host.submits"] == 1
    assert stats["host.sessions.evals_completed"] == 1
    assert stats["host.steps_served"] == a.metrics.steps_served


# -- fault accounting and observability -----------------------------------


def test_faulted_tick_keeps_partial_steps_visible():
    """A session fault mid-pump used to zero that tick's spend, losing
    the pre-fault steps from host.steps_served.  The pump accounts every
    executed step before the fault propagates, so the host can recover
    the partial spend — conservation must hold."""
    host = Host(quantum=512)
    doomed = host.session("doomed", prelude=False, max_steps=150)
    good = host.session("good", prelude=False)
    h_doomed = host.submit(doomed, _spin(5000))
    h_good = host.submit(good, _spin(200))
    host.run_until_idle(max_ticks=50)
    assert host.metrics.session_faults == 1
    assert isinstance(h_doomed.exception(), StepBudgetExceeded)
    assert h_good.result() == 200
    # Every step any session executed is in the host's ledger.
    assert doomed.metrics.steps_served == 150  # ran right up to the cap
    assert host.metrics.steps_served == sum(
        s.metrics.steps_served for s in host
    )


def test_faulted_tick_decrements_deficit_bank():
    """Under the deficit policy a faulted pump must still consume the
    credit it actually spent, not bank the whole budget as if the tick
    were free."""
    host = Host(policy="deficit", quantum=100)
    doomed = host.session("doomed", prelude=False, max_steps=150)
    host.submit(doomed, _spin(5000))
    host.tick()  # spends the full 100-step credit, no fault yet
    assert host._deficit["doomed"] == 0
    host.tick()  # faults after the remaining 50 lifetime steps
    assert host.metrics.session_faults == 1
    assert doomed.metrics.steps_served == 150
    assert host.metrics.steps_served == 150
    # credit 100, spent 50 before the fault: 50 banked, not 100.
    assert host._deficit["doomed"] == 50


def test_run_until_idle_terminates_on_mid_request_fault():
    """Regression: run_until_idle (no max_ticks safety net) must not
    spin forever when a session faults mid-request."""
    host = Host(quantum=64)
    doomed = host.session("doomed", prelude=False, max_steps=150)
    good = host.session("good", prelude=False)
    h_doomed = host.submit(doomed, _spin(5000))
    h_good = host.submit(good, _spin(500))
    ticks = host.run_until_idle()
    assert ticks > 0
    assert host.idle
    assert h_doomed.state is HandleState.FAILED
    assert isinstance(h_doomed.exception(), StepBudgetExceeded)
    assert h_good.result() == 500


def test_request_histograms_observe_every_terminal_state():
    host = Host(quantum=256)
    sess = host.session("a", prelude=False)
    ok = host.submit(sess, _spin(100))
    slow = host.submit(sess, _spin(10_000), max_steps=50)  # budget miss
    queued = host.submit(sess, _spin(100))
    queued.cancel()
    host.run_until_idle(max_ticks=100)
    assert ok.state is HandleState.DONE
    assert slow.state is HandleState.FAILED
    assert queued.state is HandleState.CANCELLED
    # done + failed + cancelled all land in the distributions.
    assert sess.metrics.latency_us.count == 3
    assert sess.metrics.steps_per_request.count == 3
    assert sess.metrics.steps_per_request.max >= 100


def test_host_histogram_rollup():
    host = Host(quantum=128)
    sess = host.session("a", prelude=False)
    host.submit(sess, _spin(300))
    host.run_until_idle(max_ticks=50)
    assert host.metrics.tick_us.count == host.metrics.ticks
    assert host.metrics.steps_per_tick.count == host.metrics.ticks
    hists = host.histograms()
    assert "host.tick_us" in hists
    assert "host.steps_per_tick" in hists
    assert "session.a.latency_us" in hists
    assert "session.a.steps_per_request" in hists
    assert hists["session.a.latency_us"]["count"] == 1
    # Stats stay pure-int (the host rollup sums them); distributions
    # live only in histograms().
    assert all(isinstance(v, int) for v in host.stats.values())
    assert all(isinstance(v, int) for v in sess.stats.values())
