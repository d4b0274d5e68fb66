"""The cluster tier: inline and multi-process serving, session
mobility (evict / rehydrate / migrate), worker-death recovery, and
``cluster.*`` metrics.

The multi-process tests are kept deliberately small (a handful of
requests each) so the suite stays fast; the snapshot codec underneath
has its own exhaustive matrix in ``tests/snapshot/``.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import signal
import time

import pytest

from repro import Session
from repro.cluster import Cluster, DirectoryStore, MemoryStore
from repro.datum import intern
from repro.errors import ClusterError, SessionCancelled, ShardDied, SnapshotError
from repro.host.handle import HandleState


# -- inline mode (workers=0, no multiprocessing) --------------------------


def test_inline_basic_serving():
    with Cluster(workers=0) as c:
        r = c.submit("s1", "(define (dbl n) (* 2 n)) (display (dbl 21))")
        assert r.ok
        assert r.output == "42"
        assert r.shard == 0
        # State persists across requests to the same session.
        assert c.submit("s1", "(dbl 100)").value == "200"


def test_inline_sessions_are_isolated():
    with Cluster(workers=0) as c:
        c.submit("alice", "(define secret 1)")
        r = c.submit("bob", "secret")
        assert not r.ok
        assert "secret" in (r.error or "")
        assert r.error_type == "UnboundVariableError"


def test_inline_error_in_band():
    with Cluster(workers=0) as c:
        r = c.submit("s", "(car 5)")
        assert r.status == "error"
        assert r.error_type == "WrongTypeError"
        # The session survives its own evaluation errors.
        assert c.submit("s", "(+ 1 2)").value == "3"


def test_inline_evict_and_rehydrate():
    with Cluster(workers=0) as c:
        c.submit("s", "(define x 7)")
        assert c.evict("s") is True
        assert c.evict("s") is False  # already out
        r = c.submit("s", "(* x 6)")  # rehydrated from the store
        assert r.value == "42"
        assert c.metrics.restores >= 1
        assert c.metrics.evictions == 1


def test_inline_store_roundtrip_through_directory(tmp_path):
    store = DirectoryStore(str(tmp_path))
    with Cluster(workers=0, store=store) as c:
        c.submit("durable", "(define n 99)")
    # A brand-new cluster over the same directory resumes the session.
    with Cluster(workers=0, store=DirectoryStore(str(tmp_path))) as c2:
        assert "durable" in c2.sessions()
        assert c2.submit("durable", "n").value == "99"


def test_blobs_carry_only_what_the_session_changed():
    """A blob leaves out the prelude every shard boots, so a
    counter session's first blob is small; a walk of the whole prelude
    would be ~17 KB.  A session holding a long list still round-trips."""
    with Cluster(workers=0) as c:
        c.submit("counter", "(define c 0)")
        assert len(c.snapshot_now("counter")) < 2048
        c.submit(
            "big",
            "(define big (let loop ((i 0) (acc '()))"
            " (if (= i 2000) acc (loop (+ i 1) (cons i acc)))))",
        )
        assert c.evict("big") is True
        assert c.submit("big", "(list (length big) (car big) (list-ref big 1999))").value == (
            "(2000 1999 0)"
        )


def test_evicted_code_over_quoted_structure_answers():
    with Cluster(workers=0) as c:
        c.submit("s", "(define (g) '(a b))")
        assert c.evict("s") is True
        assert c.submit("s", "(g)").value == "(a b)"


def _refuse_snapshots_when_flagged(monkeypatch):
    """Make ``Session.snapshot`` fail for a session that binds
    ``refuse-snapshot`` to #t; every other session snapshots."""
    snapshot = Session.snapshot

    def refusing(session):
        cell = session.globals.cells.get(intern("refuse-snapshot"))
        if cell is not None and cell.value is True:
            raise SnapshotError(f"session {session.name}: refused")
        return snapshot(session)

    monkeypatch.setattr(Session, "snapshot", refusing)


def test_failed_snapshot_keeps_the_session_and_drops_the_stale_blob(monkeypatch):
    _refuse_snapshots_when_flagged(monkeypatch)
    with Cluster(workers=0) as c:
        c.submit("s", "(define n 1) (define refuse-snapshot #f)")
        c.submit("s", "(set! refuse-snapshot #t) (set! n 2) n")
        assert c.store.get("s") is None and len(c.store.log("s")) == 2
        # The session cannot be checkpointed, so its log could only
        # grow: the stored state goes and it has no replay point.
        for move in (c.snapshot_now, c.evict, lambda sid: c.migrate(sid, 0)):
            with pytest.raises(SnapshotError):
                move("s")
            assert c.store.get("s") is None and c.store.log("s") == []
        assert c.metrics.evictions == c.metrics.migrations == 0
        # Still resident; every submit asks for a checkpoint, and the
        # answer is acknowledged though the checkpoint fails.
        assert c.submit("s", "n").value == "2"
        assert c.store.ids() == []
        # A snapshot that succeeds again restores the replay point.
        c.submit("s", "(set! refuse-snapshot #f)")
        assert c.store.get("s") is not None and c.store.log("s") == []
        c.submit("s", "(set! n 3)")
        assert len(c.store.log("s")) == 1  # logging again
        assert c.evict("s") is True
        assert c.submit("s", "n").value == "3"


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the worker must inherit the patched Session.snapshot",
)
def test_shard_death_after_a_failed_snapshot_replays_nothing_stale(monkeypatch):
    _refuse_snapshots_when_flagged(monkeypatch)
    with Cluster(workers=1) as c:
        c.submit("s", "(define n 1) (define refuse-snapshot #f)")
        c.snapshot_now("s")
        assert c.submit("s", "(set! refuse-snapshot #t) (set! n 2) n").value == "2"
        with pytest.raises(SnapshotError):
            c.snapshot_now("s")
        os.kill(c.shards[0].process.pid, signal.SIGKILL)
        time.sleep(0.1)
        # The stored checkpoint said n = 1 and its log went with the
        # failed snapshot; answering from it would lose the
        # acknowledged write.
        with pytest.raises(ShardDied):
            c.submit("s", "n")
        # The session's state is gone, and it starts afresh.
        assert c.submit("s", "(define n 5) n").value == "5"


def test_session_defaults_apply():
    with Cluster(workers=0, session_defaults={"engine": "codegen", "quantum": 7}) as c:
        c.submit("s", "(define ok 1)")
        session = c.shards[0].runtime.host["s"]
        assert session.engine == "codegen"
        assert session.machine.quantum == 7


def test_closed_cluster_refuses():
    c = Cluster(workers=0)
    c.close()
    with pytest.raises(ClusterError):
        c.submit("s", "1")
    c.close()  # idempotent


def test_metrics_namespacing():
    with Cluster(workers=0) as c:
        c.submit("s", "(+ 1 1)")
        stats = c.stats
        assert stats["cluster.submits"] == 1
        assert stats["cluster.completed"] == 1
        assert stats["cluster.logged"] == 1
        assert stats["cluster.snapshots"] == 0
        assert stats["cluster.shards"] == 1
        hists = c.histograms()
        assert hists["cluster.snapshot_bytes"]["count"] == 0
        assert hists["cluster.request_us"]["count"] == 1


def test_cluster_obs_spans():
    from repro.obs import Recorder

    rec = Recorder()
    with Cluster(workers=0, record=rec) as c:
        c.submit("s", "(+ 1 1)")
    names = [e.name for e in rec.events]
    assert "cluster.submit" in names


# -- multi-process mode ---------------------------------------------------


@pytest.fixture
def mp_cluster():
    with Cluster(workers=2, session_defaults={"quantum": 64}) as c:
        yield c


def test_mp_serving_and_affinity(mp_cluster):
    c = mp_cluster
    r1 = c.submit("alice", "(define (f n) (+ n 1)) (f 1)")
    r2 = c.submit("bob", "(define g 5) g")
    assert r1.ok and r2.ok
    assert r1.shard == c.shard_for("alice")
    assert r2.shard == c.shard_for("bob")
    # Stickiness: the same session lands on the same shard.
    assert c.submit("alice", "(f 41)").value == "42"
    assert c.submit("alice", "(f 41)").shard == r1.shard


def test_mp_migration(mp_cluster):
    c = mp_cluster
    r = c.submit("mover", "(define x 10) x")
    source = r.shard
    target = (source + 1) % 2
    assert c.migrate("mover", target) == target
    after = c.submit("mover", "(* x 5)")
    assert after.value == "50"
    assert after.shard == target
    assert c.metrics.migrations == 1
    assert c.stats["cluster.restores"] >= 1
    # Bounce it between the two workers every request: each reply
    # carries the state so far, from the shard it was moved to.
    for hits in range(1, 5):
        target = (target + 1) % 2
        c.migrate("mover", target)
        r = c.submit("mover", "(set! x (+ x 1)) x")
        assert (r.value, r.shard) == (str(10 + hits), target)
    assert c.metrics.migrations == 5


def test_mp_sigkill_recovery(mp_cluster):
    c = mp_cluster
    r = c.submit("victim", "(define treasure 777) treasure")
    pid = c.shards[r.shard].process.pid
    os.kill(pid, signal.SIGKILL)
    time.sleep(0.1)
    # The next submit detects the death, respawns the worker, and
    # replays the session's last snapshot — state intact.
    after = c.submit("victim", "treasure")
    assert after.ok
    assert after.value == "777"
    assert after.recovered is True
    assert c.metrics.recoveries == 1
    assert c.metrics.respawns == 1


def test_mp_sigkill_without_snapshot_recovers():
    """A session never checkpointed is rebuilt from its creation
    kwargs plus its log: its first request survives a shard death, and
    so do later ones."""
    with Cluster(workers=1) as c:
        os.kill(c.shards[0].process.pid, signal.SIGKILL)
        time.sleep(0.1)
        first = c.submit("newborn", "(define n 41) (+ n 1)")
        assert (first.value, first.recovered) == ("42", True)
        assert c.store.get("newborn") is None
        os.kill(c.shards[0].process.pid, signal.SIGKILL)
        time.sleep(0.1)
        later = c.submit("newborn", "(set! n (+ n 1)) n")
        assert (later.value, later.recovered) == ("42", True)
        assert c.metrics.respawns == c.metrics.recoveries == 2
        assert c.metrics.replayed == 1


def test_close_cancels_a_wedged_worker_request():
    """A request a real worker never answers: ``close()`` returns at
    once with its handle CANCELLED, terminating the worker instead of
    waiting for it, and respawns nothing."""
    c = Cluster(workers=1, session_defaults={"prelude": False})
    handle = c.submit_async("wedged", "(define (f) (f)) (f)")
    c.tick(timeout=0)
    assert handle.state is HandleState.RUNNING
    t0 = time.monotonic()
    c.close()
    assert time.monotonic() - t0 < 5.0
    assert handle.state is HandleState.CANCELLED
    with pytest.raises(SessionCancelled):
        handle.result()
    assert c.metrics.respawns == 0


def test_request_abandoned_at_close_is_counted_once():
    """Requests outstanding or queued at ``close()`` count as one
    cancellation each and nothing else, whatever is ticked or waited on
    afterwards: submits == completed + failed + cancellations."""
    c = Cluster(workers=1, session_defaults={"prelude": False})
    sent = c.submit_async("s", "(+ 1 2)")
    queued = c.submit_async("s", "(+ 3 4)")
    c.tick(timeout=0)
    assert (sent.state, queued.state) == (HandleState.RUNNING, HandleState.PENDING)
    c.close()
    c.tick()
    assert sent.wait() and queued.wait()
    assert (sent.state, queued.state) == (HandleState.CANCELLED, HandleState.CANCELLED)
    stats = c.stats
    outcomes = [stats[f"cluster.{k}"] for k in ("completed", "failed", "cancellations")]
    assert stats["cluster.submits"] == sum(outcomes) == 2
    assert outcomes == [0, 0, 2]
    assert stats["cluster.queue_depth"] == 0
    assert c.histograms()["cluster.request_us"]["count"] == 0


def test_close_cancels_queued_handles():
    """Queued (never dispatched) handles also reach a terminal state."""
    c = Cluster(workers=0, session_defaults={"prelude": False})
    queued = [c.submit_async(sid, "(+ 1 1)") for sid in ("a", "b")]
    c.close()
    assert [h.state for h in queued] == [HandleState.CANCELLED] * 2
    assert c.stats["cluster.cancellations"] == 2


def _ids_on_both_shards(c):
    """Two session ids that hash to shards 0 and 1."""
    by_shard = {}
    for i in itertools.count():
        by_shard.setdefault(c.shard_for(f"s{i}"), f"s{i}")
        if len(by_shard) == 2:
            return by_shard[0], by_shard[1]


def test_one_tick_starts_a_request_on_every_free_shard():
    """The front overlaps shards: one tick sends each shard its request
    before it waits for any reply."""
    with Cluster(workers=2, session_defaults={"prelude": False}) as c:
        handles = [c.submit_async(sid, "(+ 1 1)") for sid in _ids_on_both_shards(c)]
        c.tick(timeout=0)
        assert all(h.state is not HandleState.PENDING for h in handles)
        assert [h.result(30.0) for h in handles] == ["2", "2"]
        assert sorted(h.cluster_result().shard for h in handles) == [0, 1]


def test_migrate_behind_an_outstanding_request_keeps_submit_order():
    """A session with requests queued behind an outstanding one moves
    shards: migrate waits for the outstanding request only, and the
    queued ones answer in submit order on the new shard."""
    with Cluster(workers=2, session_defaults={"prelude": False}) as c:
        c.submit("m", "(define n 0)")
        c.evict("m")  # resident nowhere: migrate must wait for the request itself
        source = c.shard_for("m")
        handles = [c.submit_async("m", "(set! n (+ n 1)) n") for _ in range(4)]
        c.tick(timeout=0)
        assert all(h.state is HandleState.PENDING for h in handles[1:])
        c.migrate("m", 1 - source)
        results = [h.cluster_result(30.0) for h in handles]
        assert [r.value for r in results] == ["1", "2", "3", "4"]
        assert [r.shard for r in results] == [source] + [1 - source] * 3


@pytest.mark.skipif(
    not os.path.isdir("/proc/self/fd"), reason="needs /proc fd accounting"
)
def test_respawn_does_not_leak_fds():
    """Each respawn replaces both queues (4 pipe FDs) and the process
    sentinel; without explicit closes the front leaks ~5 FDs per
    worker death.  50 respawns must leave the FD count flat."""
    with Cluster(workers=1) as c:
        shard = c.shards[0]
        shard.respawn()  # warm: first respawn may lazily create FDs
        before = len(os.listdir("/proc/self/fd"))
        for _ in range(50):
            shard.respawn()
        after = len(os.listdir("/proc/self/fd"))
        assert after - before <= 4, f"FD leak: {before} -> {after}"
        # The shard still serves after all that churn.
        assert c.submit("s", "(+ 1 1)").value == "2"


def test_mp_suspended_state_migrates():
    """A session with cross-form machine state (a parked future)
    snapshots through the store and keeps it across a migration."""
    with Cluster(workers=2) as c:
        c.submit(
            "futurist",
            "(define (loop n) (if (= n 0) 64 (loop (- n 1))))"
            "(define f (future (lambda () (loop 2000))))",
        )
        source = c.shard_for("futurist")
        c.migrate("futurist", (source + 1) % 2)
        r = c.submit("futurist", "(touch f)")
        assert r.ok
        assert r.value == "64"
