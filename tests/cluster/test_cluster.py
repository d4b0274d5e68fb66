"""The cluster tier: inline and multi-process serving, session
mobility (evict / rehydrate / migrate), worker-death recovery, and
``cluster.*`` metrics.

The multi-process tests are kept deliberately small (a handful of
requests each) so the suite stays fast; the snapshot codec underneath
has its own exhaustive matrix in ``tests/snapshot/``.
"""

from __future__ import annotations

import os
import signal
import time

import pytest

from repro.cluster import Cluster, DirectoryStore, MemoryStore
from repro.errors import ClusterError, ShardDied


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
        assert stats["cluster.snapshots"] == 1
        assert stats["cluster.shards"] == 1
        hists = c.histograms()
        assert hists["cluster.snapshot_bytes"]["count"] == 1
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


def test_mp_sigkill_without_snapshot_raises():
    with Cluster(workers=1) as c:
        os.kill(c.shards[0].process.pid, signal.SIGKILL)
        time.sleep(0.1)
        # First-ever request for this session: nothing to replay.
        with pytest.raises(ShardDied):
            c.submit("newborn", "(+ 1 1)")
        # The worker was still respawned; the cluster keeps serving.
        assert c.submit("newborn", "(+ 1 1)").value == "2"


def test_close_force_resolves_wedged_inflight_handle():
    """``close()`` must leave no handle non-terminal: when the
    dispatcher's in-flight shard round-trip outlives ``join_timeout``,
    the handle is force-resolved CANCELLED instead of dangling."""
    from repro.errors import SessionCancelled
    from repro.host.handle import HandleState

    c = Cluster(workers=1)
    # Unbounded tail-recursive loop: the shard never replies.
    handle = c.submit_async("wedged", "(define (f) (f)) (f)")
    deadline = time.monotonic() + 10.0
    while handle.state is not HandleState.RUNNING:
        assert time.monotonic() < deadline, "request never dispatched"
        time.sleep(0.005)
    c.close(join_timeout=0.2)
    assert handle.done()
    assert handle.state is HandleState.CANCELLED
    with pytest.raises(SessionCancelled):
        handle.result()


def test_close_cancels_queued_handles():
    """Queued (never dispatched) handles also reach a terminal state."""
    from repro.host.handle import HandleState

    c = Cluster(workers=0)
    slow = c.submit_async(
        "busy", "(define (loop n) (if (= n 0) 0 (loop (- n 1)))) (loop 300000)"
    )
    queued = c.submit_async("later", "(+ 1 1)")
    c.close(join_timeout=5.0)
    assert queued.done()
    assert queued.state is HandleState.CANCELLED
    assert slow.done()  # finished or abandoned — terminal either way


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
