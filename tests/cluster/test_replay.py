"""Checkpoint plus log: the front checkpoints only when a session's log
outgrows its last blob, in bytes or in run time, or when nothing but a
blob can record the session's schedule; a shard rebuilds a session by
re-running its logged requests exactly — same steps, same outcome,
same gensym names, same races — or says it cannot (``ShardDied``).
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import signal
import time

import pytest

from repro import Session
from repro.cluster import Cluster, DirectoryStore, ShardRuntime
from repro.errors import ShardDied

BUMP = "(set! n (+ n 1)) n"
FIB = "(define (fib k) (if (< k 2) k (+ (fib (- k 1)) (fib (- k 2)))))"


@pytest.fixture
def size_only(monkeypatch):
    """Shard timings read zero, so only the size side of the checkpoint
    rule decides: how long a bump runs next to how long a blob takes to
    encode depends on the machine."""
    monkeypatch.setattr("repro.cluster.shard.perf_counter", lambda: 0.0)


def test_set_up_replies_carry_no_blob():
    with Cluster(workers=0) as c:
        for sid in ("a", "b", "c"):
            c.submit(sid, f"(define n 0) {FIB}")
        assert c.metrics.snapshots == 0
        assert c.metrics.logged == 3
        assert [len(c.store.log(sid)) for sid in ("a", "b", "c")] == [1, 1, 1]


def test_the_log_is_checkpointed_once_it_outgrows_the_blob(size_only):
    """A submit carries a checkpoint exactly when the log's encoded
    size has passed the last blob's; the checkpoint empties the log."""
    with Cluster(workers=0, session_defaults={"prelude": False}) as c:
        c.submit("s", "(define n 0)")
        c.snapshot_now("s")
        checkpoints = 0
        for i in range(1, 61):
            blob = c.store.get("s")
            due = sum(map(len, c.store.log("s"))) > len(blob)
            assert c.submit("s", BUMP).value == str(i)
            if due:
                checkpoints += 1
                assert c.store.get("s") != blob and c.store.log("s") == []
            else:
                assert c.store.get("s") == blob and c.store.log("s")
        assert checkpoints >= 3
        assert c.metrics.snapshots == checkpoints + 1


def test_a_never_checkpointed_session_checkpoints_against_a_fresh_blob(size_only):
    fresh = len(Session(prelude=False).snapshot())
    with Cluster(workers=0, session_defaults={"prelude": False}) as c:
        c.submit("s", "(define n 0)")
        logged = 0
        while c.store.get("s") is None:
            logged = sum(map(len, c.store.log("s")))
            c.submit("s", BUMP)
        # The first submit after the log passed a fresh session's blob
        # size carried the checkpoint: within one entry of it.  (The
        # fresh session's name, and so its blob size, may differ by a
        # digit from the front's.)
        assert fresh - 4 < logged < fresh + 100


def test_a_heavy_request_on_a_large_blob_session_is_checkpointed():
    """A log far smaller than its blob is checkpointed all the same once
    its requests took longer to run than the blob takes to encode and
    restore, so a rebuild never replays more time than that."""
    with Cluster(workers=0) as c:
        c.submit("s", f"(define big (make-vector 20000 7)) {FIB}")
        c.snapshot_now("s")
        blob = c.store.get("s")
        assert c.submit("s", "(fib 20)").value == "6765"
        [entry] = c.store.log("s")
        assert 100 * len(entry) < len(blob)
        c.submit("s", "(vector-ref big 0)")
        assert c.store.get("s") != blob and c.store.log("s") == []


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="SIGKILLs a forked worker"
)
def test_an_unseeded_random_session_replays_its_races():
    """With no seed, OS entropy picks a random-policy session's
    schedule, which no log entry records: its first request is
    checkpointed, so racing writes logged after it replay the same way
    on a respawned worker.  The racing request prints the same value
    whichever way the race went; only the state can tell."""
    racers = " ".join(f"(set! order (cons {i} order))" for i in range(8))
    with Cluster(workers=1, session_defaults={"policy": "random", "prelude": False}) as c:
        c.submit("s", "(define order '())")
        assert c.store.get("s") is not None and c.store.log("s") == []
        c.submit("s", f"(pcall list {racers})")
        shown = c.submit("s", "(display order)").output
        os.kill(c.shards[0].process.pid, signal.SIGKILL)
        time.sleep(0.1)
        after = c.submit("s", "order")
        assert (after.value, after.recovered) == (shown, True)
        assert c.metrics.replayed == 2


@pytest.mark.parametrize("policy", ["round-robin", "random"])
def test_a_deadline_stop_replays_as_a_step_budget(policy, monkeypatch):
    """A request stopped by its deadline after N steps leaves the blob
    that a replay with a budget of N steps leaves."""
    # Requests age at a frozen clock (the blob holds latencies); the
    # machine reads a clock that ticks a millisecond per reading.
    readings = itertools.count()
    monkeypatch.setattr("repro.host.session._monotonic", lambda: 1000.0)
    for module in ("repro.machine.scheduler", "repro.machine.step"):
        monkeypatch.setattr(f"{module}._monotonic", lambda: 1000.0 + next(readings) * 1e-3)
    create = {"session_kwargs": {"policy": policy, "seed": 3, "quantum": 8, "prelude": False}}
    defs = "(define (spin k) (if (= k 0) 0 (spin (- k 1)))) (define hits 0)"
    cut = "(pcall + (spin 100000) (begin (set! hits (+ hits 1)) (spin 100000)) (gensym))"

    original = ShardRuntime(0)
    first = original.handle("submit", {"session_id": "s", "source": defs, **create})
    stopped = original.handle("submit", {"session_id": "s", "source": cut, "deadline": 0.2})
    assert stopped["error_type"] == "DeadlineExceeded"
    assert 0 < stopped["steps"] < 100000
    blob = original.host["s"].snapshot()

    replica = ShardRuntime(0)
    payload = {"session_id": "s", "replay": [first["entry"], stopped["entry"]], **create}
    reply = replica.handle("snapshot", payload)
    assert reply["replayed"] == 2 and "replay_error" not in reply
    assert reply["snapshot"] == blob


def test_a_deadline_inside_an_engine_run_checkpoints_at_once():
    """How far an engine's fuel run got before the deadline cut it is
    not a step count, so the shard checkpoints that request instead of
    logging it."""
    with Cluster(workers=0) as c:
        c.submit("s", "(define n 0)")
        r = c.submit(
            "s",
            "(set! n 1) (engine-run (make-engine (lambda () (let loop () (loop))))"
            " 100000000 list list)",
            deadline=0.05,
        )
        assert r.error_type == "DeadlineExceeded"
        assert c.store.get("s") is not None and c.store.log("s") == []


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="SIGKILLs a forked worker"
)
def test_a_replayed_gensym_keeps_its_name():
    """A gensym bound by a logged request keeps its printed name when a
    respawned worker that has handed out gensyms of its own replays it.
    Its request printed nothing, so only the name could tell."""
    with Cluster(workers=1, session_defaults={"prelude": False}) as c:
        name = c.submit("s", "(define g (gensym)) (display g)").output
        os.kill(c.shards[0].process.pid, signal.SIGKILL)
        time.sleep(0.1)
        assert c.submit("other", "(gensym) (gensym) (gensym)").recovered
        after = c.submit("s", "g")
        assert (after.value, after.recovered) == (name, False)
        assert c.metrics.replayed == 1


def test_a_log_that_does_not_replay_answers_shard_died(tmp_path):
    """A logged request whose replay ends otherwise than logged leaves
    the session with no replay point: ShardDied, and its stored state
    goes, so its next request starts it afresh."""
    with Cluster(workers=0, store=DirectoryStore(str(tmp_path / "good"))) as c:
        c.submit("s", "(define n 1) n")
    [record] = DirectoryStore(str(tmp_path / "good")).log("s")
    assert record.endswith(b'"ok","1"]')
    tampered = DirectoryStore(str(tmp_path / "bad"))
    tampered.append("s", record.replace(b'"ok","1"]', b'"ok","2"]'))
    with Cluster(workers=0, store=tampered) as c:
        with pytest.raises(ShardDied, match="no replay point"):
            c.submit("s", "n")
        assert tampered.ids() == []
        assert c.submit("s", "(define n 5) n").value == "5"
