"""Shard-failure transparency under live gateway load.

The contract (``docs/SERVING.md``): every frame the gateway *accepts*
gets a terminal answer — a recovered result when the killed shard's
session has a replay point, a structured error with ``recovered:
false`` when it has none — and never a hang.  The matrix below
SIGKILLs a shard at three points in a request's life (pre-dispatch,
mid-execute, post-result-pre-reply), for a session with a checkpoint
and a logged request after it, and for a session with nothing stored
(its first request, rebuilt from its creation kwargs), and checks the
answer, the ``recovered`` field, and the ``gateway.recovery.*``
counters every time.  A session with no replay point — its last
snapshot failed — gets the ``recovered: false`` answer.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import os
import signal
import time

import pytest

from repro.cluster import Cluster
from repro.cluster.shard import ShardRuntime
from repro.errors import GatewayRequestError, SnapshotError
from repro.gateway import Gateway, GatewayClient
from repro.host.session import Session

from .conftest import run

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="shard chaos tests rely on fork start method",
)

# Long enough to SIGKILL the shard mid-evaluation with a wide margin,
# short enough that the replay after recovery stays test-sized.
_LONG_SOURCE = (
    "(define (loop n) (if (= n 0) 42 (loop (- n 1)))) (loop 800000)"
)


def _suicidal_shard_main(flag_path: str):
    """A ``shard_main`` that SIGKILLs itself *after* computing a
    submit whose source carries the die marker but *before* sending
    the reply — exactly the post-result-pre-reply window.  The flag
    file makes the death one-shot, so the replay on the respawned
    worker survives."""

    def main(index, commands, replies):
        runtime = ShardRuntime(index)
        while True:
            op, payload = commands.recv()
            if op == "shutdown":
                return
            try:
                reply = runtime.handle(op, payload)
            except BaseException as exc:  # noqa: BLE001 - mirror shard_main
                replies.send(("err", f"{type(exc).__name__}: {exc}"))
                continue
            if (
                op == "submit"
                and "die-post-result" in (payload.get("source") or "")
                and not os.path.exists(flag_path)
            ):
                with open(flag_path, "w"):
                    pass
                os.kill(os.getpid(), signal.SIGKILL)
            replies.send(("ok", reply))

    return main


async def _followers(client, sid):
    """Frames accepted while the doomed request is outstanding: one on
    the victim session, one on another."""
    return [
        await client.submit(sid, "(+ 2 3)"),
        await client.submit("bystander", "(+ 1 1)"),
    ]


@pytest.mark.parametrize("snapshotted", [True, False], ids=["snapshot", "no-snapshot"])
@pytest.mark.parametrize("kill_point", ["pre-dispatch", "mid-execute", "post-result"])
def test_shard_death_transparency(kill_point, snapshotted, tmp_path, monkeypatch):
    if kill_point == "post-result":
        # _ProcessShard._spawn targets the `shard_main` name in the
        # cluster module; patching it before the fork means every
        # worker child runs the suicidal loop.
        monkeypatch.setattr(
            "repro.cluster.cluster.shard_main",
            _suicidal_shard_main(str(tmp_path / "died-once")),
        )

    async def scenario():
        cluster = Cluster(workers=2, session_defaults={"prelude": False})
        try:
            async with Gateway(cluster) as gw:
                client = await GatewayClient.connect(gw.host, gw.port)
                try:
                    await _one_case(cluster, gw, client)
                finally:
                    await client.close()
        finally:
            cluster.close()

    async def _one_case(cluster, gw, client):
        sid = "victim"
        if snapshotted:
            # A checkpoint, then a request logged after it: recovery
            # restores the one and replays the other.
            assert await client.eval(sid, "(define seed 33) seed", timeout=60) == "33"
            assert cluster.snapshot_now(sid) is not None
            assert await client.eval(sid, "(set! seed (+ seed 1)) seed", timeout=60) == "34"
            assert len(cluster.store.log(sid)) == 1
        pid = cluster.shards[cluster.shard_for(sid)].process.pid

        if kill_point == "pre-dispatch":
            os.kill(pid, signal.SIGKILL)
            time.sleep(0.05)
            source = "(* seed 2)" if snapshotted else "(+ 1 1)"
            expected = "68" if snapshotted else "2"
            rid = await client.submit(sid, source)
            followers = await _followers(client, sid)
        elif kill_point == "mid-execute":
            expected = "42"
            rid = await client.submit(sid, _LONG_SOURCE)
            deadline = time.monotonic() + 30.0
            while (await client.poll(rid))["state"] == "pending":
                assert time.monotonic() < deadline, "request never started"
                await asyncio.sleep(0.002)
            followers = await _followers(client, sid)
            os.kill(pid, signal.SIGKILL)
        else:  # post-result: the worker kills itself pre-reply
            expected = "42"
            rid = await client.submit(sid, '(display "die-post-result") (+ 40 2)')
            followers = await _followers(client, sid)

        # The accepted frame always reaches a terminal answer — never
        # a hang (the timeout below is the no-hang gate).
        assert await client.result(rid, timeout=120) == expected
        terminal = await client.poll(rid)
        assert terminal.get("recovered") is True
        stats = await client.stats()
        assert stats["gateway.recovery.replays"] == 1
        assert stats["gateway.recovery.failures"] == 0
        assert stats["cluster.recoveries"] == 1
        assert stats["cluster.replayed"] == (1 if snapshotted else 0)
        assert stats["cluster.respawns"] == 1
        assert stats["gateway.protocol_errors"] == 0

        # The frames accepted behind the doomed one are answered too,
        # and the cluster keeps serving the same session.
        answers = [await client.result(f, timeout=60) for f in followers]
        assert answers == ["5", "2"]

    run(scenario())


def test_shard_death_with_no_replay_point_answers_recovered_false(monkeypatch):
    """A session whose last snapshot failed has no replay point: after
    its shard dies, the gateway still answers the frame, with the
    ``ShardDied`` error and ``recovered: false``, and counts it."""
    snapshot = Session.snapshot

    def refusing(session):
        if session.name == "victim":
            raise SnapshotError("refused")
        return snapshot(session)

    # Patched before the fork, so the workers refuse too.
    monkeypatch.setattr(Session, "snapshot", refusing)

    async def scenario():
        cluster = Cluster(workers=1, session_defaults={"prelude": False})
        try:
            async with Gateway(cluster) as gw:
                client = await GatewayClient.connect(gw.host, gw.port)
                try:
                    assert await client.eval("victim", "(define n 1) n", timeout=60) == "1"
                    with pytest.raises(SnapshotError):
                        cluster.snapshot_now("victim")
                    os.kill(cluster.shards[0].process.pid, signal.SIGKILL)
                    time.sleep(0.05)
                    rid = await client.submit("victim", "n")
                    with pytest.raises(GatewayRequestError, match="ShardDied"):
                        await client.result(rid, timeout=120)
                    assert (await client.poll(rid)).get("recovered") is False
                    stats = await client.stats()
                    assert stats["gateway.recovery.failures"] == 1
                    assert stats["gateway.recovery.replays"] == 0
                    assert stats["cluster.respawns"] == 1
                    # Its state is gone; the next request starts it afresh.
                    assert await client.eval("victim", "(define n 5) n", timeout=60) == "5"
                finally:
                    await client.close()
        finally:
            cluster.close()

    run(scenario())


def test_disconnect_cancels_queued_cluster_work():
    """A client that vanishes with inflight requests against a Cluster
    backend must not leak shard-side work: its queued requests are
    cancelled on the cluster front (regression: the cluster's stats
    show the cancellations and the queue drains)."""

    async def main():
        cluster = Cluster(workers=1, session_defaults={"prelude": False})
        try:
            async with Gateway(cluster) as gw:
                client = await GatewayClient.connect(gw.host, gw.port)
                # The first request occupies the one worker; the next
                # two sit queued (still cancellable) when we leave.
                await client.submit(
                    "busy",
                    "(define (loop n) (if (= n 0) 0 (loop (- n 1)))) (loop 300000)",
                )
                await client.submit("q1", "(+ 1 1)")
                await client.submit("q2", "(+ 2 2)")
                await client.close()  # abandon all three inflight

                # The queue drains completely once the running request
                # finishes — nothing abandoned keeps a slot.
                observer = await GatewayClient.connect(gw.host, gw.port)
                try:
                    deadline = time.monotonic() + 30.0
                    stats = await observer.stats()
                    while stats["cluster.queue_depth"] and time.monotonic() < deadline:
                        await asyncio.sleep(0.01)
                        stats = await observer.stats()
                finally:
                    await observer.close()
                assert stats["cluster.queue_depth"] == 0
                assert stats["cluster.cancellations"] == 2
                assert stats["cluster.completed"] == 1
                assert gw.stats["gateway.disconnect_cancels"] == 3
        finally:
            cluster.close()

    run(main())
