"""Shard-failure transparency under live gateway load.

The contract (``docs/SERVING.md``): every frame the gateway *accepts*
gets a terminal answer — a recovered result when the killed shard's
session had a snapshot to replay, a structured error with
``recovered: false`` when it did not — and never a hang.  The matrix
below SIGKILLs a shard at three points in a request's life
(pre-dispatch, mid-execute, post-result-pre-reply), with and without a
snapshot present, and checks the answer, the ``recovered`` field, and
the ``gateway.recovery.*`` counters every time.
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
from repro.errors import GatewayRequestError
from repro.gateway import Gateway, GatewayClient

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
            # One completed request => the store holds a snapshot.
            assert await client.eval(sid, "(define seed 33) seed", timeout=60) == "33"
        pid = cluster.shards[cluster.shard_for(sid)].process.pid

        if kill_point == "pre-dispatch":
            os.kill(pid, signal.SIGKILL)
            time.sleep(0.05)
            source = "(* seed 2)" if snapshotted else "(+ 1 1)"
            expected = "66" if snapshotted else "2"
            rid = await client.submit(sid, source)
        elif kill_point == "mid-execute":
            expected = "42"
            rid = await client.submit(sid, _LONG_SOURCE)
            deadline = time.monotonic() + 30.0
            while (await client.poll(rid))["state"] == "pending":
                assert time.monotonic() < deadline, "request never started"
                await asyncio.sleep(0.002)
            os.kill(pid, signal.SIGKILL)
        else:  # post-result: the worker kills itself pre-reply
            expected = "42"
            rid = await client.submit(sid, '(display "die-post-result") (+ 40 2)')

        # The accepted frame always reaches a terminal answer — never
        # a hang (the timeout below is the no-hang gate).
        if snapshotted:
            assert await client.result(rid, timeout=120) == expected
            terminal = await client.poll(rid)
            assert terminal.get("recovered") is True
            stats = await client.stats()
            assert stats["gateway.recovery.replays"] == 1
            assert stats["gateway.recovery.failures"] == 0
            assert stats["cluster.recoveries"] == 1
        else:
            with pytest.raises(GatewayRequestError) as info:
                await client.result(rid, timeout=120)
            assert "ShardDied" in str(info.value)
            terminal = await client.poll(rid)
            assert terminal.get("recovered") is False
            stats = await client.stats()
            assert stats["gateway.recovery.failures"] == 1
            assert stats["gateway.recovery.replays"] == 0
        assert stats["cluster.respawns"] == 1

        # The cluster keeps serving the same session after the death.
        assert await client.eval(sid, "(+ 2 3)", timeout=60) == "5"

    run(scenario())


def test_disconnect_cancels_queued_cluster_work():
    """A client that vanishes with inflight requests against a Cluster
    backend must not leak shard-side work: its queued requests are
    cancelled on the cluster front (regression: ``Cluster.stats()``
    shows the cancellations and the queue drains)."""

    async def main():
        cluster = Cluster(workers=0, session_defaults={"prelude": False})
        try:
            async with Gateway(cluster) as gw:
                client = await GatewayClient.connect(gw.host, gw.port)
                # The first request occupies the single dispatcher; the
                # next two sit queued (still cancellable) when we leave.
                await client.submit(
                    "busy",
                    "(define (loop n) (if (= n 0) 0 (loop (- n 1)))) (loop 300000)",
                )
                await client.submit("q1", "(+ 1 1)")
                await client.submit("q2", "(+ 2 2)")
                await client.close()  # abandon all three inflight

                deadline = time.monotonic() + 30.0
                while time.monotonic() < deadline:
                    if cluster.stats["cluster.cancellations"] >= 2:
                        break
                    await asyncio.sleep(0.01)
                assert cluster.stats["cluster.cancellations"] >= 2
                assert gw.stats["gateway.disconnect_cancels"] == 3

                # The queue drains completely once the running request
                # finishes — nothing abandoned keeps a slot.
                while time.monotonic() < deadline:
                    if cluster.stats["cluster.queue_depth"] == 0:
                        break
                    await asyncio.sleep(0.01)
                assert cluster.stats["cluster.queue_depth"] == 0
        finally:
            cluster.close()

    run(main())
