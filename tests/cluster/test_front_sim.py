"""A seeded simulation of the cluster front.

Each seed runs a random interleaving of submit, cancel, clock advance
past queued deadlines, migrate, checkpoint, tick and shard death over
four sessions on ``Cluster(workers=0, clock=ManualClock())``.  Every
counted request bumps its session's counter, so the values the front
acknowledges show whether any request ran twice, ran out of order or
was lost.  Other requests bump a second counter and are cut off by
their step budget partway through a loop, so a replay that does not
stop where the original did shows too.  Sessions hold state of
different sizes and requests vary in length, so their logs reach their
checkpoints at different times, and a death rebuilds each session from
its checkpoint plus several logged requests.

After every step no handle has heard more than one terminal state.  At
quiescence every handle has exactly one, the front's queue is empty,
each accepted request is counted once
(``submits == completed + failed + cancellations``), and each session's
acknowledged counter values read 1..k in submit order.  A request
fails only by the simulation's own faults: a deadline, its step budget,
or a second shard death under its recovery — never for want of a
replay point.
"""

from __future__ import annotations

import random

import pytest

from repro.clock import ManualClock
from repro.cluster import Cluster, ShardRuntime
from repro.cluster.cluster import _InlineShard
from repro.errors import ClusterEvalError, DeadlineExceeded, ShardDied
from repro.host.handle import HandleState

SESSIONS = ("a", "b", "c", "d")
#: Per session: what it defines besides its counters, so its blob, and
#: the log that outgrows it, differ in size.
BALLAST = {
    "a": "",
    "b": "(define pad '(1 2 3 4 5 6 7 8))",
    "c": "(define (twice x) (* 2 x))",
    "d": "(define pad '(" + " ".join(str(i) for i in range(120)) + "))",
}
BUMP = "(set! n (+ n 1)) n"
#: Cut off by its step budget partway through the loop.
CUT = "(let loop ((i 0)) (if (< i 40) (begin (set! m (+ m 1)) (loop (+ i 1))) m))"
STEPS = 40


class _MortalShard(_InlineShard):
    """An inline shard that can die.  ``doom`` kills it at its next
    reply, before or after running the command; a dead shard answers
    every command with :class:`ShardDied` until ``respawn``, which
    forgets its sessions, as a fresh worker process would."""

    def __init__(self, index: int):
        super().__init__(index)
        self.doom: str | None = None  # None | "before" | "after" running
        self.dead = False

    def recv(self):
        if self.doom is not None:
            if self.doom == "after":
                super().recv()
            self.doom, self.dead = None, True
        if self.dead:
            raise ShardDied("shard 0 killed by the simulation")
        return super().recv()

    def respawn(self) -> None:
        self.runtime = ShardRuntime(0)
        self.dead = False


def _simulate(seed: int) -> dict[str, int]:
    rng = random.Random(seed)
    clock = ManualClock()
    c = Cluster(workers=0, clock=clock, session_defaults={"prelude": False})
    shard = c.shards[0] = _MortalShard(0)
    for sid in SESSIONS:
        c.submit(sid, f"(define n 0) (define m 0) {BALLAST[sid]}")
    submits0 = c.metrics.submits
    handles: list[tuple[str, object]] = []  # (session, handle), submit order
    cuts: list[object] = []
    terminal: dict[int, list[HandleState]] = {}

    def submit() -> None:
        sid = rng.choice(SESSIONS)
        # Whole seconds, like the clock steps: a request either expires
        # while queued or has at least a second to run.
        deadline = rng.choice((None, None, 1.0, 2.0, 3.0))
        if rng.random() < 0.2:
            handle = c.submit_async(sid, CUT, max_steps=rng.randrange(10, 200), deadline=deadline)
            cuts.append(handle)
        else:
            source = f"{BUMP} ; {'x' * rng.randrange(60)}"
            handle = c.submit_async(sid, source, deadline=deadline)
            handles.append((sid, handle))
        heard = terminal.setdefault(handle.uid, [])
        handle.subscribe(
            lambda state, text: state is not None and state.terminal and heard.append(state)
        )

    def cancel() -> None:
        if handles:
            _, handle = rng.choice(handles)
            was = handle.state
            assert handle.cancel() is (was is HandleState.PENDING)

    def move(op) -> None:
        try:
            op(rng.choice(SESSIONS))
        except ShardDied:
            pass  # a mobility op on a dead shard raises; the next submit recovers

    def kill() -> None:
        if not shard.dead:
            shard.doom = rng.choice(("before", "after"))

    actions = (
        (submit, 5),
        (cancel, 1),
        (lambda: clock.advance(rng.choice((0.0, 1.0, 2.0))), 1),
        (lambda: move(lambda sid: c.migrate(sid, 0)), 1),
        (lambda: move(c.snapshot_now), 1),
        (c.tick, 4),
        (kill, 2),
    )
    moves = [action for action, weight in actions for _ in range(weight)]
    for _ in range(STEPS):
        rng.choice(moves)()
        assert all(len(heard) <= 1 for heard in terminal.values())
    while not c.idle:
        c.tick()

    for handle in [h for _, h in handles] + cuts:
        assert handle.done()
        assert terminal[handle.uid] == [handle.state]
        if handle.state is HandleState.FAILED:
            # Only the simulation's faults fail a request: no session
            # ever loses its counter.
            exc = handle.exception()
            if isinstance(exc, ShardDied):
                assert "killed by the simulation" in str(exc), exc
            elif isinstance(exc, ClusterEvalError):
                # A recovery sent after expiry, or a budget cut.
                assert exc.error_type in ("DeadlineExceeded", "StepBudgetExceeded"), exc
            else:
                assert isinstance(exc, DeadlineExceeded), exc
    stats = c.stats
    assert stats["cluster.queue_depth"] == 0
    outcomes = stats["cluster.completed"] + stats["cluster.failed"] + stats["cluster.cancellations"]
    assert stats["cluster.submits"] == outcomes
    assert stats["cluster.submits"] - submits0 == len(handles) + len(cuts)
    for sid in SESSIONS:
        acked = [
            handle.result()
            for owner, handle in handles
            if owner == sid and handle.state is HandleState.DONE
        ]
        assert acked == [str(k) for k in range(1, len(acked) + 1)], sid
    c.close()
    return stats


@pytest.mark.parametrize("block", range(4))
def test_front_simulation(block, monkeypatch):
    # Shard timings read zero, so checkpoints follow the size side of
    # the rule alone and a seed runs the same way on any machine.
    monkeypatch.setattr("repro.cluster.shard.perf_counter", lambda: 0.0)
    totals: dict[str, int] = {}
    for seed in range(block * 50, (block + 1) * 50):
        try:
            stats = _simulate(seed)
        except AssertionError as exc:
            raise AssertionError(f"seed {seed}: {exc}") from exc
        for key in ("cluster.recoveries", "cluster.replayed", "cluster.snapshots"):
            totals[key] = totals.get(key, 0) + stats[key]
    # Each block rebuilds sessions from several logged requests after
    # deaths, and checkpoints along the way.
    assert totals["cluster.replayed"] > 2 * totals["cluster.recoveries"] > 0, totals
    assert totals["cluster.snapshots"] > 0, totals
