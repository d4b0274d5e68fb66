"""A seeded simulation of the cluster front.

Each seed runs a random interleaving of submit, cancel, clock advance
past queued deadlines, migrate, tick and shard death over four sessions
on ``Cluster(workers=0, clock=ManualClock())``.  Every request bumps its
session's counter, so the values the front acknowledges show whether
any request ran twice, ran out of order or was lost.

After every step no handle has heard more than one terminal state.  At
quiescence every handle has exactly one, the front's queue is empty,
each accepted request is counted once
(``submits == completed + failed + cancellations``), and each session's
acknowledged counter values read 1..k in submit order.  A request
fails only by the simulation's own faults: a deadline or a shard death.
"""

from __future__ import annotations

import random

import pytest

from repro.clock import ManualClock
from repro.cluster import Cluster, ShardRuntime
from repro.cluster.cluster import _InlineShard
from repro.errors import DeadlineExceeded, ShardDied
from repro.host.handle import HandleState

SESSIONS = ("a", "b", "c", "d")
BUMP = "(set! n (+ n 1)) n"
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


def _simulate(seed: int) -> None:
    rng = random.Random(seed)
    clock = ManualClock()
    c = Cluster(workers=0, clock=clock, session_defaults={"prelude": False})
    shard = c.shards[0] = _MortalShard(0)
    for sid in SESSIONS:
        c.submit(sid, "(define n 0)")
    submits0 = c.metrics.submits
    handles: list[tuple[str, object]] = []  # (session, handle), submit order
    terminal: dict[int, list[HandleState]] = {}

    def submit() -> None:
        sid = rng.choice(SESSIONS)
        # Whole seconds, like the clock steps: a request either expires
        # while queued or has at least a second to run.
        deadline = rng.choice((None, None, 1.0, 2.0, 3.0))
        handle = c.submit_async(sid, BUMP, deadline=deadline)
        heard = terminal.setdefault(handle.uid, [])
        handle.subscribe(
            lambda state, text: state is not None and state.terminal and heard.append(state)
        )
        handles.append((sid, handle))

    def cancel() -> None:
        if handles:
            _, handle = rng.choice(handles)
            was = handle.state
            assert handle.cancel() is (was is HandleState.PENDING)

    def migrate() -> None:
        try:
            c.migrate(rng.choice(SESSIONS), 0)
        except ShardDied:
            pass  # a mobility op on a dead shard raises; the next submit recovers

    def kill() -> None:
        if not shard.dead:
            shard.doom = rng.choice(("before", "after"))

    actions = (
        (submit, 5),
        (cancel, 1),
        (lambda: clock.advance(rng.choice((0.0, 1.0, 2.0))), 1),
        (migrate, 1),
        (c.tick, 4),
        (kill, 1),
    )
    moves = [action for action, weight in actions for _ in range(weight)]
    for _ in range(STEPS):
        rng.choice(moves)()
        assert all(len(heard) <= 1 for heard in terminal.values())
    while not c.idle:
        c.tick()

    for _, handle in handles:
        assert handle.done()
        assert terminal[handle.uid] == [handle.state]
        if handle.state is HandleState.FAILED:
            # Only the simulation's faults fail a request: no session
            # ever loses its counter.
            exc = handle.exception()
            assert isinstance(exc, (DeadlineExceeded, ShardDied)) or (
                exc.error_type == "DeadlineExceeded"  # a replay sent after expiry
            ), exc
    stats = c.stats
    assert stats["cluster.queue_depth"] == 0
    outcomes = stats["cluster.completed"] + stats["cluster.failed"] + stats["cluster.cancellations"]
    assert stats["cluster.submits"] == outcomes
    assert stats["cluster.submits"] - submits0 == len(handles)
    for sid in SESSIONS:
        acked = [
            handle.result()
            for owner, handle in handles
            if owner == sid and handle.state is HandleState.DONE
        ]
        assert acked == [str(k) for k in range(1, len(acked) + 1)], sid
    c.close()


@pytest.mark.parametrize("block", range(4))
def test_front_simulation(block):
    for seed in range(block * 50, (block + 1) * 50):
        try:
            _simulate(seed)
        except AssertionError as exc:
            raise AssertionError(f"seed {seed}: {exc}") from exc
