"""The :class:`Host`: N interpreter sessions multiplexed fairly.

A host owns a set of :class:`~repro.host.session.Session` objects and
drives them in *ticks*.  Each tick visits every session that has work
and pumps it for a bounded number of machine steps, so many tenants'
programs — including capture-heavy ones suspended mid-``pcall`` —
interleave at quantum granularity on one thread.  This is the paper's
own story one level up: just as ``pcall`` branches are tasks
multiplexed by the machine's scheduler, sessions are machines
multiplexed by the host, and in both cases suspension is cheap because
the suspended computation is a first-class tree, not a blocked OS
thread.

Two scheduling policies:

* ``round-robin`` — every busy session gets exactly ``quantum`` steps
  per tick.  Deterministic and strictly fair per tick.
* ``deficit`` — deficit round-robin: each session accrues ``quantum``
  credit per tick (capped at ``DEFICIT_CAP_TICKS`` ticks' worth) and
  may spend its full balance when visited.  A session that was idle or
  under-served catches up; sustained load converges to the same
  long-run share as round-robin.

Failure isolation: an error, deadline miss or cancellation inside one
session fails only that session's in-flight handle (see
``Session.pump``); the host additionally catches session-*fatal* errors
(a session exhausting its lifetime step budget) so one tenant's
exhaustion never stops the tick loop — it is recorded in
``host.session_faults`` and the session keeps its queue.
"""

from __future__ import annotations

import enum
import itertools
from time import perf_counter as _perf_counter
from typing import Any, Iterator

from repro.errors import HostSaturated, ReproError
from repro.host.handle import EvalHandle
from repro.host.session import SESSION_METRICS, Session
from repro.obs.metrics import COUNTER, HISTOGRAM, declare
from repro.obs.recorder import Recorder, as_recorder

__all__ = ["DEFICIT_CAP_TICKS", "HOST_METRICS", "Host", "HostPolicy"]

#: Host-level counters (``host.*`` in ``stats``); the sessions' own
#: roll up separately, under ``host.sessions.*``.
HOST_METRICS = declare(
    "host",
    [
        ("ticks", COUNTER, "scheduling rounds run"),
        ("submits", COUNTER, "evaluations accepted host-wide"),
        ("saturations", COUNTER, "submits refused by the host-wide or a per-session bound"),
        ("steps_served", COUNTER, "machine steps executed across all sessions"),
        ("session_faults", COUNTER, "pumps that surfaced a session-fatal error"),
        ("tick_us", HISTOGRAM, "wall-clock duration per tick, in µs"),
        ("steps_per_tick", HISTOGRAM, "machine steps per tick"),
    ],
)

_host_ids = itertools.count()

#: Credit cap for the deficit policy, in ticks' worth of quantum: an
#: idle session can bank at most this many ticks of service, bounding
#: the burst it can claim in one visit (and hence how far one tick's
#: latency can stretch for everyone else).
DEFICIT_CAP_TICKS = 4


class HostPolicy(enum.Enum):
    """Session scheduling policy; constructors accept the enum or its
    string value, mirroring engine/policy selectors elsewhere."""

    ROUND_ROBIN = "round-robin"
    DEFICIT = "deficit"


class Host:
    """A multi-session serving runtime over the interpreter.

    Parameters
    ----------
    policy:
        Session scheduling policy (:class:`HostPolicy` or its string
        value): ``"round-robin"`` (default) or ``"deficit"``.
    quantum:
        Machine steps granted to each busy session per tick (the
        host-level quantum; sessions' machines keep their own, finer
        task quantum).
    max_pending:
        Host-wide bound on queued + in-flight evaluations across all
        sessions; ``submit`` beyond it raises
        :class:`~repro.errors.HostSaturated` (per-session bounds are
        enforced by the sessions themselves).
    record:
        Observability: ``True`` builds a fresh
        :class:`~repro.obs.recorder.Recorder`, or pass an existing one;
        it is shared with every attached session (unless a session
        brought its own), so host ticks, session pumps, quanta and
        control events land in one stream as a span tree.
    """

    def __init__(
        self,
        *,
        policy: str | HostPolicy = HostPolicy.ROUND_ROBIN,
        quantum: int = 512,
        max_pending: int = 1024,
        name: str | None = None,
        record: "Recorder | bool | None" = None,
    ):
        self.policy = HostPolicy(policy)
        self.quantum = max(1, quantum)
        self.max_pending = max(1, max_pending)
        self.name = name if name is not None else f"host-{next(_host_ids)}"
        self.sessions: list[Session] = []
        self._by_name: dict[str, Session] = {}
        self._deficit: dict[str, int] = {}
        self.metrics = HOST_METRICS()
        self.recorder = as_recorder(record)

    # -- membership ------------------------------------------------------

    def session(self, name: str | None = None, **kwargs: Any) -> Session:
        """Create a new :class:`Session` (constructor kwargs pass
        through) and attach it to this host."""
        return self.add_session(Session(name=name, **kwargs))

    def add_session(self, session: Session) -> Session:
        """Attach an existing session; returns it.  Names must be
        unique within the host."""
        if session.name in self._by_name:
            raise ValueError(f"host {self.name}: duplicate session name {session.name!r}")
        self.sessions.append(session)
        self._by_name[session.name] = session
        self._deficit[session.name] = 0
        if self.recorder is not None and session.recorder is None:
            session.attach_recorder(self.recorder)
        return session

    def remove_session(self, session: Session | str) -> Session:
        """Detach a session (cancelling any queued/in-flight work) and
        return it."""
        session = self[session] if isinstance(session, str) else session
        session.cancel_all()
        self.sessions.remove(session)
        del self._by_name[session.name]
        del self._deficit[session.name]
        return session

    def __getitem__(self, name: str) -> Session:
        return self._by_name[name]

    def __iter__(self) -> Iterator[Session]:
        return iter(self.sessions)

    def __len__(self) -> int:
        return len(self.sessions)

    # -- submission ------------------------------------------------------

    @property
    def queue_depth(self) -> int:
        """Queued plus in-flight evaluations, host-wide."""
        return sum(session.queue_depth for session in self.sessions)

    @property
    def idle(self) -> bool:
        """True when no session has queued or in-flight work."""
        return all(session.idle for session in self.sessions)

    def submit(
        self,
        session: Session | str,
        source: str,
        *,
        max_steps: int | None = None,
        deadline: float | None = None,
        tenant: str | None = None,
    ) -> EvalHandle:
        """Queue ``source`` on ``session`` (a member session or its
        name); the keyword surface is the shared submit contract
        (``max_steps``/``deadline``/``tenant`` — see ``docs/API.md``).
        Enforces the host-wide bound before the session's own; both
        refusals raise :class:`~repro.errors.HostSaturated`.  An
        unknown session name (or a session object belonging to another
        host) raises :class:`ValueError` naming this host."""
        if isinstance(session, str):
            if session not in self._by_name:
                raise ValueError(f"host {self.name}: {session!r} is not one of my sessions")
            session = self._by_name[session]
        if session.name not in self._by_name or self._by_name[session.name] is not session:
            raise ValueError(f"host {self.name}: {session.name!r} is not one of my sessions")
        if self.queue_depth >= self.max_pending:
            self.metrics.saturations += 1
            raise HostSaturated(
                f"host {self.name}: queue full ({self.queue_depth}/{self.max_pending})"
            )
        try:
            handle = session.submit(
                source, max_steps=max_steps, deadline=deadline, tenant=tenant
            )
        except HostSaturated:
            self.metrics.saturations += 1
            raise
        self.metrics.submits += 1
        return handle

    def cancel(self, handle: EvalHandle) -> bool:
        """Cancel a handle submitted to any of this host's sessions."""
        return handle.cancel()

    # -- the tick loop ---------------------------------------------------

    def tick(self) -> int:
        """One scheduling round: pump every busy session per the
        policy; returns total machine steps executed.

        A session-fatal :class:`~repro.errors.ReproError` surfacing
        from a pump (a session exhausting its *lifetime* step budget —
        per-request budget misses are absorbed by the session and never
        reach here) is caught, counted in ``host.session_faults``, and
        does not disturb the other sessions' service.

        With a recorder attached the tick is bracketed as a
        ``host.tick`` span on the ``host`` track; every tick's duration
        and step total also feed the host's histograms.
        """
        t0 = _perf_counter()
        rec = self.recorder
        if rec is not None and rec.enabled:
            with rec.span("host.tick", f"tick {self.metrics.ticks}", track="host"):
                total = self._tick()
        else:
            total = self._tick()
        self.metrics.tick_us.observe((_perf_counter() - t0) * 1e6)
        self.metrics.steps_per_tick.observe(total)
        return total

    def _tick(self) -> int:
        self.metrics.ticks += 1
        deficit = self.policy is HostPolicy.DEFICIT
        quantum = self.quantum
        total = 0
        # Snapshot: sessions added mid-tick wait for the next round.
        for session in list(self.sessions):
            if deficit:
                cap = DEFICIT_CAP_TICKS * quantum
                credit = min(cap, self._deficit[session.name] + quantum)
                if session.idle:
                    # No work to bank against; idle sessions do not
                    # accumulate claims on future ticks.
                    self._deficit[session.name] = 0
                    continue
                budget = credit
            else:
                if session.idle:
                    continue
                budget = quantum
            served_before = session.metrics.steps_served
            try:
                spent = session.pump(budget)
            except ReproError:
                self.metrics.session_faults += 1
                # The pump accounts every executed step into the
                # session's steps_served before the fault propagates;
                # recover the partial spend from that counter so the
                # steps stay visible in host.steps_served and the
                # deficit bank does not treat a faulted tick as free
                # credit.
                spent = session.metrics.steps_served - served_before
            total += spent
            if deficit:
                self._deficit[session.name] = max(0, credit - spent)
        self.metrics.steps_served += total
        return total

    def run_until_idle(self, max_ticks: int | None = None) -> int:
        """Tick until every session is idle (or ``max_ticks`` rounds
        have run); returns the number of ticks executed."""
        ticks = 0
        while not self.idle:
            if max_ticks is not None and ticks >= max_ticks:
                break
            self.tick()
            ticks += 1
        return ticks

    # -- introspection ---------------------------------------------------

    @property
    def stats(self) -> dict[str, int]:
        """Host counters (``host.*``) plus the sessions' serving
        counters rolled up under ``host.sessions.*``: summed, except
        the high-water ``max_queue_depth``, which is the largest."""
        out = self.metrics.as_dict()
        out["host.sessions"] = len(self.sessions)
        rollup = SESSION_METRICS.rollup(session.metrics for session in self.sessions)
        out.update(rollup.as_dict("host.sessions"))
        return out

    def session_stats(self) -> dict[str, dict[str, int]]:
        """Full per-session stats, keyed by session name."""
        return {session.name: session.stats for session in self.sessions}

    def histograms(self) -> dict[str, Any]:
        """Latency/steps distribution summaries: the host's tick
        histograms plus each session's request histograms, JSON-ready."""
        out: dict[str, Any] = self.metrics.histograms()
        for session in self.sessions:
            out.update(session.metrics.histograms(f"session.{session.name}"))
        return out

    def __repr__(self) -> str:
        return (
            f"#<host {self.name} {self.policy.value} "
            f"{len(self.sessions)} sessions depth={self.queue_depth}>"
        )
