"""The load generator: the server child process, set-up, and the closed
and open loops, all on one asyncio thread with
:data:`~workloads.CONNECTIONS` connections per segment.

Each segment opens fresh connections.  The gateway keeps a terminal
request's record until its connection closes, and its pump scans every
record, so a connection's throughput falls as it ages; fresh
connections per segment keep one segment's length from changing the
next segment's numbers.  :func:`aged_connection` measures that decay
on its own, on one connection kept open.

A :class:`~measure.SpeedSampler` runs beside the load for the whole
pass, so the CPU-bound numbers (set-up CPU, closed-loop throughput,
cluster latency) can be given at reference speed.
"""

from __future__ import annotations

import asyncio
import functools
import heapq
import json
import os
import signal
import sys
import zlib
from collections import defaultdict
from dataclasses import dataclass, field
from time import perf_counter, process_time
from typing import Any, Iterator

import measure
from repo import ROOT
from spans import SpanLog
from workloads import (
    AGED_PARTS,
    CLOSED_CAP_S,
    CONNECTIONS,
    CYCLES,
    KILL_AT,
    OPEN_SHARE,
    READ,
    RESULT_TIMEOUT_S,
    SHARDS,
    Ledger,
    Request,
    Serving,
    request_stream,
)

SERVER_PY = os.path.join(os.path.dirname(os.path.abspath(__file__)), "server.py")
#: The server and its shard workers run this much nicer than the load
#: generator.  Real clients run on other machines; on a 2-core box the
#: generator must still send on schedule when the server is busy, or
#: its lag would be charged to the server's latency.
SERVER_NICE = 10
#: Seconds allowed for the server to start, or to stop cleanly.
SERVER_TIMEOUT_S = 60.0
#: The open loop samples the gateway's inflight count this often.
INFLIGHT_EVERY_S = 0.25
#: A request's reference-speed latency uses the speed probes taken
#: within this many seconds of its lifetime (about ten probes).
REQUEST_PAD_S = 0.05


class ServerProc:
    """The server child process and its line-oriented control pipe."""

    def __init__(self, proc: asyncio.subprocess.Process, ready: dict[str, Any]):
        self.proc = proc
        self.port: int = ready["port"]
        self._lock = asyncio.Lock()  # one command in flight on the pipe

    @classmethod
    async def launch(cls, backend: str, trace_dir: str | None) -> "ServerProc":
        args = [sys.executable, SERVER_PY, "--backend", backend]
        if trace_dir is not None:
            args += ["--trace", trace_dir]
        proc = await asyncio.create_subprocess_exec(
            *args,
            stdin=asyncio.subprocess.PIPE,
            stdout=asyncio.subprocess.PIPE,
            cwd=ROOT,
            preexec_fn=functools.partial(os.nice, SERVER_NICE),
        )
        try:
            line = await asyncio.wait_for(proc.stdout.readline(), SERVER_TIMEOUT_S)
            ready = json.loads(line)
        except BaseException:
            await _kill_tree(proc)
            raise
        return cls(proc, ready)

    async def command(self, op: str) -> dict[str, Any]:
        async with self._lock:
            self.proc.stdin.write(json.dumps({"op": op}).encode() + b"\n")
            await self.proc.stdin.drain()
            line = await asyncio.wait_for(self.proc.stdout.readline(), SERVER_TIMEOUT_S)
        if not line:
            raise RuntimeError(f"server exited (code {self.proc.returncode}) during {op!r}")
        return json.loads(line)

    async def stop(self) -> dict[str, Any]:
        """Clean shutdown: the final probe, then wait for exit."""
        try:
            reply = await self.command("stop")
            await asyncio.wait_for(self.proc.wait(), SERVER_TIMEOUT_S)
        except BaseException:
            await self.kill()
            raise
        return reply

    async def kill(self) -> None:
        await _kill_tree(self.proc)


async def _kill_tree(proc: asyncio.subprocess.Process) -> None:
    """SIGKILL the server and its shard workers, and reap the server."""
    if proc.returncode is None:
        for pid in [*measure.children(proc.pid), proc.pid]:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        await proc.wait()


async def _connect(port: int, count: int = CONNECTIONS) -> list[Any]:
    from repro.gateway.client import GatewayClient

    return [await GatewayClient.connect("127.0.0.1", port) for _ in range(count)]


async def _close(conns: list[Any]) -> None:
    for conn in conns:
        await conn.close()


async def _eval(conn: Any, session: str, source: str, tenant: str) -> dict[str, Any]:
    ack = await conn.call("submit", session=session, source=source, tenant=tenant)
    return await conn.call(
        "result", request=ack["request"], timeout_ms=RESULT_TIMEOUT_S * 1000
    )


@dataclass
class SetUp:
    wall_s: float  # launch until the last session answered
    cpu_s: float  # CPU of the server and its workers meanwhile, as measured
    slowdown: float  # the sampler's, meanwhile

    @property
    def reference_s(self) -> float:
        return self.cpu_s / self.slowdown


async def set_up(
    workload: Serving, trace_dir: str | None, speed: measure.SpeedSampler
) -> tuple[ServerProc, SetUp]:
    """Launch a server and create every session; returns it with what
    that cost."""
    t0 = perf_counter()
    server = await ServerProc.launch(workload.backend, trace_dir)
    try:
        conns = await _connect(server.port)
        replies = await asyncio.gather(
            *(
                _eval(conns[i % len(conns)], name, workload.warmup_source(i), workload.tenant_of(i))
                for i, name in enumerate(workload.session_names())
            )
        )
        await _close(conns)
        bad = [r for r in replies if r.get("state") != "done"]
        if bad:
            raise RuntimeError(f"set-up failed: {bad[0]}")
        t1 = perf_counter()
        cpu = (await server.command("probe"))["cpu"]
    except BaseException:
        await server.kill()
        raise
    return server, SetUp(t1 - t0, cpu["server"] + cpu["workers"], speed.slowdown(t0, t1))


@dataclass
class Phase:
    """What one kind of loop sent and got back, as raw samples,
    accumulated over its segments."""

    name: str
    attempted: int = 0
    ok: int = 0
    shed: int = 0
    failed: int = 0
    short_ms: list[float] = field(default_factory=list)
    #: (start, done) perf_counter of each short_ms sample
    short_spans: list[tuple[float, float]] = field(default_factory=list)
    batch_ms: list[float] = field(default_factory=list)
    ack_ms: list[float] = field(default_factory=list)
    wait_ms: list[float] = field(default_factory=list)
    lag_ms: list[float] = field(default_factory=list)
    inflight: list[int] = field(default_factory=list)
    #: Frames sent to read stats, not to serve requests.
    control_frames: int = 0
    recovered: list[tuple[float, str]] = field(default_factory=list)
    elapsed_s: float = 0.0
    #: Answers per second of each segment, as measured.
    segment_rps: list[float] = field(default_factory=list)
    #: The machine's slowdown during each segment (see measure.slowdown).
    segment_slowdown: list[float] = field(default_factory=list)
    loadgen_cpu_s: float = 0.0
    #: Server CPU seconds by role (loop, pump, dispatch, server, workers).
    cpu_s: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    #: Growth of the gateway's numeric ``stats`` counters.
    counters: dict[str, float] = field(default_factory=lambda: defaultdict(float))

    def reference_rps(self) -> list[float]:
        """Each segment's answers per second at reference speed."""
        return [rps * slow for rps, slow in zip(self.segment_rps, self.segment_slowdown)]

    def short_reference_ms(self, speed: measure.SpeedSampler) -> list[float]:
        """Each short request's latency at reference speed: divided by
        the slowdown of the probes taken within REQUEST_PAD_S of its
        lifetime, which follows the machine's speed changes, tens of
        milliseconds apart, more closely than a segment's mean."""
        return [
            ms / speed.slowdown(start - REQUEST_PAD_S, done + REQUEST_PAD_S)
            for ms, (start, done) in zip(self.short_ms, self.short_spans)
        ]


class Load:
    """Issues requests and checks every answer against the ledger."""

    def __init__(self, conns: list[Any], ledger: Ledger, log: SpanLog | None):
        self.conns = conns
        self.ledger = ledger
        self.log = log

    async def issue(self, phase: Phase, request: Request, due: float | None, lane: int) -> None:
        from repro.errors import GatewayBusy, GatewayError

        conn = self.conns[request.rid % len(self.conns)]
        phase.attempted += 1
        t_sent = perf_counter()
        start = t_sent if due is None else due
        try:
            ack = await conn.call(
                "submit", session=request.session, source=request.source, tenant=request.tenant
            )
            t_ack = perf_counter()
            reply = await conn.call(
                "result", request=ack["request"], timeout_ms=RESULT_TIMEOUT_S * 1000
            )
        except GatewayBusy:
            phase.shed += 1
            self.ledger.lost(request)
            return
        except (GatewayError, ConnectionError, OSError):
            phase.failed += 1
            self.ledger.lost(request)
            return
        t_done = perf_counter()
        if reply.get("state") != "done":
            phase.failed += 1
            self.ledger.lost(request)
            return
        if not self.ledger.answer(request, reply.get("value")):
            phase.failed += 1
            return
        phase.ok += 1
        if request.kind == "batch":
            phase.batch_ms.append((t_done - start) * 1e3)
        else:
            phase.short_ms.append((t_done - start) * 1e3)
            phase.short_spans.append((start, t_done))
        phase.ack_ms.append((t_ack - t_sent) * 1e3)
        phase.wait_ms.append((t_done - t_ack) * 1e3)
        if reply.get("recovered"):
            phase.recovered.append((t_done, request.session))
        if self.log is not None:
            sid = self.log.new_id()
            self.log.add("client.submit", t_sent, t_ack, lane, request.rid, parent=sid)
            self.log.add("client.result", t_ack, t_done, lane, request.rid, parent=sid)
            self.log.add("client.request", start, t_done, lane, request.rid, sid=sid)


async def _stats(conns: list[Any]) -> dict[str, Any]:
    return await conns[0].stats()


async def closed_loop(
    load: Load,
    phase: Phase,
    stream: Iterator[Request],
    outstanding: int,
    duration: float,
    count: int | None = None,
    mark: tuple[int, asyncio.Event] | None = None,
) -> None:
    """``outstanding`` clients, each sending its next request when the
    previous one is answered, until ``count`` requests have been sent or
    ``duration`` seconds have passed.  With ``mark = (n, event)``, the
    event is set once ``n`` requests have been sent."""
    end = perf_counter() + duration
    remaining = count if count is not None else float("inf")
    sent = 0

    async def client(lane: int) -> None:
        nonlocal remaining, sent
        while remaining > 0 and perf_counter() < end:
            remaining -= 1
            sent += 1
            if mark is not None and sent == mark[0]:
                mark[1].set()
            await load.issue(phase, next(stream), None, lane)

    await asyncio.gather(*(client(lane) for lane in range(outstanding)))


async def open_loop(
    load: Load, phase: Phase, stream: Iterator[Request], rate: float, duration: float
) -> None:
    """Requests due every ``1/rate`` seconds whether or not earlier ones
    were answered; each is timed from when it was due."""
    start = perf_counter()
    tasks: set[asyncio.Task] = set()
    free_lanes = list(range(10_000))  # trace lanes: spans in a lane never overlap

    async def one(request: Request, due: float) -> None:
        lane = heapq.heappop(free_lanes)
        try:
            await load.issue(phase, request, due, lane)
        finally:
            heapq.heappush(free_lanes, lane)

    async def sample_inflight() -> None:
        while True:
            await asyncio.sleep(INFLIGHT_EVERY_S)
            phase.inflight.append((await _stats(load.conns))["gateway.inflight"])
            phase.control_frames += 1

    sampler = asyncio.ensure_future(sample_inflight())
    try:
        for i in range(int(rate * duration)):
            due = start + i / rate
            delay = due - perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            phase.lag_ms.append((perf_counter() - due) * 1e3)
            task = asyncio.ensure_future(one(next(stream), due))
            tasks.add(task)
            task.add_done_callback(tasks.discard)
        if tasks:
            await asyncio.gather(*tasks)
    finally:
        sampler.cancel()
        await asyncio.gather(sampler, return_exceptions=True)


async def run_segment(
    server: ServerProc,
    phase: Phase,
    ledger: Ledger,
    log: SpanLog | None,
    speed: measure.SpeedSampler,
    body: Any,
) -> None:
    """One segment of ``phase`` on fresh connections: ``body(load)``,
    with the server's CPU and stats counters read before and after."""
    conns = await _connect(server.port)
    try:
        load = Load(conns, ledger, log)
        probe0, stats0 = await server.command("probe"), await _stats(conns)
        cpu0, t0, ok0 = process_time(), perf_counter(), phase.ok
        await body(load)
        t1 = perf_counter()
        phase.elapsed_s += t1 - t0
        phase.segment_rps.append((phase.ok - ok0) / (t1 - t0))
        phase.segment_slowdown.append(speed.slowdown(t0, t1))
        phase.loadgen_cpu_s += process_time() - cpu0
        stats1, probe1 = await _stats(conns), await server.command("probe")
        phase.control_frames += 1  # stats1 counts its own frame
    finally:
        await _close(conns)
    for role, after in probe1["cpu"].items():
        if role in probe0["cpu"]:
            phase.cpu_s[role] += after - probe0["cpu"][role]
    for key, after in stats1.items():
        if isinstance(after, (int, float)) and key in stats0:
            phase.counters[key] += after - stats0[key]


async def kill_shard(server: ServerProc, shard: int, when: asyncio.Event, kills: list) -> None:
    """SIGKILL shard worker ``shard`` once ``when`` is set.  The victim
    is the server's child that the server names as that shard."""
    await when.wait()
    probe = await server.command("probe")
    victim = probe["shards"][shard]
    if victim not in probe["children"]:
        raise RuntimeError(f"shard pid {victim} is not a child of the server")
    kills.append((perf_counter(), shard))
    os.kill(victim, signal.SIGKILL)


def recovery_ms(kills: list[tuple[float, int]], recovered: list[tuple[float, str]]) -> list[float]:
    """Per kill: SIGKILL to the first recovered answer for a session the
    killed shard owns (crc32 of the session id, as the cluster routes)."""
    out = []
    for t_kill, shard in kills:
        times = [
            t for t, session in recovered
            if t > t_kill and zlib.crc32(session.encode()) % SHARDS == shard
        ]
        if times:
            out.append((min(times) - t_kill) * 1e3)
    return out


@dataclass
class Aged:
    """One connection kept open through a closed loop."""

    phase: Phase
    #: Answers per second at reference speed in each of AGED_PARTS
    #: equal stretches of time.
    part_rps: list[float]
    #: Request records the gateway still holds at the end, read from
    #: ``Gateway.stats`` by the server process.
    tracked: int


async def aged_connection(
    server: ServerProc,
    workload: Serving,
    stream: Iterator[Request],
    ledger: Ledger,
    speed: measure.SpeedSampler,
    seconds: float,
) -> Aged:
    """A closed loop for ``seconds`` on a single connection that stays
    open, as a long-lived client's would."""
    phase = Phase("aged")
    (conn,) = await _connect(server.port, 1)
    try:
        load = Load([conn], ledger, None)
        part_rps = []
        for _ in range(AGED_PARTS):
            t0, ok0 = perf_counter(), phase.ok
            await closed_loop(
                load, phase, stream, workload.closed_outstanding, seconds / AGED_PARTS
            )
            t1 = perf_counter()
            part_rps.append((phase.ok - ok0) / (t1 - t0) * speed.slowdown(t0, t1))
        tracked = (await server.command("probe"))["tracked_requests"]
    finally:
        await conn.close()
    return Aged(phase, part_rps, tracked)


@dataclass
class ServingPass:
    setups: list[SetUp]
    closed: Phase
    open: Phase
    #: open.short_ms at reference speed (Phase.short_reference_ms)
    open_short_reference_ms: list[float]
    aged: Aged | None
    kills: list[tuple[float, int]]
    problems: list[str]
    final: dict[str, Any]
    window: tuple[float, float]  # perf_counter span of the measured segments


async def serving_pass(
    workload: Serving,
    seed: int,
    seconds: float,
    setups: int,
    trace_dir: str | None,
    aged_s: float = 0.0,
) -> ServingPass:
    """Set up ``setups`` times (keeping the last server), then alternate
    closed and open segments, :data:`~workloads.CYCLES` of each, and
    check every session's counter.

    A closed segment sends the workload's fixed count of requests (cut
    off after ``CLOSED_CAP_S``); the open segments take ``OPEN_SHARE``
    of ``seconds``.  Alternating spreads both over the whole run, so
    drift in the machine's speed during a run lands on both alike.
    With ``aged_s``, a closed loop on one long-lived connection follows
    the segments."""
    speed = measure.SpeedSampler()
    sampler = asyncio.ensure_future(speed.run())
    try:
        return await _serving_pass(workload, seed, seconds, setups, trace_dir, aged_s, speed)
    finally:
        sampler.cancel()
        await asyncio.gather(sampler, return_exceptions=True)


async def _serving_pass(
    workload: Serving,
    seed: int,
    seconds: float,
    setups: int,
    trace_dir: str | None,
    aged_s: float,
    speed: measure.SpeedSampler,
) -> ServingPass:
    costs = []
    for i in range(setups):
        server, cost = await set_up(workload, trace_dir if i == setups - 1 else None, speed)
        costs.append(cost)
        if i < setups - 1:
            await server.stop()
    log = SpanLog() if trace_dir is not None else None
    ledger = Ledger()
    kills: list[tuple[float, int]] = []
    closed, opened = Phase("closed"), Phase("open")
    open_s = seconds * OPEN_SHARE / CYCLES
    closed_stream = request_stream(workload, seed, "closed", 1)
    open_stream = request_stream(workload, seed, "open", 10_000_000)
    aged = None

    async def closed_segment(load: Load, kill: int | None) -> None:
        count = workload.closed_requests
        mark, killer = None, None
        if kill is not None:
            mark = (round(KILL_AT * count), asyncio.Event())
            killer = asyncio.ensure_future(kill_shard(server, kill, mark[1], kills))
        await closed_loop(
            load, closed, closed_stream, workload.closed_outstanding, CLOSED_CAP_S, count, mark
        )
        if killer is not None:
            mark[1].set()  # a segment cut off before its mark still kills
            await killer

    try:
        start = perf_counter()
        for cycle in range(CYCLES):
            # Kills land in closed segments 1..kills, alternating shards.
            kill = (cycle - 1) % SHARDS if 1 <= cycle <= workload.kills else None
            await run_segment(
                server, closed, ledger, log, speed, lambda load: closed_segment(load, kill)
            )
            await run_segment(
                server, opened, ledger, log, speed,
                lambda load: open_loop(load, opened, open_stream, workload.open_rate, open_s),
            )
        window = (start, perf_counter())
        if aged_s:
            aged = await aged_connection(server, workload, closed_stream, ledger, speed, aged_s)
        conns = await _connect(server.port)
        finals = await asyncio.gather(
            *(
                _eval(conns[i % len(conns)], name, READ, workload.tenant_of(i))
                for i, name in enumerate(workload.session_names())
            )
        )
        await _close(conns)
        final = await server.stop()
    except BaseException:
        await server.kill()
        raise
    problems = ledger.verify(
        {
            name: int(reply["value"])
            for name, reply in zip(workload.session_names(), finals)
            if reply.get("state") == "done"
        }
    )
    if any(reply.get("state") != "done" for reply in finals):
        problems.append("a final read failed")
    if ledger.wrong:
        problems.append(f"{ledger.wrong} wrong answers")
    if log is not None:
        final["client_spans"] = log.spans
    return ServingPass(
        costs,
        closed,
        opened,
        opened.short_reference_ms(speed),
        aged,
        kills,
        problems,
        final,
        window,
    )
