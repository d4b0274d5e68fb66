#!/usr/bin/env python
"""Gateway serving benchmark: closed- and open-loop load over TCP.

    PYTHONPATH=src python benchmarks/bench_gateway.py           # full run
    PYTHONPATH=src python benchmarks/bench_gateway.py --smoke   # CI mode
    PYTHONPATH=src python benchmarks/bench_gateway.py --out x.json

Two phases against one in-process :class:`~repro.gateway.Gateway` over
a :class:`~repro.host.Host` backend (real sockets, loopback), driven by
a load generator in a child process so that it does not share the
gateway's interpreter lock:

* **Closed loop** — N concurrent connections, each running submit →
  result back to back for a fixed duration.  Measures the sustainable
  request rate and the request latency distribution (p50/p99) with the
  offered load self-limited by completion.
* **Open loop** — requests fired at a fixed rate of 2× the measured
  sustainable throughput, regardless of completions (the arrival
  process does not slow down when the server does).  This is the
  overload test the shed contract exists for: the gateway must answer
  *every* frame — a result or a structured ``busy`` with
  ``retry_after_ms`` — with zero protocol errors and zero client
  timeouts, while inflight stays bounded by admission control instead
  of queue growth.

Plus two fault-injection phases:

* **Failover** — a 4-worker cluster-backed gateway under live load;
  halfway through, one shard worker is SIGKILLed.  Every accepted
  frame must still reach a terminal answer (snapshot replay recovers
  the killed shard's sessions), with zero hangs and at least one
  ``gateway.recovery.replays`` recorded; an explicit post-kill probe
  on a killed-shard session must answer with its pre-kill state.
* **Hedging** — a pooled client with one connection routed through a
  tarpit proxy (delayed server→client bytes).  Hedged evals must keep
  p99 at ≤ 1.2× the *unhedged* p99 under the same fault (in practice
  hedging restores near-clean latency; the gate is deliberately loose
  for shared runners).

Acceptance (gated in CI via ``--smoke``):

* zero protocol errors and zero client timeouts in every phase;
* every request answered: served + shed + failed == sent;
* under 2× overload the gateway actually sheds (shed rate in
  (0.02, 0.98) — load shedding, not collapse and not a free lunch);
* served-request p99 stays under a generous ceiling even at overload
  (bounded admission ⇒ bounded queueing delay);
* failover: zero unanswered frames, ≥1 snapshot-replay recovery, the
  probe answers; hedging: the p99 gate above plus ≥1 hedge launched.

Results merge into ``BENCH_results.json`` under ``"gateway"``
(fault-injection results under ``"gateway" -> "failover"`` /
``"hedging"``).
"""

from __future__ import annotations

import argparse
import asyncio
import json
import multiprocessing
import os
import signal
import sys
import time
from typing import Any

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if os.path.isdir(os.path.join(_ROOT, "src")):
    sys.path.insert(0, os.path.join(_ROOT, "src"))

from repro.cluster import Cluster  # noqa: E402
from repro.errors import GatewayBusy, GatewayRequestError  # noqa: E402
from repro.gateway import (  # noqa: E402
    Gateway,
    GatewayClient,
    GatewayClientPool,
    GatewayLimits,
)
from repro.host import Host  # noqa: E402

#: Served p99 ceiling under 2x overload, milliseconds.  Generous for
#: shared CI runners; the property being gated is boundedness (shed,
#: don't queue), not absolute speed.
P99_CEILING_MS = 2_000.0

#: The open-loop shed-rate window at 2x offered load: the gateway must
#: refuse some work (it cannot serve 2x its own ceiling) but must not
#: collapse into refusing everything.
SHED_RATE_MIN, SHED_RATE_MAX = 0.02, 0.98

SOURCE = "(+ %d 1)"

#: Ratio gate for the hedging phase: hedged p99 against unhedged p99
#: under the same one-slow-connection fault.
HEDGE_P99_RATIO = 1.2

#: Server→client byte delay of the tarpit proxy, seconds.
TARPIT_DELAY_S = 0.2


def _percentile(sorted_values: list[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1, int(q * (len(sorted_values) - 1) + 0.5))
    return sorted_values[index]


def _summary(latencies_s: list[float]) -> dict[str, float]:
    latencies = sorted(latencies_s)
    return {
        "p50_ms": round(_percentile(latencies, 0.50) * 1e3, 3),
        "p90_ms": round(_percentile(latencies, 0.90) * 1e3, 3),
        "p99_ms": round(_percentile(latencies, 0.99) * 1e3, 3),
    }


class Tally:
    """Shared counters for one load phase."""

    def __init__(self) -> None:
        self.ok = 0
        self.shed = 0
        self.failed = 0  # eval-side failures (none expected here)
        self.timeouts = 0
        self.protocol_errors = 0
        self.latencies: list[float] = []

    @property
    def answered(self) -> int:
        return self.ok + self.shed + self.failed


async def _one_request(
    client: GatewayClient, session: str, tenant: str, i: int, tally: Tally
) -> float:
    """Run one submit→result round trip.  Returns the server's
    retry-after hint in seconds when the request was shed, else 0.0."""
    t0 = time.perf_counter()
    try:
        rid = await client.submit(session, SOURCE % i, tenant=tenant)
        value = await asyncio.wait_for(client.result(rid), timeout=30.0)
    except GatewayBusy as exc:
        tally.shed += 1
        if exc.retry_after_ms < 0:  # pragma: no cover - contract check
            tally.protocol_errors += 1
        return max(0.001, exc.retry_after_ms / 1000.0)
    except GatewayRequestError:
        tally.failed += 1
        return 0.0
    except asyncio.TimeoutError:
        tally.timeouts += 1
        return 0.0
    except Exception:  # noqa: BLE001 - anything else is a protocol error
        tally.protocol_errors += 1
        return 0.0
    if value != str(i + 1):
        tally.protocol_errors += 1
        return 0.0
    tally.ok += 1
    tally.latencies.append(time.perf_counter() - t0)
    return 0.0


async def _closed_loop(
    address: tuple[str, int], connections: int, sessions: int, duration: float
) -> dict[str, object]:
    clients = await asyncio.gather(
        *(GatewayClient.connect(*address) for _ in range(connections))
    )
    tally = Tally()
    stop_at = time.perf_counter() + duration

    async def worker(k: int, client: GatewayClient) -> None:
        session, tenant = f"s{k % sessions}", f"t{k % sessions}"
        i = 0
        while time.perf_counter() < stop_at:
            # A well-behaved client: honour the retry hint on a shed
            # instead of hammering (the shed/retry contract's client
            # half, docs/SERVING.md).
            retry_after = await _one_request(client, session, tenant, i, tally)
            if retry_after:
                await asyncio.sleep(retry_after)
            i += 1

    t0 = time.perf_counter()
    await asyncio.gather(*(worker(k, c) for k, c in enumerate(clients)))
    elapsed = time.perf_counter() - t0
    for client in clients:
        await client.close()
    throughput = tally.ok / elapsed if elapsed else 0.0
    return {
        "connections": connections,
        "duration_s": round(elapsed, 3),
        "requests_ok": tally.ok,
        "shed": tally.shed,
        "failed": tally.failed,
        "timeouts": tally.timeouts,
        "protocol_errors": tally.protocol_errors,
        "throughput_rps": round(throughput, 1),
        **_summary(tally.latencies),
    }


async def _open_loop(
    address: tuple[str, int],
    pool_size: int,
    sessions: int,
    rate: float,
    duration: float,
) -> dict[str, object]:
    clients = await asyncio.gather(
        *(GatewayClient.connect(*address) for _ in range(pool_size))
    )
    tally = Tally()
    tasks: list[asyncio.Task] = []
    total = int(rate * duration)
    t0 = time.perf_counter()
    fired = 0
    # Fire in 10ms batches: the arrival clock never waits for results.
    while fired < total:
        now = time.perf_counter() - t0
        due = min(total, int(now * rate) + 1)
        while fired < due:
            client = clients[fired % pool_size]
            session, tenant = f"s{fired % sessions}", f"t{fired % sessions}"
            tasks.append(
                asyncio.ensure_future(
                    _one_request(client, session, tenant, fired, tally)
                )
            )
            fired += 1
        await asyncio.sleep(0.01)
    await asyncio.gather(*tasks)
    elapsed = time.perf_counter() - t0
    for client in clients:
        await client.close()
    shed_rate = tally.shed / fired if fired else 0.0
    return {
        "offered_rps": round(rate, 1),
        "sent": fired,
        "duration_s": round(elapsed, 3),
        "requests_ok": tally.ok,
        "shed": tally.shed,
        "failed": tally.failed,
        "timeouts": tally.timeouts,
        "protocol_errors": tally.protocol_errors,
        "answered": tally.answered,
        "shed_rate": round(shed_rate, 4),
        "served_rps": round(tally.ok / elapsed, 1) if elapsed else 0.0,
        **_summary(tally.latencies),
    }


def _load_main(
    address: tuple[str, int], connections: int, sessions: int, duration: float, out: Any
) -> None:
    """Child-process entry: the closed loop, then the open loop at 2x
    the closed loop's throughput; sends both results through ``out``."""

    async def phases() -> tuple[dict[str, object], dict[str, object]]:
        closed = await _closed_loop(address, connections, sessions, duration)
        offered = max(50.0, 2.0 * float(closed["throughput_rps"]))  # type: ignore[arg-type]
        open_ = await _open_loop(
            address, min(connections, 64), sessions, offered, duration
        )
        return closed, open_

    out.send(asyncio.run(phases()))


async def _load_phases(
    gw: Gateway, connections: int, sessions: int, duration: float
) -> tuple[dict[str, object], dict[str, object]]:
    """Run :func:`_load_main` in a spawned child against ``gw``.  A
    generator sharing the gateway's process would share its interpreter
    lock, and under overload its own backlog — invisible to admission
    control — would dominate the latencies measured."""
    ctx = multiprocessing.get_context("spawn")
    results, out = ctx.Pipe(duplex=False)
    child = ctx.Process(
        target=_load_main, args=((gw.host, gw.port), connections, sessions, duration, out)
    )
    child.start()
    out.close()
    try:
        return await asyncio.get_running_loop().run_in_executor(None, results.recv)
    finally:
        results.close()
        child.join(timeout=30.0)


async def _failover_phase(duration: float) -> dict[str, object]:
    """Cluster-backed gateway under live load with a SIGKILLed shard
    at half time: the shard-failure-transparency contract, full scale."""
    sessions, workers, conns = 16, 4, 8
    cluster = Cluster(workers=workers, session_defaults={"prelude": False})
    try:
        limits = GatewayLimits(max_inflight=64, tenant_max_inflight=64)
        async with Gateway(cluster, limits=limits) as gw:
            clients = await asyncio.gather(
                *(GatewayClient.connect(gw.host, gw.port) for _ in range(conns))
            )
            try:
                # Warm every session: one completed request each, so the
                # snapshot store can replay any of them after the kill.
                for s in range(sessions):
                    value = await clients[s % conns].eval(
                        f"f{s}", f"(define base {s}) base", timeout=60.0
                    )
                    assert value == str(s)
                victim_shard = cluster.shard_for("f0")
                victim_session = "f0"
                victim_pid = cluster.shards[victim_shard].process.pid

                tally = Tally()
                sent = 0
                stop_at = time.perf_counter() + duration

                async def worker(k: int, client: GatewayClient) -> None:
                    nonlocal sent
                    i = 0
                    while time.perf_counter() < stop_at:
                        sid = f"f{(k + i) % sessions}"
                        sent += 1
                        t0 = time.perf_counter()
                        try:
                            rid = await client.submit(sid, SOURCE % i, tenant=f"t{k}")
                            value = await asyncio.wait_for(
                                client.result(rid), timeout=60.0
                            )
                        except GatewayBusy as exc:
                            tally.shed += 1
                            await asyncio.sleep(max(0.001, exc.retry_after_ms / 1000))
                            i += 1
                            continue
                        except GatewayRequestError:
                            tally.failed += 1
                            i += 1
                            continue
                        except asyncio.TimeoutError:
                            tally.timeouts += 1
                            i += 1
                            continue
                        except Exception:  # noqa: BLE001
                            tally.protocol_errors += 1
                            i += 1
                            continue
                        if value != str(i + 1):
                            tally.protocol_errors += 1
                        else:
                            tally.ok += 1
                            tally.latencies.append(time.perf_counter() - t0)
                        i += 1

                async def killer() -> None:
                    await asyncio.sleep(duration / 2)
                    os.kill(victim_pid, signal.SIGKILL)

                await asyncio.gather(
                    *(worker(k, c) for k, c in enumerate(clients)), killer()
                )

                # Post-kill probe: a session that lived on the killed
                # shard still answers from its pre-kill state.
                probe = await clients[0].eval(victim_session, "base", timeout=60.0)
                probe_ok = probe == "0"
                stats = await clients[0].stats()
            finally:
                for client in clients:
                    await client.close()
    finally:
        cluster.close()
    return {
        "workers": workers,
        "sessions": sessions,
        "duration_s": round(duration, 3),
        "sent": sent,
        "requests_ok": tally.ok,
        "shed": tally.shed,
        "failed": tally.failed,
        "timeouts": tally.timeouts,
        "protocol_errors": tally.protocol_errors,
        "answered": tally.answered,
        "recovery_replays": stats["gateway.recovery.replays"],
        "recovery_failures": stats["gateway.recovery.failures"],
        "cluster_respawns": stats["cluster.respawns"],
        "probe_recovered": probe_ok,
        **_summary(tally.latencies),
    }


class _Tarpit:
    """A loopback TCP proxy that delays server→client bytes: one slow
    connection, injected without touching the gateway."""

    def __init__(self, target_host: str, target_port: int, delay: float):
        self.target_host = target_host
        self.target_port = target_port
        self.delay = delay
        self.port = 0
        self._server: asyncio.AbstractServer | None = None

    async def start(self) -> "_Tarpit":
        self._server = await asyncio.start_server(self._handle, "127.0.0.1", 0)
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            up_reader, up_writer = await asyncio.open_connection(
                self.target_host, self.target_port
            )
        except OSError:
            writer.close()
            return

        async def pump(
            r: asyncio.StreamReader, w: asyncio.StreamWriter, delay: float
        ) -> None:
            try:
                while True:
                    data = await r.read(65536)
                    if not data:
                        break
                    if delay:
                        await asyncio.sleep(delay)
                    w.write(data)
                    await w.drain()
            except (ConnectionError, OSError):
                pass
            finally:
                try:
                    w.close()
                except (ConnectionError, OSError):  # pragma: no cover
                    pass

        try:
            await asyncio.gather(
                pump(reader, up_writer, 0.0), pump(up_reader, writer, self.delay)
            )
        except asyncio.CancelledError:  # proxy shutting down mid-transfer
            pass


async def _hedge_phase(requests: int) -> dict[str, object]:
    """Pooled client with one tarpitted connection: unhedged vs hedged
    closed-loop p99 under the same one-slow-connection fault."""
    conns, concurrency = 4, 8
    host = Host(max_pending=256, quantum=2048)
    async with Gateway(host) as gw:
        tarpit = await _Tarpit(gw.host, gw.port, TARPIT_DELAY_S).start()
        pool = await GatewayClientPool.connect(gw.host, gw.port, size=conns)
        try:
            # Warm the latency samples on all-healthy connections at
            # the same concurrency the measurement will run (sequential
            # warm-up would understate p99 and over-fire the hedge),
            # then freeze the hedge delay at the observed clean p99.
            async def warm(k: int) -> None:
                for i in range(12):
                    await pool.eval(f"h{k}", SOURCE % i, timeout=30.0)

            await asyncio.gather(*(warm(k) for k in range(concurrency)))
            clean_p99 = pool.hedge_delay()
            pool._hedge_delay_cfg = max(0.005, clean_p99)

            # Inject the fault: slot 0 now talks through the tarpit.
            slow = await GatewayClient.connect("127.0.0.1", tarpit.port)
            healthy = pool._clients[0]
            pool._clients[0] = slow
            if healthy is not None:
                await healthy.close()

            async def measure(hedge: bool) -> list[float]:
                latencies: list[float] = []
                counter = iter(range(10**9))

                async def worker(k: int) -> None:
                    for _ in range(requests // concurrency):
                        i = next(counter)
                        t0 = time.perf_counter()
                        value = await pool.eval(
                            f"h{k}", SOURCE % i, timeout=60.0, hedge=hedge
                        )
                        assert value == str(i + 1)
                        latencies.append(time.perf_counter() - t0)

                await asyncio.gather(*(worker(k) for k in range(concurrency)))
                return latencies

            unhedged = await measure(hedge=False)
            hedged = await measure(hedge=True)
            counters = dict(pool.counters)
        finally:
            await pool.close()
            await tarpit.close()
    unhedged_stats = _summary(unhedged)
    hedged_stats = _summary(hedged)
    return {
        "pool_size": conns,
        "requests_per_mode": requests,
        "tarpit_delay_ms": TARPIT_DELAY_S * 1000,
        "clean_p99_ms": round(clean_p99 * 1e3, 3),
        "hedge_delay_ms": round(float(pool._hedge_delay_cfg) * 1e3, 3),
        "unhedged": unhedged_stats,
        "hedged": hedged_stats,
        "p99_ratio": round(
            hedged_stats["p99_ms"] / max(1e-9, unhedged_stats["p99_ms"]), 4
        ),
        **counters,
    }


async def _run(args: argparse.Namespace) -> dict[str, object]:
    connections = 64 if args.smoke else args.connections
    sessions = min(connections, 64)
    duration = 2.0 if args.smoke else args.duration
    limits = GatewayLimits(max_inflight=64, tenant_max_inflight=32)
    host = Host(max_pending=256, quantum=2048)
    async with Gateway(host, limits=limits) as gw:
        closed, open_ = await _load_phases(gw, connections, sessions, duration)
        print(
            f"\n=== closed loop ({connections} connections, "
            f"{sessions} sessions, {duration:.0f}s) ==="
        )
        print(
            f"  {closed['throughput_rps']:8.0f} req/s  "
            f"p50={closed['p50_ms']:.2f}ms p99={closed['p99_ms']:.2f}ms  "
            f"shed={closed['shed']} errors={closed['protocol_errors']}"
        )

        print(
            f"\n=== open loop (2x overload: {open_['offered_rps']:.0f} req/s "
            f"offered, {duration:.0f}s) ==="
        )
        print(
            f"  sent={open_['sent']} ok={open_['requests_ok']} "
            f"shed={open_['shed']} ({100 * float(open_['shed_rate']):.1f}%) "  # type: ignore[arg-type]
            f"timeouts={open_['timeouts']} errors={open_['protocol_errors']}"
        )
        print(
            f"  served p50={open_['p50_ms']:.2f}ms p99={open_['p99_ms']:.2f}ms "
            f"at {open_['served_rps']:.0f} req/s"
        )
        gateway_stats = gw.stats
        histograms = gw.histograms()

    if "fork" in multiprocessing.get_all_start_methods():
        fail_duration = 3.0 if args.smoke else min(duration, 6.0)
        print(f"\n=== failover (4-worker cluster, SIGKILL at t/2, {fail_duration:.0f}s) ===")
        failover = await _failover_phase(fail_duration)
        print(
            f"  sent={failover['sent']} ok={failover['requests_ok']} "
            f"timeouts={failover['timeouts']} "
            f"replays={failover['recovery_replays']} "
            f"probe={'ok' if failover['probe_recovered'] else 'LOST'}"
        )
    else:  # pragma: no cover - non-fork platforms
        failover = {"skipped": "fork start method unavailable"}

    hedge_requests = 96 if args.smoke else 160
    print(f"\n=== hedging (tarpitted connection, {hedge_requests} req/mode) ===")
    hedging = await _hedge_phase(hedge_requests)
    print(
        f"  unhedged p99={hedging['unhedged']['p99_ms']:.1f}ms  "  # type: ignore[index]
        f"hedged p99={hedging['hedged']['p99_ms']:.1f}ms  "  # type: ignore[index]
        f"ratio={hedging['p99_ratio']}  "
        f"launched={hedging['client.hedge.launched']} "
        f"wins={hedging['client.hedge.wins']}"
    )

    return {
        "closed_loop": closed,
        "open_loop": open_,
        "failover": failover,
        "hedging": hedging,
        "gateway_stats": gateway_stats,
        "histograms": histograms,
    }


def _merge_out(path: str, payload: dict[str, object]) -> None:
    data: dict[str, object] = {}
    if os.path.exists(path):
        try:
            with open(path, encoding="utf-8") as handle:
                data = json.load(handle)
        except (OSError, ValueError):
            data = {}
    data["gateway"] = payload
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=2)
        handle.write("\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out",
        default=os.path.join(_ROOT, "BENCH_results.json"),
        help="result JSON path; the gateway section merges into an "
        "existing file (default: BENCH_results.json)",
    )
    parser.add_argument(
        "--connections", type=int, default=1000, help="closed-loop connections"
    )
    parser.add_argument(
        "--duration", type=float, default=8.0, help="seconds per phase"
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI mode: 64 connections, 2s phases, same gates",
    )
    args = parser.parse_args(argv)

    payload = asyncio.run(_run(args))
    closed = payload["closed_loop"]
    open_ = payload["open_loop"]
    failover = payload["failover"]
    hedging = payload["hedging"]

    checks = {
        "zero_protocol_errors": (
            closed["protocol_errors"] == 0 and open_["protocol_errors"] == 0  # type: ignore[index]
        ),
        "zero_timeouts": closed["timeouts"] == 0 and open_["timeouts"] == 0,  # type: ignore[index]
        "every_frame_answered": open_["answered"] == open_["sent"],  # type: ignore[index]
        "sheds_under_overload": (
            SHED_RATE_MIN < float(open_["shed_rate"]) < SHED_RATE_MAX  # type: ignore[index, arg-type]
        ),
        "p99_bounded": float(open_["p99_ms"]) < P99_CEILING_MS,  # type: ignore[index, arg-type]
    }
    if "skipped" not in failover:  # type: ignore[operator]
        checks.update(
            {
                "failover_every_frame_answered": (
                    failover["answered"] == failover["sent"]  # type: ignore[index]
                    and failover["timeouts"] == 0  # type: ignore[index]
                    and failover["protocol_errors"] == 0  # type: ignore[index]
                ),
                "failover_recovery_replayed": int(failover["recovery_replays"]) >= 1,  # type: ignore[index, arg-type]
                "failover_probe_recovered": bool(failover["probe_recovered"]),  # type: ignore[index]
            }
        )
    checks.update(
        {
            "hedged_p99_bounded": (
                float(hedging["p99_ratio"]) <= HEDGE_P99_RATIO  # type: ignore[index, arg-type]
            ),
            "hedge_fired": int(hedging["client.hedge.launched"]) >= 1,  # type: ignore[index, arg-type]
        }
    )
    acceptance_pass = all(checks.values())
    payload["acceptance"] = {
        **checks,
        "shed_rate_window": [SHED_RATE_MIN, SHED_RATE_MAX],
        "p99_ceiling_ms": P99_CEILING_MS,
        "hedge_p99_ratio_gate": HEDGE_P99_RATIO,
        "smoke": args.smoke,
        "pass": acceptance_pass,
    }
    _merge_out(args.out, payload)
    print(f"\nwrote gateway section to {args.out}")
    failing = [name for name, ok in checks.items() if not ok]
    status = "pass" if acceptance_pass else f"FAIL ({', '.join(failing)})"
    print(f"acceptance [{status}]")
    return 0 if acceptance_pass else 1


if __name__ == "__main__":
    sys.exit(main())
