"""Declared metrics: the record type, and every tier's exported keys.

The golden tests pin each tier's ``stats`` keys and values and every
``histograms()`` name and JSON shape, as the per-tier metrics classes
exported them before they became declarations.  Two values differ
from that export, both bug fixes: ``host.sessions.max_queue_depth`` is
the largest session peak, not their sum, and the gateway ``stats`` op
carries ``gateway.tracked_requests`` like ``Gateway.stats``.

Since 3.1 a session binds its prelude instead of running it, so the
session goldens count only the program: boot compiles nothing and runs
no task (the ``resolver.*`` rows still count the prelude, which boot
resolves), and a prelude body built at its first call is not counted.
"""

from __future__ import annotations

import asyncio

import pytest

from repro import Session
from repro.cluster import Cluster
from repro.gateway import Gateway, GatewayClient
from repro.host import Host
from repro.ir.codegen import clear_cache
from repro.obs import COUNTER, HIGH_WATER, HISTOGRAM, declare

HIST_SHAPE = ["buckets", "count", "max", "mean", "min", "p50", "p90", "p99", "sum"]

#: Timing-dependent counters: the key is pinned, the value is not.
UNPINNED = {"codegen.emit_us"}

PROGRAM = (
    "(define (sq x) (* x x))"
    "(pcall + (sq 3) (spawn (lambda (c) (+ 1 (c (lambda (k) (k 10)))))))"
    "(call/cc (lambda (k) (k (sq 4))))"
)


def assert_stats(stats: dict[str, int], expected: dict[str, int]) -> None:
    assert sorted(stats) == sorted(expected)
    pinned = {k: v for k, v in stats.items() if k not in UNPINNED}
    assert pinned == {k: v for k, v in expected.items() if k not in UNPINNED}


def assert_histograms(hists: dict, counts: dict[str, int]) -> None:
    assert {name: sorted(h) for name, h in hists.items()} == {
        name: HIST_SHAPE for name in counts
    }
    assert {name: h["count"] for name, h in hists.items()} == counts


# -- the record type --------------------------------------------------------


DEMO = declare(
    "demo",
    [
        ("hits", COUNTER, "a count"),
        ("peak", HIGH_WATER, "a high-water mark"),
        ("wait_us", HISTOGRAM, "a distribution"),
    ],
)


def test_record_exports_in_declaration_order():
    m = DEMO()
    m.hits += 2
    m.peak = 5
    m.wait_us.observe(7)
    assert list(m.as_dict()) == ["demo.hits", "demo.peak"]
    assert m.as_dict("other") == {"other.hits": 2, "other.peak": 5}
    assert list(m.histograms()) == ["demo.wait_us"]
    assert m.histograms()["demo.wait_us"]["count"] == 1


def test_rollup_adds_counters_and_takes_the_max_of_high_water_marks():
    a, b = DEMO(), DEMO()
    a.hits, a.peak = 1, 3
    b.hits, b.peak = 2, 3
    a.wait_us.observe(1)
    b.wait_us.observe(100)
    total = DEMO.rollup([a, b])
    assert (total.hits, total.peak) == (3, 3)
    assert (total.wait_us.count, total.wait_us.max) == (2, 100)


def test_snapshot_round_trips_in_declaration_order():
    m = DEMO()
    m.hits, m.peak = 4, 9
    m.wait_us.observe(3)
    data = m.snapshot()
    assert data[0] == (4, 9)
    restored = DEMO()
    restored.restore(data)
    assert restored.as_dict() == m.as_dict()
    assert restored.histograms() == m.histograms()
    counters_only = declare("flat", [("a", COUNTER, ""), ("b", COUNTER, "")])()
    counters_only.b = 1
    assert counters_only.snapshot() == (0, 1)


@pytest.mark.parametrize(
    "fields",
    [
        [("x", "gauge", "unknown kind")],
        [("x.y", COUNTER, "not an identifier")],
        [("as_dict", COUNTER, "shadows a method")],
        [("x", COUNTER, ""), ("x", COUNTER, "")],
    ],
)
def test_declare_rejects_bad_declarations(fields):
    with pytest.raises(ValueError):
        declare("bad", fields)


def test_records_hold_only_declared_metrics():
    with pytest.raises(AttributeError):
        DEMO().misspelled = 1


def test_host_rollup_takes_the_largest_session_queue_peak():
    # Two sessions that each peak at 3 queued requests: the host-wide
    # peak is 3 (the rollup used to add the peaks up to 6).
    host = Host()
    for name in ("a", "b"):
        session = host.session(name, prelude=False)
        for _ in range(3):
            host.submit(session, "(+ 1 2)")
    host.run_until_idle()
    assert [s.metrics.max_queue_depth for s in host] == [3, 3]
    assert host.stats["host.sessions.max_queue_depth"] == 3
    assert host.stats["host.sessions.submits"] == 6


# -- golden: Session ----------------------------------------------------------

_SESSION_COMMON = {
    "captures": 2,
    "forks": 1,
    "join_fires": 1,
    "label_pops": 5,
    "reinstatements": 2,
    "resolver.cell_cache_hits": 122,
    "resolver.cells_interned": 29,
    "resolver.globals": 122,
    "resolver.lambdas": 50,
    "resolver.locals": 158,
    "session.cancellations": 0,
    "session.deadline_misses": 0,
    "session.evals_completed": 2,
    "session.evals_failed": 1,
    "session.max_queue_depth": 2,
    "session.quanta_served": 2,
    "session.saturations": 0,
    "session.submits": 3,
    "tasks_created": 12,
    "vm.quanta": 12,
    "vm.spill_budget": 1,
    "vm.spill_fallback": 0,
    "vm.spill_suspend": 11,
    "vm.spill_trace": 0,
}

SESSION_GOLDEN = {
    "compiled": {
        **_SESSION_COMMON,
        "compile.apps_inlined": 9,
        "compile.lambdas": 4,
        "compile.nodes": 38,
        "compile.tests_inlined": 0,
        "session.steps_served": 30,
        "vm.allocations_avoided": 8,
        "vm.quantum_steps": 30,
        "vm.spill_apply": 4,
        "vm.spill_control": 18,
    },
    "codegen": {
        **_SESSION_COMMON,
        "codegen.apps_inlined": 9,
        "codegen.emit_us": 0,
        "codegen.evictions": 0,
        "codegen.fallback_nodes": 0,
        "codegen.hits": 0,
        "codegen.inline_bodies": 0,
        "codegen.lambdas": 4,
        "codegen.misses": 5,
        "codegen.nodes": 13,
        "codegen.prims_inlined": 1,
        "codegen.self_inlines": 0,
        "codegen.spill_elisions": 0,
        "codegen.tests_inlined": 0,
        "session.steps_served": 31,
        "vm.allocations_avoided": 9,
        "vm.quantum_steps": 31,
        "vm.spill_apply": 5,
        "vm.spill_control": 17,
    },
}


@pytest.mark.parametrize("engine", ["compiled", "codegen"])
def test_session_stats_golden(engine):
    clear_cache()  # codegen hits/misses count against the process-wide cache
    s = Session(engine=engine, profile=True)
    s.eval(PROGRAM)
    s.submit("(+ 1 2)")
    s.submit("(car '())")
    s.pump(1 << 20)
    assert_stats(s.stats, SESSION_GOLDEN[engine])
    assert_histograms(
        s.metrics.histograms(), {"session.latency_us": 3, "session.steps_per_request": 3}
    )


# -- golden: Host ---------------------------------------------------------------

HOST_GOLDEN = {
    "host.saturations": 0,
    "host.session_faults": 0,
    "host.sessions": 2,
    "host.sessions.cancellations": 0,
    "host.sessions.deadline_misses": 0,
    "host.sessions.evals_completed": 6,
    "host.sessions.evals_failed": 0,
    "host.sessions.max_queue_depth": 3,  # the fix: 6 when peaks were summed
    "host.sessions.quanta_served": 12,
    "host.sessions.saturations": 0,
    "host.sessions.steps_served": 648,
    "host.sessions.submits": 6,
    "host.steps_served": 648,
    "host.submits": 6,
    "host.ticks": 6,
}


def test_host_stats_golden():
    host = Host(quantum=64)
    for name in ("a", "b"):
        session = host.session(name, prelude=False)
        for i in range(3):
            host.submit(session, f"(let loop ((n {i * 50})) (if (= n 0) 'done (loop (- n 1))))")
    host.run_until_idle()
    assert_stats(host.stats, HOST_GOLDEN)
    assert_histograms(
        host.histograms(),
        {
            "host.tick_us": 6,
            "host.steps_per_tick": 6,
            "session.a.latency_us": 3,
            "session.a.steps_per_request": 3,
            "session.b.latency_us": 3,
            "session.b.steps_per_request": 3,
        },
    )


# -- golden: Cluster ------------------------------------------------------------

CLUSTER_GOLDEN = {
    "cluster.cancellations": 0,
    "cluster.completed": 3,
    "cluster.evictions": 1,
    "cluster.failed": 1,
    "cluster.migrations": 0,
    "cluster.queue_depth": 0,
    "cluster.recoveries": 0,
    "cluster.resident_sessions": 2,
    "cluster.respawns": 0,
    "cluster.restores": 1,
    "cluster.saturations": 0,
    "cluster.shards": 1,
    "cluster.snapshots": 5,
    "cluster.stored_sessions": 2,
    "cluster.submits": 4,
}


def test_cluster_stats_golden():
    with Cluster(workers=0, session_defaults={"prelude": False}) as c:
        c.submit("x", "(define v 1)")
        c.submit("x", "(+ v 1)")
        c.submit("y", "(car '())")
        c.evict("x")
        c.submit("x", "v")
        assert_stats(c.stats, CLUSTER_GOLDEN)
        assert_histograms(
            c.histograms(),
            {
                "cluster.snapshot_bytes": 5,
                "cluster.snapshot_us": 5,
                "cluster.restore_us": 1,
                "cluster.request_us": 4,
            },
        )


# -- golden: Gateway ------------------------------------------------------------

GATEWAY_GOLDEN = {
    "gateway.cancelled": 0,
    "gateway.completed": 2,
    "gateway.connections": 1,
    "gateway.disconnect_cancels": 0,
    "gateway.disconnects": 0,
    "gateway.failed": 0,
    "gateway.frames": 5,
    "gateway.inflight": 0,
    "gateway.output_events": 0,
    "gateway.protocol_errors": 0,
    "gateway.recovery.failures": 0,
    "gateway.recovery.replays": 0,
    "gateway.shed": 0,
    "gateway.submits": 2,
    "gateway.tracked_requests": 2,
}

BACKEND_GOLDEN = {
    "host": {
        "host.saturations": 0,
        "host.session_faults": 0,
        "host.sessions": 1,
        "host.sessions.cancellations": 0,
        "host.sessions.deadline_misses": 0,
        "host.sessions.evals_completed": 2,
        "host.sessions.evals_failed": 0,
        "host.sessions.max_queue_depth": 1,
        "host.sessions.quanta_served": 2,
        "host.sessions.saturations": 0,
        "host.sessions.steps_served": 6,
        "host.sessions.submits": 2,
        "host.steps_served": 6,
        "host.submits": 2,
        "host.ticks": 2,
    },
    "cluster": {
        **{key: 0 for key in CLUSTER_GOLDEN},
        "cluster.completed": 2,
        "cluster.resident_sessions": 1,
        "cluster.shards": 1,
        "cluster.snapshots": 2,
        "cluster.stored_sessions": 1,
        "cluster.submits": 2,
    },
}


@pytest.mark.parametrize("kind", ["host", "cluster"])
def test_gateway_stats_golden(kind):
    async def main():
        if kind == "host":
            backend = Host()
        else:
            backend = Cluster(workers=0, session_defaults={"prelude": False})
        try:
            async with Gateway(backend) as gw:
                client = await GatewayClient.connect(gw.host, gw.port)
                try:
                    await client.eval("s", "(+ 1 2)")
                    await client.eval("s", "(define z 5)")
                    return await client.stats(), gw.stats, gw.histograms()
                finally:
                    await client.close()
        finally:
            if kind == "cluster":
                backend.close()

    op, stats, hists = asyncio.run(main())
    assert_stats(stats, GATEWAY_GOLDEN)
    assert_stats(op, {**BACKEND_GOLDEN[kind], **GATEWAY_GOLDEN})
    assert_histograms(hists, {"gateway.request_us": 2, "gateway.result_wait_us": 2})
