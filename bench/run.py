#!/usr/bin/env python3
"""One benchmark from socket to abstract machine.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace [0|1]]
                         [--out FILE] [--smoke] [--strict]

Workloads: gateway-short, cluster-mixed, cluster-failover, machine-suite
(see bench/README.md for what each stresses and why).

``--trace 0`` (the default) measures the end-to-end metrics: each
workload sets up three times (``setup_s`` is the median CPU time of a
set-up at reference speed: divided by the machine's slowdown, read by a
speed probe next to the work, see ``measure.py``); a serving workload
then alternates a closed loop with an open loop at a frozen rate, and
``peak_rss_mb`` is read at the end.  ``--trace 1`` measures the
per-layer metrics: the workload runs twice for half the time each,
untraced then with span wrappers around the public calls into each
layer, and the merged Chrome trace of every process is validated and
written under ``.bench_build/bench/``.

Every answer is checked.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  The exit
code is 0 for a correct run; 1 if any answer was wrong or any request
failed; 2 if the repository's ``src/`` is missing.  A run whose load
generator could not keep its schedule (lag p99 over 5 ms, or over 80%
of a core, at reference speed) is reported ``INVALID``, and with
``--strict`` exits 3.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import shutil
import statistics
import sys
from collections import defaultdict
from time import perf_counter
from typing import Any

import loadgen
import measure
import spans
import suite
from repo import OUT_DIR, ROOT, MissingSource, use_repo_src
from workloads import (
    AGED_S,
    E9_CAPTURES,
    MACHINE_PROGRAMS,
    MACHINE_SUITE,
    SERVING,
    SETUPS,
    WORKLOADS,
)

LAG_P99_LIMIT_MS = 5.0
LOADGEN_CPU_LIMIT = 0.8
#: A serving run still going this many seconds after it started is
#: abandoned (its servers are killed), so the process exits in time.
RUN_BUDGET_S = 170.0

FRONTEND_METRICS = {
    "reader": "reader.us_per_req",
    "expander": "expander.us_per_req",
    "ir.resolve": "ir.resolve_us_per_req",
    "analysis": "analysis.us_per_req",
    "ir.compile": "ir.compile_us_per_req",
    "ir.codegen": "ir.codegen_us_per_req",
}


def load_spec() -> dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def declared_units(spec: dict[str, Any]) -> tuple[dict[str, str], dict[str, str]]:
    """Metric name -> unit, end-to-end and per-layer."""
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


class Result:
    """Metric values plus the detail a reader needs to trust them."""

    def __init__(self) -> None:
        self.values: dict[str, float] = {}
        self.notes: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.invalid: list[str] = []
        self.detail: dict[str, Any] = {}

    @property
    def correct(self) -> bool:
        return not self.problems and self.failed == 0

    def exit_code(self, strict: bool) -> int:
        """1 for a wrong answer or failed request; 3 for a load
        generator that could not keep its schedule, only if ``strict``."""
        if not self.correct:
            return 1
        return 3 if strict and self.invalid else 0

    def put(self, name: str, value: float, note: str = "") -> None:
        self.values[name] = float(value)
        if note:
            self.notes[name] = note

    def timing(self, name: str, samples: list[float], p: float = 50.0, scale: float = 1.0) -> None:
        """A percentile of raw samples, noted with n and the supported tail."""
        tail_p = measure.supported_tail(len(samples))
        tail = (
            f", p{tail_p:g}={measure.percentile(samples, tail_p) * scale:.4g}"
            if tail_p is not None
            else ""
        )
        self.put(name, measure.percentile(samples, p) * scale, f"n={len(samples)}{tail}")


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


# -- serving workloads -----------------------------------------------------


def _listed(values: list[float]) -> str:
    return " ".join(f"{v:.4g}" for v in values)


def closed_rps(p: Any) -> float:
    """Median over closed segments of answers per second at reference
    speed: one segment slowed by the machine does not move it."""
    return _median(p.closed.reference_rps())


def serving_end_to_end(r: Result, p: Any) -> None:
    cpu = [s.cpu_s for s in p.setups]
    reference = [s.reference_s for s in p.setups]
    r.put(
        "setup_s",
        _median(reference),
        f"server + worker CPU at reference speed, median of {_listed(reference)}; "
        f"as measured {_listed(cpu)} CPU, {_listed([s.wall_s for s in p.setups])} wall",
    )
    r.put("peak_rss_mb", p.final["peak_rss_mb"], "server + shard workers, VmHWM")
    r.detail["as_measured"] = {
        "setup_s": _median(cpu),
        "setup_wall_s": _median([s.wall_s for s in p.setups]),
        "slowdown": _median([s.slowdown for s in p.setups]),
    }


def loadgen_share(p: Any) -> float:
    """Share of one core the load generator used while sending."""
    return measure.ratio(
        p.closed.loadgen_cpu_s + p.open.loadgen_cpu_s, p.closed.elapsed_s + p.open.elapsed_s
    )


def loadgen_slowdown(p: Any) -> float:
    """The machine's median slowdown over the segments: the validity
    limits apply at reference speed, since sending is CPU work too."""
    return _median(p.closed.segment_slowdown + p.open.segment_slowdown)


def serving_untraced_layers(r: Result, workload: Any, p: Any) -> None:
    closed, opened = p.closed, p.open
    if workload.cpu_bound_latency:
        r.timing("latency_p50_ms", p.open_short_reference_ms)
        as_measured = measure.percentile(opened.short_ms, 50.0)
        r.notes["latency_p50_ms"] += f"; reference speed; as measured {as_measured:.4g}"
    else:
        r.timing("latency_p50_ms", opened.short_ms)
    r.put(
        "throughput_rps",
        closed_rps(p),
        f"reference speed, median of {len(closed.segment_rps)} segments; as measured "
        f"{_median(closed.segment_rps):.4g} ({closed.ok} answers in {closed.elapsed_s:.2f}s)",
    )
    attempted = closed.attempted + opened.attempted
    r.put("failed_share", measure.ratio(closed.failed + opened.failed + len(p.problems), attempted))
    r.put("shed_share", measure.ratio(closed.shed + opened.shed, attempted))
    r.timing("latency_p99_ms", opened.short_ms, 99.0)
    r.timing("batch_latency_p50_ms", opened.batch_ms)
    recoveries = loadgen.recovery_ms(p.kills, opened.recovered + closed.recovered)
    r.put("recovery_ms", _median(recoveries), f"{len(recoveries)} of {len(p.kills)} kills answered")
    aged = p.aged
    r.put(
        "gateway.aged_rps_ratio",
        measure.ratio(aged.part_rps[-1], aged.part_rps[0]),
        f"one connection for {AGED_S:g}s, reference-speed req/s by stretch: "
        f"{_listed(aged.part_rps)}",
    )
    r.put("gateway.tracked_requests", aged.tracked, f"after {aged.phase.ok} answers")
    r.timing("gateway.submit_ack_p50_ms", opened.ack_ms)
    r.timing("gateway.result_wait_p50_ms", opened.wait_ms)
    per_req = lambda role: measure.ratio(closed.cpu_s[role], closed.ok) * 1e6  # noqa: E731
    r.put("gateway.pump_cpu_us_per_req", per_req("pump"), "closed loop")
    r.put("gateway.loop_cpu_us_per_req", per_req("loop"), "closed loop")
    r.put("cluster.dispatch_cpu_us_per_req", per_req("dispatch"), "closed loop")
    r.put("cluster.worker_busy_cores", measure.ratio(closed.cpu_s["workers"], closed.elapsed_s))
    counters = opened.counters
    r.put(
        "gateway.frames_per_req",
        measure.ratio(
            counters["gateway.frames"] - opened.control_frames, counters["gateway.submits"]
        ),
        "open loop, stats reads excluded",
    )
    r.put("gateway.inflight_mean", _mean(opened.inflight), f"n={len(opened.inflight)}")
    total = lambda key: closed.counters[key] + opened.counters[key]  # noqa: E731
    r.put("cluster.respawns", total("cluster.respawns"))
    r.put("cluster.replays", total("cluster.recoveries"))
    served = opened.cpu_s["server"] + opened.cpu_s["workers"]
    r.put("server.cpu_ms_per_req", measure.ratio(served, opened.ok) * 1e3, "open loop")
    r.put("machine.slowdown", loadgen_slowdown(p), "speed probes, median over segments")
    r.timing("loadgen.lag_p99_ms", opened.lag_ms, 99.0)
    r.put("loadgen.cpu_share", loadgen_share(p))


def _mean(values: list[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def _account_serving(r: Result, p: Any) -> None:
    for phase in (p.closed, p.open, *([p.aged.phase] if p.aged else [])):
        r.attempted += phase.attempted
        r.failed += phase.failed + phase.shed
    r.failed += len(p.problems)
    r.problems += p.problems
    slow = loadgen_slowdown(p)
    lag = measure.percentile(p.open.lag_ms, 99.0)
    if lag / slow > LAG_P99_LIMIT_MS:
        r.invalid.append(
            f"load generator lag p99 {lag:.2f} ms (at slowdown {slow:.2f}) "
            f"> {LAG_P99_LIMIT_MS} ms at reference speed"
        )
    share = loadgen_share(p)
    if share / slow > LOADGEN_CPU_LIMIT:
        r.invalid.append(
            f"load generator used {share:.0%} of a core (at slowdown {slow:.2f}), "
            f"> {LOADGEN_CPU_LIMIT:.0%} at reference speed"
        )


def run_serving(r: Result, name: str, seed: int, seconds: float, trace: bool, setups: int) -> None:
    workload = SERVING[name]
    deadline = perf_counter() + RUN_BUDGET_S

    def run_pass(seconds: float, setups: int, trace_dir: str | None, aged_s: float = 0.0) -> Any:
        budget = max(1.0, deadline - perf_counter())
        return asyncio.run(
            asyncio.wait_for(
                loadgen.serving_pass(workload, seed, seconds, setups, trace_dir, aged_s), budget
            )
        )

    if not trace:
        p = run_pass(seconds, setups, None)
        _account_serving(r, p)
        serving_end_to_end(r, p)
        return
    p = run_pass(seconds / 2, 1, None, AGED_S)
    _account_serving(r, p)
    serving_untraced_layers(r, workload, p)
    span_dir = os.path.join(OUT_DIR, f"spans-{os.getpid()}")
    os.makedirs(span_dir, exist_ok=True)
    try:
        t = run_pass(seconds / 2, 1, span_dir)
        dumps, missing = spans.load_dumps(span_dir, [t.final["pid"], *t.final["shards"]])
    finally:
        shutil.rmtree(span_dir, ignore_errors=True)
    if missing:
        r.detail["missing_span_dumps"] = missing
    _account_serving(r, t)
    r.put("obs.trace_overhead", 1.0 - measure.ratio(closed_rps(t), closed_rps(p)))
    everything = [s for d in dumps for s in d["spans"]]
    samples = defaultdict(list)
    for d in dumps:
        for key, values in d["samples"].items():
            samples[key] += values
    traced_layers(r, everything, samples, [s for d in dumps for s in d["sessions"]], t.window)
    processes = [(d["pid"], f"{d['role']} (pid {d['pid']})", d["spans"]) for d in dumps]
    processes.append((os.getpid(), "load generator", t.final["client_spans"]))
    write_trace(r, name, processes)


# -- machine-suite ---------------------------------------------------------


def suite_rps(s: Any) -> float:
    """Median over passes of program runs per reference-speed CPU second."""
    return _median(s.pass_rps)


def _engine_medians(s: Any, engine: str) -> dict[str, float]:
    return {name: _median(s.runs_ms[(engine, name)]) for name, _, _ in MACHINE_PROGRAMS}


def suite_end_to_end(r: Result, s: Any) -> None:
    r.put(
        "setup_s",
        _median(s.setup_s),
        f"reference-speed CPU seconds, median of {_listed(s.setup_s)}",
    )
    r.put("peak_rss_mb", measure.peak_rss_mb(os.getpid()), "this process, VmHWM")


def suite_untraced_layers(r: Result, s: Any) -> None:
    medians = [_median(v) for v in s.runs_ms.values()]
    raw = measure.geomean([_median(v) for v in s.raw_ms.values()])
    r.put(
        "latency_p50_ms",
        measure.geomean(medians),
        f"geomean of {len(medians)} program x engine median CPU times at reference speed, "
        f"{min(len(v) for v in s.runs_ms.values())} runs each; as measured {raw:.4g}",
    )
    r.put(
        "throughput_rps",
        suite_rps(s),
        f"program runs per reference-speed CPU second, median of {len(s.pass_rps)} passes",
    )
    compiled, codegen = _engine_medians(s, "compiled"), _engine_medians(s, "codegen")
    r.put("run_ms_geomean", measure.geomean(list(compiled.values())),
          "compiled, CPU at reference speed")
    r.put("codegen_run_ms_geomean", measure.geomean(list(codegen.values())),
          "codegen, CPU at reference speed")
    per_capture = {
        depth: (compiled[f"e9-capture-{depth}"] - compiled[f"e9-build-{depth}"]) / E9_CAPTURES
        for depth in (200, 2000)
    }
    r.put(
        "machine.capture_depth_ratio",
        measure.ratio(per_capture[2000], per_capture[200]),
        f"compiled: {per_capture[200] * 1e3:.1f} vs {per_capture[2000] * 1e3:.1f} us per capture",
    )
    r.put(
        "machine.slowdown",
        measure.ratio(
            measure.geomean([_median(v) for v in s.raw_ms.values()]),
            measure.geomean([_median(v) for v in s.runs_ms.values()]),
        ),
        "as-measured over reference-speed program times",
    )
    every = [x for v in s.runs_ms.values() for x in v]
    r.timing("latency_p99_ms", every, 99.0)
    r.put("failed_share", measure.ratio(len(s.wrong), sum(len(v) for v in s.runs_ms.values())))


def _account_suite(r: Result, s: Any) -> None:
    r.attempted += sum(len(v) for v in s.runs_ms.values())
    r.failed += len(s.wrong)
    r.problems += s.wrong


def run_suite(r: Result, seconds: float, trace: bool, setups: int) -> None:
    if not trace:
        s = suite.suite_pass(seconds, setups)
        _account_suite(r, s)
        suite_end_to_end(r, s)
        return
    s = suite.suite_pass(seconds / 2, 1)
    _account_suite(r, s)
    suite_untraced_layers(r, s)
    log = spans.SpanLog()
    uninstall = spans.install(log)
    try:
        t = suite.suite_pass(seconds / 2, 1)
    finally:
        uninstall()
    _account_suite(r, t)
    r.put("obs.trace_overhead", 1.0 - measure.ratio(suite_rps(t), suite_rps(s)))
    sessions = [session.stats for session in t.sessions.values()]
    traced_layers(r, log.spans, log.samples, sessions, t.window)
    write_trace(r, MACHINE_SUITE, [(os.getpid(), "machine-suite", log.spans)])


# -- per-layer metrics from spans --------------------------------------------


def traced_layers(
    r: Result,
    all_spans: list,
    samples: dict[str, list],
    sessions: list[dict[str, int]],
    window: tuple[float, float],
) -> None:
    """Per-layer metrics from the spans that started inside ``window``."""
    lo, hi = window
    inside = [s for s in all_spans if lo <= s[3] <= hi]
    by: dict[str, list] = defaultdict(list)
    for span in inside:
        by[span[2]].append(span)
    dur = lambda name: [s[4] - s[3] for s in by[name]]  # noqa: E731
    requests = len(by["session.submit"])
    r.detail["traced_requests"] = requests

    ticks = by["host.tick"]
    r.timing("host.tick_us_p50", dur("host.tick"), scale=1e6)
    r.put("host.steps_per_tick_mean", _mean([s[6] for s in ticks if s[6] is not None]))
    r.put("host.ticks_per_req", measure.ratio(len(ticks), requests))
    r.timing("session.submit_us_p50", dur("session.submit"), scale=1e6)
    r.timing("session.pump_us_p50", dur("session.pump"), scale=1e6)
    waits = [w for t, w in samples.get("host.queue_wait", []) if lo <= t <= hi]
    r.timing("host.queue_wait_p50_ms", waits, scale=1e3)
    for span_name, metric in FRONTEND_METRICS.items():
        r.put(metric, measure.ratio(sum(dur(span_name)), requests) * 1e6,
              f"{len(by[span_name])} calls")

    for engine, metric in (("compiled", "machine.steps_per_s"), ("codegen", "machine.codegen_steps_per_s")):
        pumps = [s for s in by["session.pump"] if s[6] is not None and s[6][1] == engine]
        steps = sum(s[6][0] or 0 for s in pumps)
        r.put(metric, measure.ratio(steps, sum(s[4] - s[3] for s in pumps)), f"{len(pumps)} pumps")
    total = lambda key: sum(stats.get(key, 0) for stats in sessions)  # noqa: E731
    served = total("session.steps_served")
    r.put("machine.captures_per_kstep", measure.ratio(total("captures"), served) * 1e3)
    r.put("machine.reinstates_per_kstep", measure.ratio(total("reinstatements"), served) * 1e3)
    r.put("analysis.grant_share", measure.ratio(total("analysis.grants"), total("analysis.forms")))
    hits, misses = total("codegen.hits"), total("codegen.misses")
    r.put("ir.codegen_cache_hit_share", measure.ratio(hits, hits + misses), f"{hits + misses} lookups")

    encodes = by["snapshot.encode"]
    r.put("snapshot.encodes_per_req", measure.ratio(len(encodes), requests))
    r.timing("snapshot.encode_us_p50", dur("snapshot.encode"), scale=1e6)
    r.timing("snapshot.bytes_p50", [s[6] for s in encodes if s[6] is not None])
    r.timing("snapshot.decode_us_p50", dur("snapshot.decode"), scale=1e6)

    submitted = {s[6]: s[4] for s in by["cluster.submit"] if s[6] is not None}
    handled = [s for s in by["shard.handle"] if s[6] is not None]
    r.timing(
        "cluster.front_wait_p50_ms",
        [s[3] - submitted[s[6]] for s in handled if s[6] in submitted],
        scale=1e3,
    )
    r.timing("shard.handle_us_p50", [s[4] - s[3] for s in handled], scale=1e6)
    r.put(
        "shard.snapshot_share",
        measure.ratio(sum(dur("snapshot.encode")), sum(s[4] - s[3] for s in handled)),
    )
    r.detail["self_us_per_req"] = {
        name: round(measure.ratio(self_s, requests) * 1e6, 3)
        for name, (self_s, _calls) in sorted(spans.self_times(inside).items())
    }


def write_trace(r: Result, workload: str, processes: list) -> None:
    from repro.obs.export import validate_chrome_trace

    trace = spans.chrome_trace(processes)
    problems = validate_chrome_trace(trace)
    path = os.path.join(OUT_DIR, f"trace-{workload}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(trace, handle)
    r.detail["trace"] = {"path": os.path.relpath(path, ROOT), "events": len(trace["traceEvents"])}
    if problems:
        r.problems.append(f"chrome trace invalid: {problems[:3]}")
        r.failed += 1


# -- entry point -------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0], formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="run length (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--out", metavar="FILE", help="also write the full report as JSON")
    parser.add_argument("--smoke", action="store_true", help=f"one set-up instead of {SETUPS}")
    parser.add_argument(
        "--strict", action="store_true",
        help="exit 3 if the load generator could not keep its schedule",
    )
    args = parser.parse_args(argv)
    try:
        use_repo_src()
    except MissingSource as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    spec = load_spec()
    e2e, per_layer = declared_units(spec)
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    os.makedirs(OUT_DIR, exist_ok=True)
    setups = 1 if args.smoke else SETUPS
    r = Result()
    t0 = perf_counter()
    if args.workload == MACHINE_SUITE:
        run_suite(r, args.seconds, bool(args.trace), setups)
    else:
        run_serving(r, args.workload, args.seed, args.seconds, bool(args.trace), setups)
    units = per_layer if args.trace else e2e
    undeclared = sorted(set(r.values) - set(units))
    if undeclared:
        raise RuntimeError(f"metrics not declared in BENCHMARK.json: {undeclared}")
    for name in units:
        if name not in r.values:
            if not args.trace:
                raise RuntimeError(f"end-to-end metric {name} not computed")
            r.put(name, 0.0, "layer not exercised by this workload")

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}  wall {perf_counter() - t0:.1f}s")
    for name, unit in units.items():
        note = r.notes.get(name, "")
        print(f"  {name:34s} {r.values[name]:14.6g} {unit:8s} {note}")
    for name, self_us in r.detail.get("self_us_per_req", {}).items():
        print(f"  self time  {name:23s} {self_us:14.3f} us/req")
    if "trace" in r.detail:
        print(f"  chrome trace: {r.detail['trace']['path']} ({r.detail['trace']['events']} events)")
    for pid in r.detail.get("missing_span_dumps", []):
        print(f"  NOTE: process {pid} wrote no span dump; its spans are not counted")
    for problem in r.problems:
        print(f"  PROBLEM: {problem}")
    for reason in r.invalid:
        print(f"  INVALID: {reason}")
    line = {
        "correct": r.correct,
        "attempted": r.attempted,
        "failed": r.failed,
        "metrics": {name: {"value": r.values[name], "unit": unit} for name, unit in units.items()},
    }
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(
                {**line, "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                 "trace": args.trace, "notes": r.notes, "problems": r.problems,
                 "invalid": r.invalid, "detail": r.detail},
                handle,
                indent=1,
            )
    print(json.dumps(line))
    return r.exit_code(args.strict)


if __name__ == "__main__":
    sys.exit(main())
