#!/usr/bin/env python
"""Capture/effect analysis benchmark: overhead, payoff and the
zero-divergence gate for the ``analysis={on,off}`` axis.

    PYTHONPATH=src python benchmarks/bench_analysis.py           # full run
    PYTHONPATH=src python benchmarks/bench_analysis.py --smoke   # CI mode
    PYTHONPATH=src python benchmarks/bench_analysis.py --out x.json

Three measurements:

* **Compile-time overhead** — the analysis phase runs inside every
  ``Session.submit`` (read → expand → resolve → **analyze** → compile).
  Each pipeline stage is timed *directly* (best-of-N CPU time over the
  same corpus: the prelude, the derived libraries and the paper
  examples) and the gate is ``(front_end + analyze) / front_end`` ≤
  ``OVERHEAD_CEILING``.  Subtracting two whole-submit timings would
  put a ~4% signal inside the noise band of two ~60ms measurements
  taken under CPU frequency drift; per-stage best-of measures the
  phase itself.
* **Single-task payoff** — the point of the phase: a form proven
  capture- and spawn-free is granted a ``GRANT_QUANTUM`` batch,
  paying the spill→delegate→reload boundary once instead of every
  ``quantum`` steps.  The payoff is proportional to preemption
  frequency: at this interpreter's default quantum 16 the boundary is
  under 10% of runtime, so the microbench measures at quantum
  ``SPEEDUP_QUANTUM`` (4) — the fine-grained setting a
  responsiveness-tuned host would pick, which analysis makes free for
  proven-pure forms.  The fib and tak microbenches (compiled engine)
  must gain at least ``SPEEDUP_FLOOR`` as a geometric mean with
  analysis on; the mean gates the mechanism rather than one
  workload's spill-fraction ceiling.
* **Divergence** — the acceptance gate: analysis on vs off must be
  *byte-identical* — same printed output, same total step count, same
  machine stats — across engine × quantum × workload, including
  concurrency-heavy programs where the grant machinery must refuse to
  fire.  Any spread fails the run.

``--smoke`` (CI) runs the divergence matrix plus single-repeat timing
passes whose ratios are reported but not gated (shared runners); the
full run gates the overhead ceiling and the speedup floor too.
Results merge into ``BENCH_results.json`` under the ``"analysis"``
key, preserving whatever ``run_all.py`` already wrote.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if os.path.isdir(os.path.join(_ROOT, "src")):
    sys.path.insert(0, os.path.join(_ROOT, "src"))

from repro.host import Session  # noqa: E402
from repro.lib import paper_examples  # noqa: E402

#: Analysis may add at most 5% to the submit-path (front-end) time.
OVERHEAD_CEILING = 1.05
#: Capture-free microbenches must gain at least this much from grants.
SPEEDUP_FLOOR = 1.15
#: Scheduler quantum for the payoff microbench (see module docstring).
SPEEDUP_QUANTUM = 4

DIVERGENCE_ENGINES = ("compiled", "codegen")
DIVERGENCE_QUANTA = (1, 16, 4096)

FIB = (
    "(define (fib n) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2)))))"
    " (fib %d)"
)
TAK = (
    "(define (tak x y z)"
    "  (if (< y x)"
    "      (tak (tak (- x 1) y z) (tak (- y 1) z x) (tak (- z 1) x y))"
    "      z))"
    " (tak %d %d %d)"
)

#: Divergence workloads: a pure grant-eligible program, a
#: capture-heavy one, and schedule-sensitive concurrency where the
#: validator must refuse the grant.
DIVERGENCE_WORKLOADS = [
    ("pure-fib", FIB % 14),
    ("capture-product", "(define (p l) (call/cc (lambda (k) (let loop ([l l]) (if (null? l) 1 (if (= (car l) 0) (k 0) (* (car l) (loop (cdr l))))))))) (display (p '(1 2 3 0 5)))"),
    (
        "pcall-tree",
        "(define (loop n acc) (if (= n 0) acc (loop (- n 1) (+ acc 1))))"
        " (display (pcall + (loop 40 0) (pcall + (loop 9 1) (loop 17 0)) (loop 3 2)))",
    ),
    (
        "spawn-future-mix",
        "(display (spawn (lambda (c) (+ 1 (c (lambda (k) (k 10)))))))"
        " (display (touch (future (lambda () 32))))",
    ),
]


def _corpus() -> str:
    """The front-end workload: the prelude, every derived library and
    every paper example, twice (the second copy re-resolves against
    already-bound globals, the steady-state case)."""
    from repro.lib.derived import LIBRARIES
    from repro.lib.prelude import PRELUDE

    sources = (
        [PRELUDE]
        + [source for source in LIBRARIES.values()]
        + [source for source, _ in paper_examples.ALL.values()]
    )
    return "\n".join(sources + sources)


def bench_overhead(repeats: int) -> dict[str, object]:
    # Per-stage, best-of-N: each round times every front-end stage once
    # (the rounds interleave the stages, so CPU frequency drift cannot
    # systematically favour one), and the per-stage minimum estimates
    # its true cost.  The gate compares the pipeline with and without
    # the analyze stage from the *same* measurements.
    from repro.analysis.effects import ANALYSIS_METRICS, annotate_program
    from repro.expander import ExpandEnv, expand_program
    from repro.ir.compile import compile_program
    from repro.ir.resolve import resolve_program
    from repro.reader import read_all

    corpus = _corpus()
    session = Session(engine="compiled", analysis=False)
    env = ExpandEnv()
    env.macros.update(session.expand_env.macros)

    stages = ("read", "expand", "resolve", "compile", "analyze")
    best = {stage: float("inf") for stage in stages}
    # Rounds are cheap (~60ms each); a high floor keeps the per-stage
    # minima stable against scheduler jitter even at --repeats 1.
    for _ in range(max(repeats, 10)):
        t0 = time.process_time()
        datums = read_all(corpus)
        best["read"] = min(best["read"], time.process_time() - t0)
        t0 = time.process_time()
        nodes = expand_program(datums, env)
        best["expand"] = min(best["expand"], time.process_time() - t0)
        t0 = time.process_time()
        resolved = resolve_program(nodes, session.globals)
        best["resolve"] = min(best["resolve"], time.process_time() - t0)
        t0 = time.process_time()
        compile_program(resolved)
        best["compile"] = min(best["compile"], time.process_time() - t0)
        t0 = time.process_time()
        annotate_program(resolved, session.globals, ANALYSIS_METRICS())
        best["analyze"] = min(best["analyze"], time.process_time() - t0)
    front = sum(best[stage] for stage in stages if stage != "analyze")
    ratio = (front + best["analyze"]) / front if front else 1.0
    return {
        "corpus_forms": corpus.count("(define"),
        "stage_s": dict(best),
        "front_end_s": front,
        "analyze_s": best["analyze"],
        "overhead_ratio": ratio,
    }


def bench_speedup(repeats: int, smoke: bool) -> dict[str, object]:
    workloads = {
        "fib": FIB % (16 if smoke else 20),
        "tak": TAK % ((12, 6, 3) if smoke else (18, 12, 6)),
    }
    out: dict[str, object] = {"quantum": SPEEDUP_QUANTUM}
    for name, source in workloads.items():
        timings = {True: float("inf"), False: float("inf")}
        for _ in range(max(repeats, 3) if not smoke else repeats):
            for analysis in (True, False):  # interleaved on/off samples
                session = Session(
                    engine="compiled", quantum=SPEEDUP_QUANTUM, analysis=analysis
                )
                t0 = time.process_time()
                session.run(source)
                timings[analysis] = min(timings[analysis], time.process_time() - t0)
        out[name] = {
            "run_s_analysis_on": timings[True],
            "run_s_analysis_off": timings[False],
            "speedup": timings[False] / timings[True] if timings[True] else 1.0,
        }
    return out


def run_divergence() -> dict[str, object]:
    failures: list[str] = []
    probes = 0
    for engine in DIVERGENCE_ENGINES:
        for quantum in DIVERGENCE_QUANTA:
            for name, source in DIVERGENCE_WORKLOADS:
                probes += 1
                runs = {}
                for analysis in (True, False):
                    session = Session(
                        engine=engine, quantum=quantum, seed=5, analysis=analysis
                    )
                    session.run(source)
                    runs[analysis] = (
                        session.output_text(),
                        session.machine.steps_total,
                        dict(session.machine.stats),
                    )
                if runs[True] != runs[False]:
                    failures.append(f"{engine}/q{quantum}/{name}")
    return {
        "engines": list(DIVERGENCE_ENGINES),
        "quanta": list(DIVERGENCE_QUANTA),
        "workloads": [name for name, _ in DIVERGENCE_WORKLOADS],
        "probes": probes,
        "failures": failures,
        "agree": not failures,
    }


def _merge_out(path: str, payload: dict[str, object]) -> None:
    data: dict[str, object] = {}
    if os.path.exists(path):
        try:
            with open(path, encoding="utf-8") as handle:
                data = json.load(handle)
        except (OSError, ValueError):
            data = {}
    data["analysis"] = payload
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=2)
        handle.write("\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out",
        default=os.path.join(_ROOT, "BENCH_results.json"),
        help="result JSON path; the analysis section merges into an "
        "existing run_all.py file (default: BENCH_results.json)",
    )
    parser.add_argument("--repeats", type=int, default=3, help="best-of-N")
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI mode: divergence gated, single-repeat timings "
        "reported but not gated (shared runners)",
    )
    args = parser.parse_args(argv)
    repeats = 1 if args.smoke else max(1, args.repeats)

    divergence = run_divergence()
    overhead = bench_overhead(repeats)
    speedup = bench_speedup(repeats, args.smoke)

    overhead_ok = overhead["overhead_ratio"] <= OVERHEAD_CEILING  # type: ignore[operator]
    speedups = {
        name: timing["speedup"]
        for name, timing in speedup.items()
        if isinstance(timing, dict)
    }
    geomean = 1.0
    for s in speedups.values():
        geomean *= s
    geomean **= 1.0 / max(1, len(speedups))
    speedup_ok = geomean >= SPEEDUP_FLOOR
    if args.smoke:
        acceptance_pass = bool(divergence["agree"])
    else:
        acceptance_pass = bool(divergence["agree"]) and overhead_ok and speedup_ok

    payload = {
        "repeats": repeats,
        "smoke": args.smoke,
        "overhead": overhead,
        "speedup": speedup,
        "divergence": divergence,
        "acceptance": {
            "overhead_ceiling": OVERHEAD_CEILING,
            "overhead_ratio": overhead["overhead_ratio"],
            "overhead_ok": overhead_ok,
            "speedup_floor": SPEEDUP_FLOOR,
            "speedups": speedups,
            "speedup_geomean": geomean,
            "speedup_ok": speedup_ok,
            "divergence_ok": divergence["agree"],
            "pass": acceptance_pass,
        },
    }
    _merge_out(args.out, payload)
    print(f"\nwrote analysis section to {args.out}")
    status = "pass" if acceptance_pass else "FAIL"
    detail = " ".join(f"{name}={s:.2f}x" for name, s in speedups.items())
    print(
        f"acceptance [{status}]: divergence_ok={divergence['agree']} "
        f"({divergence['probes']} probes) "
        f"front-end overhead {overhead['overhead_ratio']:.3f}x "
        f"(ceiling {OVERHEAD_CEILING}x) "
        f"speedup geomean {geomean:.2f}x [{detail}] (floor {SPEEDUP_FLOOR}x"
        + (", timings not gated in --smoke" if args.smoke else "")
        + ")"
    )
    return 0 if acceptance_pass else 1


if __name__ == "__main__":
    sys.exit(main())
