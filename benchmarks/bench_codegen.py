#!/usr/bin/env python
"""Codegen engine benchmark: speedup floor, emit overhead and the
zero-divergence gate for the codegen engine.

    PYTHONPATH=src python benchmarks/bench_codegen.py           # full run
    PYTHONPATH=src python benchmarks/bench_codegen.py --smoke   # CI mode
    PYTHONPATH=src python benchmarks/bench_codegen.py --out x.json

Three measurements:

* **Speedup** — the point of the engine: fib, tak and a mutual
  recursion (best-of-N CPU time, interleaved samples) under
  ``engine="codegen"`` vs the ``engine="compiled"`` baseline.
  The gate is a geometric mean of at least ``SPEEDUP_FLOOR``; the mean
  gates the mechanism rather than one workload's step-shape ceiling.
* **Emit overhead** — first-emit cost (``codegen.emit_us``: walk the
  IR, build the source, ``compile()``, ``exec``) must stay under
  ``EMIT_OVERHEAD_CEILING`` of the end-to-end E1 suite wall time; the
  ir-hash code cache makes every later session in the process hit.
* **Divergence** — the acceptance gate: every engine (compiled,
  codegen) × analysis {on, off} × quantum {1, 16, 4096} run of every
  workload must print the same output and agree with the other
  analysis/quantum cells of its engine on values; analysis on vs off
  must additionally match on total step count and machine stats.  Any
  spread fails the run.

``--smoke`` (CI) gates divergence and emit overhead and reports the
speedup ratios without gating them (shared runners drift too much for
a single-repeat CPU-time gate); the full run gates the speedup floor
too.  Results merge into ``BENCH_results.json`` under the
``"codegen"`` key, preserving whatever ``run_all.py`` already wrote.
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

#: The codegen engine must beat the compiled engine by at least this
#: much (geometric mean over the three workloads).
SPEEDUP_FLOOR = 2.0
#: First-emit cost may be at most this fraction of the end-to-end E1
#: suite run (prelude + example + evaluations, cold cache).
EMIT_OVERHEAD_CEILING = 0.10

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
MUTUAL = (
    "(define (even? n) (if (= n 0) #t (odd? (- n 1))))"
    "(define (odd? n) (if (= n 0) #f (even? (- n 1))))"
    " (even? %d)"
)

#: Divergence workloads: a pure self-recursive program (self-call
#: inline territory), a capture-heavy escape, a pcall tree and a
#: spawn/future mix — the paths where codegen must spill and delegate.
DIVERGENCE_WORKLOADS = [
    ("pure-fib", FIB % 12 + ""),
    (
        "capture-product",
        "(define (p l) (call/cc (lambda (k) (let loop ([l l])"
        " (if (null? l) 1 (if (= (car l) 0) (k 0)"
        " (* (car l) (loop (cdr l)))))))))"
        " (display (p '(1 2 3 0 5)))",
    ),
    (
        "pcall-tree",
        "(define (loop n acc) (if (= n 0) acc (loop (- n 1) (+ acc 1))))"
        " (display (pcall + (loop 40 0) (pcall + (loop 9 1) (loop 17 0))"
        " (loop 3 2)))",
    ),
    (
        "spawn-future-mix",
        "(display (spawn (lambda (c) (+ 1 (c (lambda (k) (k 10)))))))"
        " (display (touch (future (lambda () 32))))",
    ),
]


def bench_speedup(repeats: int, smoke: bool) -> dict[str, object]:
    workloads = {
        "fib": FIB % (14 if smoke else 18),
        "tak": TAK % ((10, 6, 3) if smoke else (12, 8, 4)),
        "mutual": MUTUAL % (1000 if smoke else 6000),
    }
    out: dict[str, object] = {}
    for name, source in workloads.items():
        timings = {"compiled": float("inf"), "codegen": float("inf")}
        for _ in range(max(repeats, 5) if not smoke else repeats):
            for engine in ("compiled", "codegen"):  # interleaved samples
                session = Session(engine=engine)
                t0 = time.process_time()
                session.run(source)
                timings[engine] = min(timings[engine], time.process_time() - t0)
        out[name] = {
            "run_s_compiled": timings["compiled"],
            "run_s_codegen": timings["codegen"],
            "speedup": (
                timings["compiled"] / timings["codegen"]
                if timings["codegen"]
                else 1.0
            ),
        }
    return out


def bench_emit_overhead(
    repeats: int, length: int = 1500, passes: int = 10
) -> dict[str, object]:
    """First-emit cost vs end-to-end on the E1 suite, cold cache.

    The end-to-end run is the paper's E1 zero-position sweep (a zero at
    the front, the middle, the back, and absent) over ``length``-element
    lists, iterated ``passes`` times — the same shape the timing cases
    of ``bench_e1_product_callcc.py`` iterate — so the gate compares a
    real workload against the one-time cost of walking the IR, building
    the source, ``compile()`` and ``exec``.  Emit time is one-time by
    construction: every pass after the first hits the ir-hash cache.
    The input lists are built by a small Scheme helper rather than
    pasted as giant literals, so emit cost stays independent of the
    workload size (a hoisted 1500-element constant would otherwise bill
    the data to the emitter).
    """
    from repro.ir.codegen import clear_cache

    build = (
        "(define (build n zero-at)"
        "  (if (= n 0) '()"
        "      (cons (if (= n zero-at) 0 2) (build (- n 1) zero-at))))"
    )
    # build counts n down from length, so zero-at=length puts the zero
    # first, 1 puts it last, and 0 never matches (no zero at all).
    sweeps = [
        f"(display (product (build {length} {zero_at})))"
        for zero_at in (length, length // 2, 1, 0)
    ]

    best_total = float("inf")
    best_emit = float("inf")
    for _ in range(max(repeats, 3)):
        clear_cache()  # force a genuinely cold first emit
        t0 = time.process_time()
        session = Session(engine="codegen")
        session.load_paper_example("product-callcc")
        session.run(build)
        for _ in range(passes):
            for source in sweeps:
                session.run(source)
        total = time.process_time() - t0
        emit = session.codegen_stats.emit_us / 1e6
        best_total = min(best_total, total)
        best_emit = min(best_emit, emit)
    return {
        "suite": (
            f"E1 product-callcc zero-position sweep "
            f"(length {length}, {passes} passes)"
        ),
        "end_to_end_s": best_total,
        "emit_s": best_emit,
        "emit_fraction": best_emit / best_total if best_total else 0.0,
    }


def run_divergence() -> dict[str, object]:
    failures: list[str] = []
    probes = 0
    for engine in DIVERGENCE_ENGINES:
        for name, source in DIVERGENCE_WORKLOADS:
            # Within one engine: every analysis × quantum cell must
            # print the same output; the analysis on/off pair at each
            # quantum must also agree on steps and machine stats.
            outputs = set()
            for quantum in DIVERGENCE_QUANTA:
                runs = {}
                for analysis in (True, False):
                    probes += 1
                    session = Session(
                        engine=engine, quantum=quantum, seed=5, analysis=analysis
                    )
                    session.run(source)
                    runs[analysis] = (
                        session.output_text(),
                        session.machine.steps_total,
                        dict(session.machine.stats),
                    )
                    outputs.add(runs[analysis][0])
                if runs[True] != runs[False]:
                    failures.append(f"{engine}/q{quantum}/{name}/analysis")
            if len(outputs) != 1:
                failures.append(f"{engine}/{name}/quantum-spread")
    # Engines must agree with each other on printed output too.
    for name, source in DIVERGENCE_WORKLOADS:
        outs = set()
        for engine in DIVERGENCE_ENGINES:
            probes += 1
            session = Session(engine=engine, quantum=16, seed=5)
            session.run(source)
            outs.add(session.output_text())
        if len(outs) != 1:
            failures.append(f"cross-engine/{name}")
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
    data["codegen"] = payload
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=2)
        handle.write("\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out",
        default=os.path.join(_ROOT, "BENCH_results.json"),
        help="result JSON path; the codegen section merges into an "
        "existing run_all.py file (default: BENCH_results.json)",
    )
    parser.add_argument("--repeats", type=int, default=5, help="best-of-N")
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI mode: divergence and emit overhead gated, speedup "
        "ratios reported but not gated (shared runners)",
    )
    args = parser.parse_args(argv)
    repeats = 1 if args.smoke else max(1, args.repeats)

    divergence = run_divergence()
    speedup = bench_speedup(repeats, args.smoke)
    emit = bench_emit_overhead(repeats)

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
    emit_ok = emit["emit_fraction"] <= EMIT_OVERHEAD_CEILING  # type: ignore[operator]
    if args.smoke:
        acceptance_pass = bool(divergence["agree"]) and emit_ok
    else:
        acceptance_pass = bool(divergence["agree"]) and emit_ok and speedup_ok

    payload = {
        "repeats": repeats,
        "smoke": args.smoke,
        "speedup": speedup,
        "emit_overhead": emit,
        "divergence": divergence,
        "acceptance": {
            "speedup_floor": SPEEDUP_FLOOR,
            "speedups": speedups,
            "speedup_geomean": geomean,
            "speedup_ok": speedup_ok,
            "emit_overhead_ceiling": EMIT_OVERHEAD_CEILING,
            "emit_fraction": emit["emit_fraction"],
            "emit_ok": emit_ok,
            "divergence_ok": divergence["agree"],
            "pass": acceptance_pass,
        },
    }
    _merge_out(args.out, payload)
    print(f"\nwrote codegen section to {args.out}")
    status = "pass" if acceptance_pass else "FAIL"
    detail = " ".join(f"{name}={s:.2f}x" for name, s in speedups.items())
    print(
        f"acceptance [{status}]: divergence_ok={divergence['agree']} "
        f"({divergence['probes']} probes) "
        f"emit fraction {emit['emit_fraction']:.3f} "
        f"(ceiling {EMIT_OVERHEAD_CEILING}) "
        f"speedup geomean {geomean:.2f}x [{detail}] (floor {SPEEDUP_FLOOR}x"
        + (", timings not gated in --smoke" if args.smoke else "")
        + ")"
    )
    return 0 if acceptance_pass else 1


if __name__ == "__main__":
    sys.exit(main())
