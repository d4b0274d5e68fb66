#!/usr/bin/env python
"""One-shot benchmark driver: every experiment plus the engine A/B.

    PYTHONPATH=src python benchmarks/run_all.py            # full run
    PYTHONPATH=src python benchmarks/run_all.py --fast     # 1 repeat
    PYTHONPATH=src python benchmarks/run_all.py --smoke    # CI smoke
    PYTHONPATH=src python benchmarks/run_all.py --out x.json

Runs the E1–E10 experiment suite (shape assertions, timed), then the
engine A/B: each workload under ``engine="compiled"`` (resolved IR
closure-compiled to code thunks, the reference engine) and
``engine="codegen"`` (resolved IR emitted as Python source, the fast
path), best-of-N CPU time each, plus the codegen-over-compiled ratio.
Every A/B workload and a set of control-operator probes are also
cross-checked for divergence across engines × scheduler policies ×
batch quanta: every configuration must produce identical values.
Everything lands machine-readable in ``BENCH_results.json`` at the repo
root, stamped with the engine list and the git SHA.

Exit status is non-zero when an experiment shape assertion fails or
any configuration diverges on any probe.  The g/c ratio is reported,
not gated here: ``bench_codegen.py`` owns codegen's speedup floor.

``--smoke`` is the CI mode: best-of-3, no experiment suite, and the
exit status reflects divergence only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if os.path.isdir(os.path.join(_ROOT, "src")):
    sys.path.insert(0, os.path.join(_ROOT, "src"))

from repro import experiments  # noqa: E402
from repro.api import Interpreter  # noqa: E402
from repro.machine.scheduler import ENGINES  # noqa: E402

#: Divergence-check matrix: batching must be unobservable at every
#: batch size.
DIVERGENCE_QUANTA = (1, 16, 4096)
DIVERGENCE_POLICIES = ("serial", "round-robin", "random")

_SSIZE = 400  # E1 product list length


def _product_list() -> str:
    return "(" + " ".join("2" for _ in range(_SSIZE)) + ")"


#: A/B workloads: name -> (setup-source | "@example:<name>", timed expression).
AB_WORKLOADS: dict[str, tuple[str, str]] = {
    "e1-product": ("@example:product-callcc", f"(product '{_product_list()})"),
    "e9-deep-capture": (
        """
        (define (build n)
          (if (= n 0)
              (call/cc (lambda (k) 0))
              (+ 1 (build (- n 1)))))
        """,
        "(build 2000)",
    ),
    "fib-18": (
        "(define (fib n) (if (< n 2) n (+ (fib (- n 1)) (fib (- n 2)))))",
        "(fib 18)",
    ),
    "tak-12-8-4": (
        """
        (define (tak x y z)
          (if (not (< y x))
              z
              (tak (tak (- x 1) y z)
                   (tak (- y 1) z x)
                   (tak (- z 1) x y))))
        """,
        "(tak 12 8 4)",
    ),
    "mutual-recursion": (
        """
        (define (even2? n) (if (= n 0) #t (odd2? (- n 1))))
        (define (odd2? n) (if (= n 0) #f (even2? (- n 1))))
        """,
        "(even2? 20000)",
    ),
    "list-ops": (
        "",
        "(length (reverse (append (iota 300) (map add1 (iota 300)))))",
    ),
}

#: Control-operator probes for the engine-divergence check (values must
#: be identical under both engines; these exercise capture,
#: reinstatement, forks, delimited control and futures — the paths a
#: compiler bug would most plausibly corrupt).
DIVERGENCE_PROBES: dict[str, tuple[str, str]] = {
    "callcc-exit": (
        "@example:product-callcc",
        "(product '(1 2 3 0 5 6))",
    ),
    "spawn-compose": (
        "",
        "(+ 1 (spawn (lambda (c) (+ 2 (c (lambda (k) (+ 10 (k 100))))))))",
    ),
    "spawn-multi-shot": (
        """
        (define saved #f)
        (define (grab c) (c (lambda (k) (set! saved k) 0)))
        """,
        "(let ((r1 (spawn (lambda (c) (+ 1 (grab c)))))) (list r1 (saved 10) (saved 20)))",
    ),
    "pcall-fork": ("", "(pcall + (pcall * 2 3) (pcall - 10 4) 100)"),
    "prompt-F": (
        "",
        "(+ 1 (prompt (+ 10 (F (lambda (k) (k (k 100)))))))",
    ),
    "futures": (
        "",
        "(let ((p (future (lambda () (* 6 7))))) (+ (touch p) 1))",
    ),
    "set-through-capture": (
        """
        (define counter 0)
        (define k2 #f)
        """,
        """
        (begin
          (prompt (begin (F (lambda (k) (set! k2 k) 0))
                         (set! counter (+ counter 1))
                         counter))
          (k2 0)
          (k2 0)
          counter)
        """,
    ),
}


def _fresh(
    engine: str,
    name: str,
    workloads: dict[str, tuple[str, str]],
    *,
    policy: str = "serial",
    quantum: int = 16,
    seed: int | None = None,
) -> Interpreter:
    setup, _ = workloads[name]
    interp = Interpreter(policy=policy, engine=engine, quantum=quantum, seed=seed)
    if setup.startswith("@example:"):
        interp.load_paper_example(setup[len("@example:") :])
    elif setup:
        interp.run(setup)
    return interp


def _time_workload(name: str, engine: str, repeats: int) -> float:
    # CPU time, not wall clock: the workloads are single-threaded and
    # allocation-bound, and on a shared box wall-clock best-of-N still
    # swings by 30-40% run to run, which is far larger than the effects
    # the A/B gates measure.  process_time is stable to a few percent.
    _, expr = AB_WORKLOADS[name]
    best = float("inf")
    for _ in range(repeats):
        interp = _fresh(engine, name, AB_WORKLOADS)
        start = time.process_time()
        interp.eval(expr)
        best = min(best, time.process_time() - start)
    return best


def run_ab(repeats: int) -> dict[str, dict[str, float]]:
    """The engine A/B: compiled (code thunks) vs codegen (emitted
    Python), both on the one batched run loop."""
    print("\n=== A/B  compiled (code thunks) vs codegen (emitted Python) ===")
    results: dict[str, dict[str, float]] = {}
    for name in AB_WORKLOADS:
        times = {engine: _time_workload(name, engine, repeats) for engine in ENGINES}
        codegen_vs_compiled = (
            times["compiled"] / times["codegen"] if times["codegen"] else float("inf")
        )
        print(
            f"  {name:18s} compiled={times['compiled'] * 1e3:8.2f}ms  "
            f"codegen={times['codegen'] * 1e3:8.2f}ms  "
            f"g/c={codegen_vs_compiled:5.2f}x"
        )
        results[name] = {
            "compiled_s": times["compiled"],
            "codegen_s": times["codegen"],
            "codegen_over_compiled": round(codegen_vs_compiled, 3),
        }
    return results


def run_divergence() -> dict[str, dict[str, object]]:
    """Evaluate every A/B workload and control probe across the
    configuration matrix — engine × policy × quantum — and record the
    values and whether they all agree.  Batching must be unobservable:
    the same value at every batch size."""
    print("\n=== engine divergence check (engines × policies × quanta) ===")
    results: dict[str, dict[str, object]] = {}
    configs = [
        (
            f"{engine}/{policy}/q{quantum}",
            dict(engine=engine, policy=policy, quantum=quantum),
        )
        for engine in ENGINES
        for policy in DIVERGENCE_POLICIES
        for quantum in DIVERGENCE_QUANTA
    ]
    # The timed workloads are big; give them the per-engine sweep.  The
    # control probes are small: they get the full engine × policy ×
    # quantum matrix.
    workload_configs = [
        (label, config)
        for label, config in configs
        if config["policy"] == "serial" and config["quantum"] == 16
    ]
    suites = (AB_WORKLOADS, DIVERGENCE_PROBES)
    for suite in suites:
        for name in suite:
            _, expr = suite[name]
            values: dict[str, str] = {}
            matrix = configs if suite is DIVERGENCE_PROBES else workload_configs
            for label, config in matrix:
                try:
                    interp = _fresh(
                        config["engine"],  # type: ignore[arg-type]
                        name,
                        suite,
                        policy=config["policy"],  # type: ignore[arg-type]
                        quantum=config["quantum"],  # type: ignore[arg-type]
                        seed=11,
                    )
                    values[label] = interp.eval_to_string(expr)
                except Exception as exc:  # noqa: BLE001 - recorded, not hidden
                    values[label] = f"<{type(exc).__name__}: {exc}>"
            agree = len(set(values.values())) == 1
            marker = "ok " if agree else "DIVERGED"
            print(f"  [{marker}] {name:22s} {values['compiled/serial/q16']}")
            results[name] = {"values": values, "agree": agree}
    return results


def run_experiments() -> dict[str, dict[str, object]]:
    report = experiments.Report()
    timed: dict[str, dict[str, object]] = {}
    for runner in experiments.RUNNERS:
        failures_before = len(report.failures)
        start = time.perf_counter()
        runner(report)
        timed[runner.__name__] = {
            "seconds": round(time.perf_counter() - start, 4),
            "ok": len(report.failures) == failures_before,
        }
    if report.failures:
        print(f"\n{len(report.failures)} experiment shape assertion(s) FAILED")
    return timed


def run_vm_profile() -> dict[str, dict[str, int]]:
    """Run a loop workload and a capture workload on a profiling
    machine and record the VM run-loop counters — quanta executed,
    spill causes, and per-step write-backs the batching avoided."""
    print("\n=== VM run-loop profile (batched, serial) ===")
    out: dict[str, dict[str, int]] = {}
    for name in ("fib-18", "e9-deep-capture"):
        setup, expr = AB_WORKLOADS[name]
        interp = Interpreter(policy="serial", engine="compiled", profile=True)
        if setup.startswith("@example:"):
            interp.load_paper_example(setup[len("@example:") :])
        elif setup:
            interp.run(setup)
        interp.eval(expr)
        counters = dict(interp.machine.vm_stats)
        out[name] = counters
        spills = sum(v for k, v in counters.items() if k.startswith("vm_spill_"))
        print(
            f"  {name:18s} quanta={counters['vm_quanta']:<6d} "
            f"steps={counters['vm_quantum_steps']:<8d} spills={spills:<6d} "
            f"write-backs avoided={counters['vm_allocations_avoided']}"
        )
    return out


def _git_sha() -> str:
    try:
        return (
            subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=_ROOT,
                capture_output=True,
                text=True,
                check=True,
                timeout=10,
            ).stdout.strip()
            or "unknown"
        )
    except Exception:  # noqa: BLE001 - best-effort stamp
        return "unknown"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out",
        default=os.path.join(_ROOT, "BENCH_results.json"),
        help="result JSON path (default: BENCH_results.json at repo root)",
    )
    parser.add_argument("--repeats", type=int, default=3, help="A/B best-of-N")
    parser.add_argument(
        "--fast", action="store_true", help="single repeat (quick local run)"
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI mode: best-of-3, skip the experiment suite, exit status "
        "keyed to engine divergence",
    )
    args = parser.parse_args(argv)
    if args.fast:
        repeats = 1
    elif args.smoke:
        repeats = 3
    else:
        repeats = max(1, args.repeats)

    experiment_results = {} if args.smoke else run_experiments()
    ab_results = run_ab(repeats)
    divergence_results = run_divergence()

    engines_agree = all(entry["agree"] for entry in divergence_results.values())
    experiments_ok = all(entry["ok"] for entry in experiment_results.values())
    acceptance_pass = engines_agree and experiments_ok

    payload = {
        "meta": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "repeats": repeats,
            "engines": list(ENGINES),
            "git_sha": _git_sha(),
            "smoke": args.smoke,
        },
        "experiments": experiment_results,
        "ab": ab_results,
        "divergence": divergence_results,
        "vm_profile": run_vm_profile(),
        "acceptance": {
            "engines_agree": engines_agree,
            "experiments_ok": experiments_ok,
            "pass": acceptance_pass,
        },
    }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")

    print(f"\nwrote {args.out}")
    status = "pass" if acceptance_pass else "FAIL"
    print(
        f"acceptance [{status}]: engines_agree={engines_agree}"
        + ("" if args.smoke else f"  experiments_ok={experiments_ok}")
    )
    return 0 if acceptance_pass else 1


if __name__ == "__main__":
    sys.exit(main())
