#!/usr/bin/env python3
"""Multi-tenant serving on one thread: the host runtime demo.

Eight isolated interpreter sessions — each a full Scheme system with
its own globals and process tree — share one Python thread under a
:class:`repro.host.Host`.  The tenants run the paper's capture-heavy
programs (``sum-of-products``, ``parallel-or``: real ``pcall`` trees
with controllers and branch-local exits), suspended and resumed between
host ticks.  One tenant is a runaway loop with a per-request step
budget, one has an impossible wall-clock deadline, and one gets
cancelled mid-flight — all three die cleanly at a quantum boundary
while their neighbours' results come out exact.

Run:  python examples/host_serving.py

Exits non-zero if any well-behaved tenant's result is wrong or any
doomed tenant fails to die with the right error — CI runs this as an
acceptance check.
"""

import sys

from repro import Host
from repro.errors import DeadlineExceeded, SessionCancelled, StepBudgetExceeded
from repro.host import HandleState


def main() -> int:
    host = Host(policy="deficit", quantum=256)

    # -- eight tenants, mixed workloads ---------------------------------
    expected = {}
    handles = {}
    for k in range(8):
        sess = host.session(f"tenant-{k}", quantum=4)
        if k % 2 == 0:
            sess.load_paper_example("sum-of-products")
            handles[k] = host.submit(sess, f"(sum-of-products '(1 2 3) '(4 {k} 6))")
            expected[k] = 6 + 24 * k
        else:
            sess.load_paper_example("parallel-or")
            handles[k] = host.submit(sess, f"(parallel-or #f (* {k} {k}))")
            expected[k] = k * k

    # -- three doomed requests ------------------------------------------
    runaway = host.session("runaway")
    runaway.run("(define (loop n) (loop (+ n 1)))")
    budgeted = host.submit(runaway, "(loop 0)", max_steps=10_000)

    impatient = host.session("impatient")
    impatient.run("(define (loop n) (loop (+ n 1)))")
    late = host.submit(impatient, "(loop 0)", deadline=0.05)

    flighty = host.session("flighty", quantum=4)
    flighty.run("(define (spin n) (if (= n 0) 0 (spin (- n 1))))")
    # A long pcall: both branches suspended mid-flight when the cancel
    # lands a couple of ticks in.
    doomed = host.submit(flighty, "(pcall + (spin 1000000) (spin 1000000))")

    # -- serve ----------------------------------------------------------
    print(f"serving {host.queue_depth} requests across {len(host)} sessions...")
    ticks = 0
    cancelled = False
    while not host.idle:
        host.tick()
        ticks += 1
        if ticks == 2 and not cancelled:
            doomed.cancel()  # tenant hung up mid-flight
            cancelled = True
    print(f"drained in {ticks} ticks, {host.metrics.steps_served} machine steps\n")

    # -- results --------------------------------------------------------
    failures = 0
    for k in sorted(handles):
        got = handles[k].result()
        ok = got == expected[k]
        failures += not ok
        print(f"  tenant-{k}: {got!r:8} (expected {expected[k]!r}) "
              f"[{'ok' if ok else 'WRONG'}] steps={handles[k].steps}")

    for name, handle, want in [
        ("runaway ", budgeted, StepBudgetExceeded),
        ("impatient", late, DeadlineExceeded),
        ("flighty  ", doomed, SessionCancelled),
    ]:
        exc = handle.exception()
        ok = isinstance(exc, want)
        if name.strip() == "runaway":
            ok = ok and handle.steps == 10_000  # budgets are exact
        if name.strip() == "flighty":
            ok = ok and handle.state is HandleState.CANCELLED
        failures += not ok
        print(f"  {name}: {type(exc).__name__}@{handle.steps} steps "
              f"[{'ok' if ok else 'WRONG'}]")

    # The doomed sessions are not corrupted — they keep serving:
    assert host.submit(runaway, "(+ 40 2)").result() == 42
    host.run_until_idle()

    print("\nhost counters:")
    for key, value in host.stats.items():
        print(f"  {key:32s} {value}")

    if failures:
        print(f"\n{failures} FAILURES")
        return 1
    print("\nall tenants correct; all dooms enforced cleanly")
    return 0


if __name__ == "__main__":
    sys.exit(main())
