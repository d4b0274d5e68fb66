"""Randomized snapshot/restore equivalence.

A seeded generator produces concurrent programs mixing ``pcall`` trees,
futures, ``spawn`` captures and ``call/cc`` with quoted list and vector
constants and the gensym-binding ``do``/``case``/``or`` forms; each is
run two ways — straight through, and interrupted mid-flight /
snapshotted / restored / drained — and the two runs must agree
byte-for-byte on output and step-for-step on machine stats, across the
engine × quantum divergence matrix.  A subprocess subset proves the blob carries everything across
a process boundary (fresh interned-symbol table, fresh uid counters,
recompiled code).
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys

import pytest

from repro import Session
from tests.engines import make_session

# Not codegen: a restored closure's body is re-emitted on its own,
# without the self-call inlining its defining form gave it, so a
# restored run legitimately takes more steps (and tasks) than the
# straight one.
ENGINES = ["dict", "resolved", "compiled"]
QUANTA = [1, 16, 4096]

PRELUDE = (
    "(define (loop n acc) (if (= n 0) acc (loop (- n 1) (+ acc 1))))"
)


def gen_leaf(rng: random.Random) -> str:
    """A loop, or a read of a quoted list or vector constant."""
    roll = rng.random()
    if roll < 0.6:
        return f"(loop {rng.randint(4, 30)} {rng.randint(0, 4)})"
    items = " ".join(str(rng.randint(0, 9)) for _ in range(rng.randint(1, 4)))
    if roll < 0.8:
        return f"(apply + '({items}))"
    return f"(vector-ref '#({items}) 0)"


def gen_expr(rng: random.Random, depth: int = 0, in_future: bool = False) -> str:
    """One expression of the concurrency-heavy fragment.

    ``in_future`` suppresses the whole-tree ``call/cc`` arm: a future's
    tree is independent (Section 8), so a whole-tree capture from
    inside one is an error by design, not a program we want to
    generate.
    """
    roll = rng.random()
    if depth >= 2 or roll < 0.25:
        return gen_leaf(rng)
    if roll < 0.45:
        arms = " ".join(
            gen_expr(rng, depth + 1, in_future) for _ in range(rng.randint(2, 4))
        )
        return f"(pcall + {arms})"
    if roll < 0.57:
        return f"(touch (future (lambda () {gen_expr(rng, depth + 1, True)})))"
    if roll < 0.69:
        # The derived forms bind gensym-named locals (the loop, the case
        # key, the or temporary), and their clauses hold quoted
        # constants: a capture inside them suspends code over both.
        inner = gen_expr(rng, depth + 1, in_future)
        shape = rng.randrange(3)
        if shape == 0:
            return f"(do ((i 0 (+ i 1)) (acc 0 (+ acc {inner}))) ((= i {rng.randint(1, 3)}) acc))"
        if shape == 1:
            return (
                f"(case (remainder {inner} 4) ((0 1) (car '(10 11)))"
                " ((2) (vector-ref '#(20 21) 1)) (else 30))"
            )
        return f"(or (memv {inner} '(-1 -2)) {gen_expr(rng, depth + 1, in_future)})"
    if roll < 0.87 or in_future:
        # A spawn whose controller captures and immediately reinstates:
        # exercises Capture packaging mid-run.  Valid anywhere — the
        # controller's label lives in the expression's own tree.
        inner = gen_expr(rng, depth + 1, in_future)
        outer = gen_expr(rng, depth + 1, in_future)
        return f"(spawn (lambda (c) (+ {outer} (c (lambda (k) (k {inner}))))))"
    return f"(call/cc (lambda (k) (+ 1 (k {gen_expr(rng, depth + 1)}))))"


def gen_program(seed: int) -> str:
    rng = random.Random(seed)
    forms = [PRELUDE]
    for _ in range(rng.randint(2, 4)):
        forms.append(f'(display {gen_expr(rng)}) (display " ")')
    # End with a future parked across a form boundary, touched late.
    forms.append(
        f"(define parked (future (lambda () {gen_expr(rng, in_future=True)})))"
    )
    forms.append("(display (touch parked))")
    return " ".join(forms)


def drain(session: Session) -> None:
    while not session.idle:
        session.pump(10_000)


def run_reference(
    program: str, engine: str, quantum: int, seed: int, prefix: list[int] = ()
) -> Session:
    """A straight (never-snapshotted) run, pumped with exactly the
    budget schedule the interrupted run will use: ``prefix`` budgets
    first, then 10k-step drain chunks.  The schedules must match
    because pump granularity is itself (deliberately) observable in
    ``tasks_created`` on the compiled engine — a tiny budget can force
    a spill that materializes a task the batched driver would have
    avoided."""
    s = make_session(engine, quantum=quantum, seed=seed)
    s.submit(program)
    for budget in prefix:
        if s.idle:
            break
        s.pump(budget)
    drain(s)
    return s


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("quantum", QUANTA)
def test_interrupt_snapshot_resume_matches_straight_run(engine, quantum):
    for seed in (11, 23):
        program = gen_program(seed)
        ref = run_reference(program, engine, quantum, seed=5, prefix=[7])

        s = make_session(engine, quantum=quantum, seed=5)
        s.submit(program)
        s.pump(7)  # interrupt mid-capture / mid-pcall / futures in flight
        blob = s.snapshot()
        r = Session.restore(blob)
        drain(r)
        assert r.output_text() == ref.output_text(), (engine, quantum, seed)
        assert r.machine.stats == ref.machine.stats, (engine, quantum, seed)


@pytest.mark.parametrize("engine", ENGINES)
def test_repeated_interruption(engine):
    """Snapshot/restore at *every* few quanta of progress — the
    composition of many round trips still matches one straight run."""
    program = gen_program(31)
    s = make_session(engine, quantum=16, seed=2)
    s.submit(program)
    rounds = 0
    for _ in range(50):
        if s.idle:
            break
        s.pump(5)
        s = Session.restore(s.snapshot())
        rounds += 1
    drain(s)
    ref = run_reference(program, engine, 16, seed=2, prefix=[5] * rounds)
    assert s.output_text() == ref.output_text()
    assert s.machine.stats == ref.machine.stats


_CHILD = r"""
import json, sys
from repro import Session

with open(sys.argv[1], "rb") as fh:
    blob = fh.read()
session = Session.restore(blob)
while not session.idle:
    session.pump(10_000)
print(json.dumps({
    "output": session.output_text(),
    "stats": {k: v for k, v in session.machine.stats.items()},
}))
"""


@pytest.mark.parametrize("engine", ENGINES)
def test_restore_in_fresh_process(tmp_path, engine):
    """The blob is self-contained: a brand-new interpreter process —
    fresh symbol table, fresh counters, nothing compiled — drains the
    suspended session to the same bytes."""
    program = gen_program(47)
    ref = run_reference(program, engine, 16, seed=9, prefix=[7])

    s = make_session(engine, quantum=16, seed=9)
    s.submit(program)
    s.pump(7)
    blob_path = tmp_path / "session.rsnp"
    blob_path.write_bytes(s.snapshot())

    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src)
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, str(blob_path)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    assert got["output"] == ref.output_text()
    assert got["stats"] == ref.machine.stats
