"""Golden snapshot bytes: the wire format does not drift.

A fixed corpus of sessions — idle, suspended mid-``pcall``, holding a
parked future, a captured continuation, a gensym-named global cell, a
user macro, a redefined prelude name — is built in a fresh interpreter
process under each engine, and the SHA-256 of each blob is pinned.  A
fresh process, because a header carries the process-wide uid
watermarks; frozen clocks, because a live handle's blob carries its age
and a codegen session's its emit time.

The digests are ``_CORPUS``'s output on the 1.8.0 source, exported with
``git archive`` rather than taken from the working tree, so they hold
the codec to the bytes that release wrote.  Regenerate them only with a
deliberate wire-format bump, by running :func:`corpus_digests` on the
exported ``src/`` of the build that defines the new format.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

_CORPUS = r"""
import hashlib, json, time

# Frozen clocks, set before repro binds them: a live handle's age and
# the codegen metrics' emit time both read 0.
time.monotonic = lambda: 1000.0
time.perf_counter = lambda: 0.0

from repro import Session
from repro.datum import gensym, intern
from repro.ir.nodes import Const, DefineTop, Lambda, Var


def idle(engine):
    s = Session(engine=engine)
    s.run("(define counter 0) (define (bump!) (set! counter (+ counter 1)) counter)")
    s.run("(bump!)")
    return s


def mid_pcall(engine):
    s = Session(engine=engine, quantum=8)
    s.submit(
        "(define (loop n) (if (= n 0) 0 (loop (- n 1))))"
        "(display (pcall + (loop 40) (loop 60) (loop 25)))"
    )
    s.pump(5)
    return s


def parked_future(engine):
    s = Session(engine=engine)
    s.run("(define (loop n) (if (= n 0) 7 (loop (- n 1))))")
    s.run("(define f (future (lambda () (loop 500))))")
    return s


def captured_continuation(engine):
    s = Session(engine=engine)
    s.run(
        "(define saved #f)"
        "(define out (spawn (lambda (c) (+ 100 (c (lambda (k) (set! saved k) 5))))))"
    )
    return s


def gensym_cell(engine):
    s = Session(engine=engine)
    hidden = gensym("hidden")
    peek = Lambda((), None, Var(hidden))
    s.drive(s._enqueue([DefineTop(hidden, Const(41)), DefineTop(intern("peek"), peek)]))
    return s


def user_macro(engine):
    s = Session(engine=engine)
    s.run(
        "(define-syntax swap! (syntax-rules ()"
        " ((_ a b) (let ((t a)) (set! a b) (set! b t)))))"
        "(define x 1) (define y 2) (swap! x y)"
    )
    return s


def redefined_prelude_name(engine):
    s = Session(engine=engine)
    s.run("(define (filter keep? ls) 'mine) (set! identity 42)")
    return s


CASES = (
    idle,
    mid_pcall,
    parked_future,
    captured_continuation,
    gensym_cell,
    user_macro,
    redefined_prelude_name,
)
digests = {}
for engine in ("compiled", "codegen"):
    for case in CASES:
        blob = case(engine).snapshot()
        digests[f"{engine}/{case.__name__}"] = hashlib.sha256(blob).hexdigest()
print(json.dumps(digests, indent=1, sort_keys=True))
"""

#: ``_CORPUS``'s output on the 1.8.0 source.
GOLDEN = {
    "codegen/captured_continuation": "b7abb9aec9de621a2abcc73aa77165d9dc7bbace7bad9ae0b6bb8d607a71aea2",
    "codegen/gensym_cell": "410617aa9d489dea3adc7a040367b21fe6e3419ece5b281777b87ddfc3ad1772",
    "codegen/idle": "6be2c376e66d3bb100553fcd2f7b7acbbe82efe9a9224e82b972c89e7c1a7900",
    "codegen/mid_pcall": "f1f4b7358bb966179b0e19c9134a5124c0c5f6d70fc5eb7ed6dd1c68286d6a49",
    "codegen/parked_future": "9aa08e43401ff3486ad1b3b9ce2783b9fdea8d6ea3c88dc58cfcf58a05f0c438",
    "codegen/redefined_prelude_name": "f323428f86ff9d1e5ca929de2825600b1a16f2258ff323e911f7dfe937b6b3cc",
    "codegen/user_macro": "6046e735d70d2ef1db61811e29bd834498f752ffdc66ff4e0706d641a7bb7cd8",
    "compiled/captured_continuation": "d821e1d19c2551a095853d8c846a0699f210661b6bdb666434ba541045c5c623",
    "compiled/gensym_cell": "ef7432561d58e5d607a51f650c9fd0a4665faed27b59fe8cd7b8853ae40b0631",
    "compiled/idle": "28148904f5db8b0e490737bc113d29c2d6521d5034346fed27b7e7b8c937f9b1",
    "compiled/mid_pcall": "43545133ea1f9a3c0aade0dc0b0e675fc5700fc37e0e6c8b866a7f7b1e5a4e43",
    "compiled/parked_future": "3c95f789a8b55a891153bc6e990f3e13b6fd406c2dacbccaf73e45e1dfb20d09",
    "compiled/redefined_prelude_name": "75fdb729655377939c12e86f2381e348a59e6c6a81d41fb08518fd84c12a3070",
    "compiled/user_macro": "2527e49da4c4a0b149ba454db63b08cbe7b22b1f48436631e4c5de84a0bf0fed",
}


def corpus_digests(src: str) -> dict[str, str]:
    """Run ``_CORPUS`` in a fresh interpreter over the source tree
    ``src``; returns its case → blob-digest map."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src), PYTHONHASHSEED="0")
    proc = subprocess.run(
        [sys.executable, "-c", _CORPUS],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_blobs_are_byte_identical_to_the_pinned_corpus():
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    assert corpus_digests(src) == GOLDEN
