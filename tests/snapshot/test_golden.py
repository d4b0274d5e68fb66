"""Golden snapshot bytes: the wire format does not drift.

A fixed corpus of sessions — idle, suspended mid-``pcall``, holding a
parked future, a captured continuation, a gensym-named global cell, a
user macro, a redefined prelude name — is built in a fresh interpreter
process under each engine, and the SHA-256 of each blob is pinned.  A
fresh process, because a header carries the process-wide uid
watermarks; frozen clocks, because a live handle's blob carries its age
and a codegen session's its emit time.

The digests are ``_CORPUS``'s output on the 3.0.0 source, which defines
wire version 5, so they hold the codec to the bytes that release
writes.  Regenerate them only with a deliberate wire-format bump, by
running :func:`corpus_digests` on an exported copy of the ``src/`` of
the build that defines the new format.  The version 4 blobs behind the
previous table are kept as ``tests/snapshot/legacy/v4-*.rsnp``.
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

#: ``_CORPUS``'s output on the 3.0.0 source (wire version 5).
GOLDEN = {
    "codegen/captured_continuation": "76d5dfae080cc2f43af83d5c51b9a1d9b67b0a46c7aeda54fbb7b12a49203bd6",
    "codegen/gensym_cell": "8ffd6c7151d5f11ad26c19c317a63279b48307ce14047e8861d0672f57860259",
    "codegen/idle": "0d3de941cdee415ffafb653f377fbfcdc14404cabb3b73d00cdea9d21f24eba2",
    "codegen/mid_pcall": "357d6a211865a9a83830e210050cd770512819acdba019165aca87efadd8a20b",
    "codegen/parked_future": "5d2dd6003412a0e46d1803e67648439244b99d032a0b37d60634180386ca17cd",
    "codegen/redefined_prelude_name": "7fe76c7ec88e9bc12d9f578c93a960ec0eafd9c56b1458a7d96d165d2cfcdbda",
    "codegen/user_macro": "465fc5acef7ef5440d86436deb4e0eac5039e0a4da17ecb7b789bdf23a8d752b",
    "compiled/captured_continuation": "29d00e038bd4c3ee5e22ce4a892a5e960400e83fb721565819a3bc2eaa742458",
    "compiled/gensym_cell": "ab0f4afe43045cb6a276f93407db8c9323c2ab3043dec4f027d8dfbcb795abde",
    "compiled/idle": "430001f3021952253df1d73195d7bf884cb584ab9d37628cd879cef3c4b1fa8b",
    "compiled/mid_pcall": "cef73b89f4d40ca1cc8edb40a915678cb43e4cc353a8e4c3f02d0b44c1af4a94",
    "compiled/parked_future": "4db46a0cbe7e9a56bb3504d3d7fe50c56d61b260f31cc4a9b1bb46b971855547",
    "compiled/redefined_prelude_name": "2320d8aa9c39a138a0b1d6181036da29c99f17a9a11d22943ec9f95728232f4a",
    "compiled/user_macro": "5f941ed26573730f525e41d20225eb1496127150ef9d28110aa36f0d3b8184b4",
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
