"""Golden snapshot bytes: the wire format does not drift.

A fixed corpus of sessions — idle, suspended mid-``pcall``, holding a
parked future, a captured continuation, a gensym-named global cell, a
user macro, a redefined prelude name — is built in a fresh interpreter
process under each engine, and the SHA-256 of each blob is pinned.  A
fresh process, because a header carries the process-wide uid
watermarks; frozen clocks, because a live handle's blob carries its age
and a codegen session's its emit time.

The digests are ``_CORPUS``'s output on the 3.1.0 source (wire version
5), so they hold the codec to the bytes that release writes.
Regenerate them only with a deliberate wire-format bump, by running
:func:`corpus_digests` on an exported copy of the ``src/`` of the build
that defines the new format.  The version 4 blobs behind an earlier
table are kept as ``tests/snapshot/legacy/v4-*.rsnp``.

3.1.0 re-pinned the table without a format change.  Its sessions bind
the prelude instead of running it, so a boot takes no task or label
uids and compiles nothing: the header's uid watermarks, the task and
label uids inside records (and so some record lengths), the machine's
counters and the compile/codegen metric roots hold smaller numbers,
and every blob decodes through the same sequence of wire reads as
before.  The 3.0.0 bytes are kept as ``tests/snapshot/legacy/v5-*.rsnp``.
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

#: ``_CORPUS``'s output on the 3.1.0 source (wire version 5).
GOLDEN = {
    "codegen/captured_continuation": "4c148fd7b55bd7d5087eb522c0d584e8772ad6fa2ebd91f6d01188bede205962",
    "codegen/gensym_cell": "a40f84b8df0ed4dc3b9da549be03d07192f4b61fa5d61806c9e93b6a71715276",
    "codegen/idle": "e77658718a6277c26b68b736d09b0e573908c49268791447d360b34f4e0ee322",
    "codegen/mid_pcall": "f9330f554b28ec1b0ec27f4a7b90ab0cb3b702c7d8d19f5af862c30ebe18bc4f",
    "codegen/parked_future": "78c8b7b93c41a9d1f88056de2e0ead5bf63bf20a3818d6de20d0760d65be1124",
    "codegen/redefined_prelude_name": "ac379082a869b3f618207e2b2fea0a24821d48eac7c8015d30fc1f83f159fe24",
    "codegen/user_macro": "6bb258f3f169abe93875a5be35301bb9983e4166a75d9be6d44e48c54132e1e6",
    "compiled/captured_continuation": "978a013f08557a91d1a369bc11d8ddf6ca5d27515c3c6554f29e82fc3b4beee7",
    "compiled/gensym_cell": "826ee7861176b233d177f93ed15c34ed9e8d75950bdef5762586fb8b3a9051cf",
    "compiled/idle": "6f172d0924c8257238901cb0a9c6245bd47682031ee85f1ace9366997bf20648",
    "compiled/mid_pcall": "20eb9412ff3e9a36be59036b718e6e612325b683984d54fa5c71c917f1dae435",
    "compiled/parked_future": "70a6ea8d8482abc58c2a7b79f80f7f89da81d0312ee7acdfc8aa8a7b0f7be3f2",
    "compiled/redefined_prelude_name": "1486135c82b4957042a1a9b9d79c858dccc0c270135f916f9a5924d94404fe10",
    "compiled/user_macro": "ee97c73442b62e1c4bc0c29059da1cf57a1c24fef85e395d8d92c7f4c3984447",
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
