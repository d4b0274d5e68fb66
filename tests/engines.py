"""The engine axis shared by the test matrices.

The machine has two engines, ``compiled`` and ``codegen``.  Builds
before 1.5 also ran ``dict`` (the expander's unresolved IR over
dict-chain ribs) and ``resolved`` (resolved IR, never compiled) as
engines of their own, and sessions they snapshotted must keep working.
So the matrices keep a cell for each: it runs the same check on a
session restored from the idle snapshot that engine wrote
(``tests/snapshot/legacy/``, see its README).  The restored session
runs under ``compiled``, but every prelude closure in it is the old
engine's — an unresolved body over dict ribs, or raw resolved IR — so
these cells hold the legacy-blob decoder and the run loop's raw-IR
fallback to every matrix they sit in.
"""

from __future__ import annotations

import itertools
import os
from functools import lru_cache

from repro import Session
from repro.expander import expand_program
from repro.ir import resolve_program
from repro.machine.scheduler import SchedulerPolicy
from repro.obs import as_recorder
from repro.reader import read_all

#: Every cell of the engine axis: the two engines, then the two
#: legacy-snapshot cells.
ENGINES = ("dict", "resolved", "compiled", "codegen")

#: The cells served by a session restored from a legacy snapshot.
LEGACY = ("dict", "resolved")

LEGACY_DIR = os.path.join(os.path.dirname(__file__), "snapshot", "legacy")

#: The program the ``mid-pcall`` fixtures hold suspended (quantum 8, no
#: prelude), its output, and a follow-up form over the definitions it
#: leaves behind with that form's value.
LEGACY_PROG = (
    "(define (loop n acc) (if (= n 0) acc (loop (- n 1) (+ acc n))))"
    "(define counter 0)"
    "(define (bump! k) (let ([x k]) (set! x (+ x 1)) (set! counter (+ counter x)) x))"
    "(display (pcall + (loop 40 0) (bump! (loop 60 0))"
    " (call/cc (lambda (k) (k (loop 25 0))))))"
)
LEGACY_OUTPUT = "2976"
LEGACY_FOLLOW_UP = ("(list counter (loop 10 0) (bump! 1) counter)", "(1831 55 2 1833)")

_names = itertools.count()


@lru_cache(maxsize=None)
def legacy_blob(engine: str, kind: str = "idle") -> bytes:
    """The fixture ``<engine>-<kind>.rsnp``: for a pre-1.5 ``engine``,
    ``idle`` (a fresh session with the prelude loaded) or ``mid-pcall``
    (suspended with three ``pcall`` branches in flight); for
    ``v4-<engine>`` or ``v5-<engine>``, a 1.8.0 or 3.0.0 golden-corpus
    case."""
    with open(os.path.join(LEGACY_DIR, f"{engine}-{kind}.rsnp"), "rb") as fh:
        return fh.read()


def eval_raw_ir(interp, source: str, *, resolve: bool = False) -> list:
    """Evaluate ``source`` on ``interp``'s machine as plain IR — the
    expander's unresolved dialect, or with ``resolve=True`` resolved IR
    that is never compiled — through ``Machine.eval_node`` and the run
    loop's raw-IR fallback.  An independent reference for both engines:
    neither compiled thunks nor emitted code take part."""
    nodes = expand_program(read_all(source), interp.expand_env)
    if resolve:
        nodes = resolve_program(nodes, interp.globals)
    return [interp.machine.eval_node(node) for node in nodes]


def make_session(
    engine: str,
    *,
    policy: str = "round-robin",
    seed: int | None = None,
    quantum: int = 16,
    max_steps: int | None = None,
    profile: bool = False,
    record=None,
    max_pending: int = 64,
    name: str | None = None,
    prelude: bool = True,
) -> Session:
    """A session for one cell of the engine axis, configured as
    ``Session(...)`` would configure it.  A legacy cell always has the
    prelude its snapshot holds, whatever ``prelude`` says."""
    if engine not in LEGACY:
        return Session(
            engine=engine,
            prelude=prelude,
            policy=policy,
            seed=seed,
            quantum=quantum,
            max_steps=max_steps,
            profile=profile,
            record=record,
            max_pending=max_pending,
            name=name,
        )
    if name is None:
        name = f"legacy-{engine}-{next(_names)}"
    session = Session.restore(legacy_blob(engine), name=name)
    record = as_recorder(record)
    if record is not None:
        session.attach_recorder(record)
    machine = session.machine
    machine.policy = SchedulerPolicy(policy)
    machine.rng.seed(seed)
    machine.quantum = max(1, quantum)
    machine.max_steps = max_steps
    machine.profile = profile
    session.max_pending = max(1, max_pending)
    return session
