"""machine-suite: the paper's programs run by ``Session`` in this
process, under the ``compiled`` and ``codegen`` engines, timed in CPU
time.  No server: every microsecond is frontend, machine or control.

Each timed step has a speed probe just before and just after it (see
:mod:`measure`), so its CPU time can also be given at reference speed.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter, process_time
from typing import Any, Callable

import measure
from workloads import MACHINE_DEFS, MACHINE_ENGINES, MACHINE_EXAMPLES, MACHINE_PROGRAMS


class Steps:
    """Times steps in CPU seconds, with a speed probe between steps."""

    def __init__(self) -> None:
        self.last_probe = measure.probe_s()

    def time(self, fn: Callable[[], Any]) -> tuple[float, float, Any]:
        """(CPU seconds, the same at reference speed, result) of ``fn()``."""
        before = self.last_probe
        t0 = process_time()
        result = fn()
        took = process_time() - t0
        self.last_probe = measure.probe_s()
        return took, took / measure.slowdown([before, self.last_probe]), result


def _run(session: Any, source: str) -> str:
    from repro.datum import scheme_repr

    return scheme_repr(session.eval(source))


def _session(engine: str) -> Any:
    from repro.host.session import Session

    session = Session(engine=engine)
    for example in MACHINE_EXAMPLES:
        session.load_paper_example(example)
    session.run(MACHINE_DEFS)
    return session


def set_up() -> tuple[dict[str, Any], float, list[str]]:
    """Cold start: empty the codegen cache, build both sessions and run
    every program once.  Returns (sessions, CPU seconds at reference
    speed, wrong answers)."""
    from repro.ir.codegen import clear_cache

    steps = Steps()
    total = steps.time(clear_cache)[1]
    sessions = {}
    for engine in MACHINE_ENGINES:
        _, reference, sessions[engine] = steps.time(lambda: _session(engine))
        total += reference
    wrong = []
    for engine, session in sessions.items():
        for name, source, expected in MACHINE_PROGRAMS:
            _, reference, printed = steps.time(lambda: _run(session, source))
            total += reference
            if printed != expected:
                wrong.append(f"{engine}/{name}: {printed[:40]!r} != {expected[:40]!r}")
    return sessions, total, wrong


@dataclass
class SuitePass:
    setup_s: list[float]  # reference-speed CPU seconds of each set-up
    #: (engine, program) -> CPU ms of each run, at reference speed
    runs_ms: dict[tuple[str, str], list[float]]
    #: (engine, program) -> CPU ms of each run, as measured
    raw_ms: dict[tuple[str, str], list[float]]
    pass_rps: list[float]  # program runs per reference-speed CPU second, per pass
    wrong: list[str]
    window: tuple[float, float]  # perf_counter span of the timed passes
    sessions: dict[str, Any]


def suite_pass(seconds: float, setups: int) -> SuitePass:
    """Set up ``setups`` times (keeping the last), then run the whole
    program list under each engine, pass after pass, for ``seconds``."""
    setup_s = []
    wrong: list[str] = []
    for _ in range(setups):
        sessions, took, setup_wrong = set_up()
        setup_s.append(took)
        wrong += setup_wrong
    runs: dict[tuple[str, str], list[float]] = defaultdict(list)
    raw: dict[tuple[str, str], list[float]] = defaultdict(list)
    pass_rps = []
    steps = Steps()
    t0 = perf_counter()
    end = t0 + seconds
    while perf_counter() < end:
        cpu = 0.0
        for engine, session in sessions.items():
            for name, source, expected in MACHINE_PROGRAMS:
                took, reference, printed = steps.time(lambda: _run(session, source))
                if printed != expected:
                    wrong.append(f"{engine}/{name}: {printed[:40]!r}")
                runs[(engine, name)].append(reference * 1e3)
                raw[(engine, name)].append(took * 1e3)
                cpu += reference
        pass_rps.append(len(sessions) * len(MACHINE_PROGRAMS) / cpu)
    return SuitePass(
        setup_s, dict(runs), dict(raw), pass_rps, wrong, (t0, perf_counter()), sessions
    )
