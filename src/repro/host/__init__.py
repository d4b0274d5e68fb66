"""repro.host — the multi-session host runtime.

Multiplexes many interpreter sessions over the quantum-batched
machine: each :class:`Session` wraps one complete pipeline (machine,
globals, expansion environment) whose in-flight evaluation — including
a suspended ``pcall`` tree with captured subcontinuations — survives
between host ticks as a first-class process tree.  A :class:`Host`
drives N sessions under fair round-robin or deficit scheduling with
per-request deadlines (step budgets enforced exactly, wall-clock
checked at quantum boundaries), cooperative capture-and-discard
cancellation, and bounded-queue backpressure.

See ``docs/API.md`` for the serving API and ``examples/host_serving.py``
for a complete multi-tenant demo.
"""

from repro.errors import DeadlineExceeded, HostError, HostSaturated, SessionCancelled
from repro.host.handle import EvalHandle, HandleState
from repro.host.host import DEFICIT_CAP_TICKS, Host, HostPolicy
from repro.host.session import Session

__all__ = [
    "DEFICIT_CAP_TICKS",
    "DeadlineExceeded",
    "EvalHandle",
    "HandleState",
    "Host",
    "HostError",
    "HostPolicy",
    "HostSaturated",
    "Session",
    "SessionCancelled",
]
