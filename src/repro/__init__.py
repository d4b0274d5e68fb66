"""repro — a reproduction of Hieb & Dybvig, "Continuations and
Concurrency" (PPoPP 1990).

The package implements **process continuations** (subcontinuations) and
the ``spawn`` operator over an embedded Scheme with tree-structured
concurrency (``pcall``), together with the traditional-continuation
baselines the paper critiques, the formal rewriting semantics of
Section 6, and the Section 8 abstractions (engines, coroutines,
Multilisp futures) on the same machine.

Quick start::

    from repro import Interpreter

    interp = Interpreter()
    interp.load_paper_example("sum-of-products")
    interp.eval("(sum-of-products '(1 2 3) '(4 0 6))")   # => 6

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-claim reproduction index.
"""

from repro.analysis import spawn_report
from repro.api import Interpreter
from repro.errors import (
    ReproError,
    ReaderError,
    ExpandError,
    MachineError,
    SchemeError,
    ControlError,
    InvalidControllerError,
    DeadControllerError,
    PromptMissingError,
    StepBudgetExceeded,
    HostError,
    DeadlineExceeded,
    SessionCancelled,
    HostSaturated,
    SnapshotError,
    SnapshotFormatError,
    SnapshotBaseMismatch,
    ClusterError,
    ClusterEvalError,
    ShardDied,
    GatewayError,
    FrameError,
    GatewayBusy,
    GatewayClosed,
    GatewayRequestError,
)
from repro.host import EvalHandle, HandleState, Host, HostPolicy, Session
from repro.machine.scheduler import Engine, SchedulerPolicy
from repro.obs import Recorder
from repro.snapshot import SNAPSHOT_VERSION, restore_session, snapshot_session
from repro.cluster import Cluster, ClusterHandle, ClusterResult, DirectoryStore, MemoryStore
from repro.gateway import Gateway, GatewayClient, GatewayLimits, TokenBucket

__version__ = "6.0.0"

__all__ = [
    "Interpreter",
    "spawn_report",
    "Host",
    "HostPolicy",
    "Session",
    "EvalHandle",
    "HandleState",
    "Engine",
    "SchedulerPolicy",
    "Recorder",
    "ReproError",
    "ReaderError",
    "ExpandError",
    "MachineError",
    "SchemeError",
    "ControlError",
    "InvalidControllerError",
    "DeadControllerError",
    "PromptMissingError",
    "StepBudgetExceeded",
    "HostError",
    "DeadlineExceeded",
    "SessionCancelled",
    "HostSaturated",
    "SnapshotError",
    "SnapshotFormatError",
    "SnapshotBaseMismatch",
    "ClusterError",
    "ClusterEvalError",
    "ShardDied",
    "GatewayError",
    "FrameError",
    "GatewayBusy",
    "GatewayClosed",
    "GatewayRequestError",
    "SNAPSHOT_VERSION",
    "snapshot_session",
    "restore_session",
    "Cluster",
    "ClusterHandle",
    "ClusterResult",
    "MemoryStore",
    "DirectoryStore",
    "Gateway",
    "GatewayClient",
    "GatewayLimits",
    "TokenBucket",
    "__version__",
]
