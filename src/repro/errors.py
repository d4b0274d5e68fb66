"""Exception hierarchy for the whole reproduction.

Every error raised by the library derives from :class:`ReproError`, so a
host application can catch one type.  The hierarchy mirrors the
subsystem structure:

* :class:`ReaderError` — reading an s-expression stream
  (:class:`IncompleteInput` when the text ends inside a datum).
* :class:`ExpandError` — macro expansion and core-form analysis.
* :class:`MachineError` — runtime errors inside the abstract machine.
* :class:`ControlError` — misuse of control operators; this is where
  the paper's "invalid controller application" lives.
* :class:`SemanticsError` — the formal rewriting system of Section 6.
* :class:`HostError` — the multi-session host runtime
  (:mod:`repro.host`): per-request deadlines, cooperative cancellation
  and submit-queue backpressure.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "ReaderError",
    "IncompleteInput",
    "ExpandError",
    "CompileError",
    "MachineError",
    "SchemeError",
    "WrongTypeError",
    "ArityError",
    "UnboundVariableError",
    "ControlError",
    "InvalidControllerError",
    "DeadControllerError",
    "PromptMissingError",
    "SemanticsError",
    "StuckTermError",
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
]


class ReproError(Exception):
    """Base class for every error raised by :mod:`repro`."""


class ReaderError(ReproError):
    """Raised for malformed input text.

    Carries the source location of the offending token when known.
    """

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)


class IncompleteInput(ReaderError):
    """The text ends inside a datum, so more text could complete it:
    an unterminated list, vector, string or block comment, or a
    quotation prefix or ``#;`` with no datum after it.  The REPL reads
    another line when it sees this."""


class ExpandError(ReproError):
    """Raised when a form cannot be expanded to core syntax."""


class CompileError(ReproError):
    """Raised when the closure compiler receives IR it cannot compile
    (e.g. the expander's unresolved ``Var`` dialect)."""


class MachineError(ReproError):
    """Base class for runtime errors inside the abstract machine."""


class SchemeError(MachineError):
    """A user-level Scheme error (raised by the ``error`` primitive)."""

    def __init__(self, message: str, irritants: tuple = ()):  # type: ignore[type-arg]
        self.irritants = irritants
        super().__init__(message)


class WrongTypeError(MachineError):
    """A primitive or application received a value of the wrong type."""


class ArityError(MachineError):
    """A procedure was applied to the wrong number of arguments."""


class UnboundVariableError(MachineError):
    """Reference to a variable with no binding."""

    def __init__(self, name: str):
        self.name = name
        super().__init__(f"unbound variable: {name}")


class ControlError(MachineError):
    """Base class for control-operator misuse."""


class InvalidControllerError(ControlError):
    """A process controller was invoked outside the dynamic extent of
    its root.

    The paper (Section 4): "Application of a controller is valid only
    when its root is in the continuation of the application."
    """


class DeadControllerError(InvalidControllerError):
    """The controller's root was removed (by normal return or by a
    previous controller application) and has not been reinstated."""


class PromptMissingError(ControlError):
    """``F`` was invoked with no enclosing prompt (Section 3 baseline)."""


class SemanticsError(ReproError):
    """Base class for errors in the Section 6 rewriting system."""


class StuckTermError(SemanticsError):
    """A term is neither a value nor reducible (e.g. ``e ↑ l`` with no
    matching label in its evaluation context)."""

    def __init__(self, message: str, term: object | None = None):
        self.term = term
        super().__init__(message)


class StepBudgetExceeded(ReproError):
    """An evaluation exceeded its configured step budget.

    Used by tests and benchmarks to bound runaway programs; carries the
    number of steps executed so far.
    """

    def __init__(self, steps: int):
        self.steps = steps
        super().__init__(f"step budget exceeded after {steps} steps")


class HostError(ReproError):
    """Base class for errors raised by the multi-session host runtime
    (:mod:`repro.host`)."""


class DeadlineExceeded(HostError):
    """An evaluation ran past its wall-clock deadline.

    The machine checks the deadline at every quantum boundary, so the
    error fires within one quantum of the budget — never mid-frame.
    Step budgets (the other half of a request's cost bound) raise
    :class:`StepBudgetExceeded`, which is enforced *exactly* at the
    configured step count; host metrics count both as deadline misses.
    Carries the number of steps the evaluation had executed.
    """

    def __init__(self, message: str = "wall-clock deadline exceeded", *, steps: int | None = None):
        self.steps = steps
        super().__init__(message)


class SessionCancelled(HostError):
    """An in-flight or queued evaluation was cooperatively cancelled.

    Cancellation is capture-and-discard at the session root: the
    session's process tree is abandoned at a quantum boundary (the
    tasks are simply unlinked, exactly like an abortive controller
    discarding a captured subtree) — no exception is ever delivered
    into a running frame, so sibling sessions and the session's own
    parked future trees are untouched.
    """


class HostSaturated(HostError):
    """A submit was refused because a bounded queue is full.

    Backpressure, not failure: nothing was evaluated and nothing was
    corrupted; the caller should retry after draining, or shed load.
    """


class SnapshotError(HostError):
    """A session could not be snapshotted or restored.

    Raised for semantic problems: snapshotting from inside a pump,
    a value of a kind the codec does not know, a primitive present in
    the snapshot but missing from the restoring build.
    """


class SnapshotFormatError(SnapshotError):
    """A snapshot blob is malformed, truncated, from an incompatible
    format version, or fails its embedded integrity checks."""


class SnapshotBaseMismatch(SnapshotError):
    """A snapshot blob names a boot base this process cannot rebuild:
    its image digest differs from this build's, because the build that
    wrote it had another prelude or another primitive table.  The blob
    carries only what changed since boot, so it cannot be restored on
    a different base."""


class ClusterError(HostError):
    """Base class for errors raised by the sharded cluster tier
    (:mod:`repro.cluster`)."""


class ClusterEvalError(ClusterError):
    """An evaluation on a shard failed (the in-band ``status="error"``
    reply, surfaced as an exception by the handle-parity
    :meth:`~repro.cluster.handle.ClusterHandle.result` path).

    Carries the shard-side error type name and message; the shard and
    the session both survived — only this request failed.
    """

    def __init__(self, message: str, *, error_type: str | None = None):
        self.error_type = error_type
        super().__init__(message)


class ShardDied(ClusterError):
    """A shard worker process died while holding live (non-snapshotted)
    session state; the affected request cannot be recovered."""


class GatewayError(HostError):
    """Base class for errors raised by the network gateway tier
    (:mod:`repro.gateway`)."""


class FrameError(GatewayError):
    """A wire frame violated the protocol: not valid JSON, not an
    object, oversize, or missing/mistyped required fields.

    Carries the machine-readable error ``code`` (``"bad-frame"``,
    ``"oversize"``, ``"unknown-op"``, ...) that the server echoes in
    its structured error reply — see ``docs/SERVING.md``.
    """

    def __init__(self, message: str, *, code: str = "bad-frame"):
        self.code = code
        super().__init__(message)


class GatewayBusy(HostSaturated):
    """A gateway refused a submit for capacity reasons (tenant quota,
    inflight cap, or backend saturation).

    Subclasses :class:`HostSaturated` so every frontend's refusal is
    one catchable type; carries the server's ``retry_after_ms`` hint.
    Raised client-side only — the server never raises for load, it
    answers with a structured ``busy`` reply.
    """

    def __init__(self, message: str, *, retry_after_ms: int = 0, reason: str = "busy"):
        self.retry_after_ms = retry_after_ms
        self.reason = reason
        super().__init__(message)


class GatewayClosed(GatewayError):
    """The gateway (or the client's connection to it) is closed."""


class GatewayRequestError(GatewayError):
    """The server answered a request with a non-``busy`` structured
    error (``invalid`` source, ``unknown-request`` id, ...); carries
    the reply's error ``code``."""

    def __init__(self, message: str, *, code: str = "error"):
        self.code = code
        super().__init__(message)
