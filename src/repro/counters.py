"""Serializable uid counters.

Every uid stream in the runtime (task uids, label uids, future
placeholder uids, eval-handle uids, the gensym counter) used to be an
:class:`itertools.count`, which cannot be *observed* without consuming
a value and cannot be *advanced* to a floor.  Both operations are
required by the snapshot codec (:mod:`repro.snapshot`): a snapshot
records each stream's watermark (the next value it would hand out), and
restoring in a fresh process advances that process's streams to the
watermark so the resumed computation allocates exactly the uids the
original process would have — uids leak into label names, task reprs,
trace events and error messages, so carrying them is part of the
byte-identical-resume contract.

:class:`SerialCounter` is a drop-in replacement: ``next(counter)``
works unchanged, ``peek()`` reads the watermark without consuming, and
``advance(floor)`` raises the stream to at least ``floor`` (never
lowers it — a restore must not hand out uids the restoring process has
already used).
"""

from __future__ import annotations

__all__ = ["SerialCounter"]


class SerialCounter:
    """A monotone integer stream supporting peek and advance."""

    __slots__ = ("value",)

    def __init__(self, start: int = 0):
        self.value = start

    def __next__(self) -> int:
        value = self.value
        self.value = value + 1
        return value

    def __iter__(self) -> "SerialCounter":
        return self

    def peek(self) -> int:
        """The next value :func:`next` would return (the watermark)."""
        return self.value

    def advance(self, floor: int) -> None:
        """Raise the stream so the next value is at least ``floor``."""
        if floor > self.value:
            self.value = floor

    def reset(self, start: int = 0) -> None:
        """Restart the stream, for test determinism."""
        self.value = start

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"SerialCounter({self.value})"
