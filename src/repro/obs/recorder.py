"""The ring-buffer :class:`Recorder` — the machine-to-host event spine.

One :class:`Recorder` instance is shared by every layer that emits
control events: the machine's notify points (fork, label pop, join
fire, capture, reinstate), the scheduler's per-quantum driver, the
session's pump and the host's tick loop.  Events land in a
fixed-capacity ring buffer (old events are evicted, never reallocated),
so a recorder can stay attached to a production host indefinitely and
always holds the most recent window of activity.

Design constraints:

* **Zero cost when absent.**  Emitting sites hold the recorder in a
  local and guard with ``rec is not None and rec.enabled`` — a machine
  built without ``record=`` pays one attribute read per *quantum*, not
  per step, and nothing at all at the notify points (they only run on
  control operations, which are rare by §7's own cost model).
* **Spans, not just points.**  ``begin``/``end`` (or the ``span``
  context manager) bracket host ticks, session pumps and any
  caller-defined region; instants and per-quantum complete events
  emitted inside carry the innermost open span's id, so a host request
  reconstructs as a span tree: host.tick → session.pump → quantum →
  control events.
* **Typed, compact events.**  One ``__slots__`` class for all four
  phases (``B``/``E``/``i``/``X`` — deliberately the Chrome trace
  phase letters; see :mod:`repro.obs.export`).

Usage::

    from repro import Interpreter
    interp = Interpreter(record=True)
    interp.eval("(spawn (lambda (c) (c (lambda (k) (k 1)))))")
    interp.recorder.render()            # text timeline
    interp.recorder.to_chrome_trace()   # load in chrome://tracing / Perfetto
"""

from __future__ import annotations

import itertools
from collections import deque
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Iterator

__all__ = ["ObsEvent", "Recorder", "as_recorder"]

#: Default ring capacity: large enough for several host ticks of dense
#: control traffic, small enough (a few MB of events) to pin forever.
DEFAULT_CAPACITY = 65536


class ObsEvent:
    """One recorded event.

    ``phase`` is one of the Chrome trace phases:

    * ``"B"``/``"E"`` — span begin/end; ``span`` is the span's own id,
      ``parent`` the enclosing span's id (0 = top level).
    * ``"i"`` — instant (capture, reinstate, fork, label-pop, ...);
      ``span`` is the innermost open span.
    * ``"X"`` — complete event with a duration (``dur``, seconds);
      used for scheduler quanta, one per run-loop call (a lone task's
      quanta run as one extended batch and share one event).

    ``ts`` is a ``time.perf_counter`` timestamp (seconds; monotonic),
    ``step`` the machine's ``steps_total`` at emission (quantum
    granularity under the batched run loop), ``track`` the logical
    thread the event belongs to (session name, ``"host"``, ...).
    """

    __slots__ = ("ts", "phase", "name", "detail", "step", "span", "parent", "track", "dur")

    def __init__(
        self,
        ts: float,
        phase: str,
        name: str,
        detail: str,
        step: int,
        span: int,
        parent: int,
        track: str,
        dur: float = 0.0,
    ):
        self.ts = ts
        self.phase = phase
        self.name = name
        self.detail = detail
        self.step = step
        self.span = span
        self.parent = parent
        self.track = track
        self.dur = dur

    def __repr__(self) -> str:
        extra = f" dur={self.dur * 1e6:.1f}us" if self.phase == "X" else ""
        return (
            f"#<obs {self.phase} {self.name} {self.detail!r} "
            f"span={self.span} step={self.step}{extra}>"
        )


class Recorder:
    """A fixed-capacity ring buffer of typed observability events.

    Parameters
    ----------
    capacity:
        Maximum events held; the oldest are evicted first (``dropped``
        counts evictions, so truncation is never silent).
    enabled:
        Start recording immediately (default).  Toggle the ``enabled``
        attribute to pause/resume; a disabled recorder appends nothing.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY, enabled: bool = True):
        self.capacity = max(1, capacity)
        self.enabled = enabled
        self.clock = perf_counter
        self.dropped = 0
        #: Events appended over the recorder's life (never reset): a
        #: reading of it marks a position for :meth:`events_since`.
        self.appended = 0
        self._ring: deque[ObsEvent] = deque(maxlen=self.capacity)
        self._span_ids = itertools.count(1)
        self._stack: list[int] = []  # open span ids, innermost last
        self._open_names: dict[int, str] = {}  # open span id -> name
        self._track = "main"

    # -- emission --------------------------------------------------------

    def _append(self, event: ObsEvent) -> None:
        ring = self._ring
        if len(ring) == self.capacity:
            self.dropped += 1
        ring.append(event)
        self.appended += 1

    def emit(self, name: str, detail: str = "", step: int = 0) -> None:
        """Record an instant event under the innermost open span."""
        if not self.enabled:
            return
        stack = self._stack
        span = stack[-1] if stack else 0
        self._append(
            ObsEvent(self.clock(), "i", name, detail, step, span, span, self._track)
        )

    def complete(
        self, name: str, start_ts: float, dur: float, detail: str = "", step: int = 0
    ) -> None:
        """Record a complete (``X``) event that ran ``dur`` seconds from
        ``start_ts`` (a ``self.clock()`` timestamp)."""
        if not self.enabled:
            return
        stack = self._stack
        span = stack[-1] if stack else 0
        self._append(
            ObsEvent(start_ts, "X", name, detail, step, span, span, self._track, dur)
        )

    def begin(self, name: str, detail: str = "", step: int = 0) -> int:
        """Open a span; returns its id (pass to :meth:`end`)."""
        if not self.enabled:
            return 0
        stack = self._stack
        parent = stack[-1] if stack else 0
        span = next(self._span_ids)
        stack.append(span)
        self._open_names[span] = name
        self._append(
            ObsEvent(self.clock(), "B", name, detail, step, span, parent, self._track)
        )
        return span

    def end(self, span: int, step: int = 0) -> None:
        """Close span ``span`` (and any unclosed spans nested inside
        it, innermost first — ends are never allowed to cross)."""
        if span == 0 or span not in self._open_names:
            return
        stack = self._stack
        while stack:
            top = stack.pop()
            name = self._open_names.pop(top, "?")
            parent = stack[-1] if stack else 0
            if self.enabled:
                self._append(
                    ObsEvent(self.clock(), "E", name, "", step, top, parent, self._track)
                )
            if top == span:
                break

    @contextmanager
    def span(
        self, name: str, detail: str = "", track: str | None = None, step: int = 0
    ) -> Iterator[int]:
        """Bracket a region as a span; optionally switch the logical
        ``track`` (restored on exit)."""
        if not self.enabled:
            yield 0
            return
        prev_track = self._track
        if track is not None:
            self._track = track
        span = self.begin(name, detail, step=step)
        try:
            yield span
        finally:
            self.end(span, step=step)
            self._track = prev_track

    # -- queries ---------------------------------------------------------

    @property
    def events(self) -> list[ObsEvent]:
        """A snapshot of the ring's current contents, oldest first."""
        return list(self._ring)

    def __len__(self) -> int:
        return len(self._ring)

    def events_of(self, name: str) -> list[ObsEvent]:
        return [e for e in self._ring if e.name == name]

    def events_since(self, mark: int) -> list[ObsEvent]:
        """The buffered events appended after ``mark`` (an earlier
        reading of :attr:`appended`), oldest first; those already
        evicted or cleared are gone."""
        newer = self.appended - mark
        ring = self._ring
        return list(ring)[max(0, len(ring) - newer):] if newer > 0 else []

    def clear(self) -> None:
        """Drop all buffered events (open spans stay open)."""
        self._ring.clear()
        self.dropped = 0

    # -- exporters (delegate to repro.obs.export) ------------------------

    def to_chrome_trace(self) -> dict[str, Any]:
        """The buffered events as a ``chrome://tracing`` / Perfetto
        JSON-serialisable dict (see :func:`repro.obs.export.to_chrome_trace`)."""
        from repro.obs.export import to_chrome_trace

        return to_chrome_trace(self.events)

    def render(self) -> str:
        """A readable text timeline of the buffered events."""
        from repro.obs.export import render_timeline

        return render_timeline(self.events)

    def __repr__(self) -> str:
        state = "on" if self.enabled else "off"
        return (
            f"#<recorder {state} {len(self._ring)}/{self.capacity} events"
            f"{f' dropped={self.dropped}' if self.dropped else ''}>"
        )


def as_recorder(record: "Recorder | bool | None") -> Recorder | None:
    """The ``record=`` argument every layer takes: ``True`` builds a
    fresh :class:`Recorder`, ``False`` or None means none, and an
    existing recorder is shared as it is."""
    if record is True:
        return Recorder()
    if record is False:
        return None
    return record
