"""Exporters for :class:`~repro.obs.recorder.Recorder` event streams.

Two renderings of the same ring buffer:

* :func:`to_chrome_trace` — the Chrome trace-event JSON format (the
  ``{"traceEvents": [...]}`` object form), loadable in
  ``chrome://tracing`` and `Perfetto <https://ui.perfetto.dev>`_.
  Tracks become thread ids, spans become ``B``/``E`` pairs, instants
  stay instants, quanta are ``X`` complete events.
* :func:`render_timeline` — a plain-text timeline with indentation by
  span depth, for terminal use (the REPL's ``,trace`` and quick
  debugging).

Ring eviction can orphan span halves: a long recording may retain an
``E`` whose ``B`` was evicted, or the process may stop with spans still
open.  :func:`to_chrome_trace` repairs both — orphan ends are dropped
and unclosed begins are auto-closed at the trace's end — so the export
*always* satisfies :func:`validate_chrome_trace`, which the tests use
as the schema gate.
"""

from __future__ import annotations

from typing import Any, Iterable

from repro.obs.recorder import ObsEvent, Recorder

__all__ = ["to_chrome_trace", "validate_chrome_trace", "render_timeline"]


def _event_list(events: "Iterable[ObsEvent] | Recorder") -> list[ObsEvent]:
    evs = events.events if isinstance(events, Recorder) else list(events)
    # X (complete) events carry their *start* timestamp but are
    # appended to the ring at their end, after any instants emitted
    # inside them; a stable sort by ts restores timeline order without
    # disturbing same-timestamp B/E nesting.
    evs.sort(key=lambda e: e.ts)
    return evs


def to_chrome_trace(events: "Iterable[ObsEvent] | Recorder") -> dict[str, Any]:
    """Convert recorded events to a Chrome trace-event JSON dict.

    Timestamps are microseconds relative to the first event; each
    recorder track maps to its own ``tid`` (named via thread_name
    metadata) under a single ``pid``.
    """
    evs = _event_list(events)
    if not evs:
        return {"traceEvents": [], "displayTimeUnit": "ms"}
    t0 = min(e.ts for e in evs)
    end_ts = max(e.ts + (e.dur if e.phase == "X" else 0.0) for e in evs)

    tids: dict[str, int] = {}

    def tid_of(track: str) -> int:
        if track not in tids:
            tids[track] = len(tids) + 1
        return tids[track]

    def us(ts: float) -> int:
        return int(round((ts - t0) * 1e6))

    # First pass: find which span ids have a surviving B (orphan-E
    # repair) and which have a surviving E (auto-close repair).
    begun: set[int] = set()
    ended: set[int] = set()
    for e in evs:
        if e.phase == "B":
            begun.add(e.span)
        elif e.phase == "E":
            ended.add(e.span)

    trace: list[dict[str, Any]] = []
    # Per-track stack of open span ids, to close in LIFO order at EOF.
    open_stacks: dict[str, list[tuple[int, int]]] = {}

    for e in evs:
        tid = tid_of(e.track)
        args = {"step": e.step}
        if e.detail:
            args["detail"] = e.detail
        base = {"pid": 1, "tid": tid, "ts": us(e.ts), "name": e.name, "args": args}
        if e.phase == "B":
            if e.span not in ended:
                # Will need an auto-close at EOF.
                open_stacks.setdefault(e.track, []).append((e.span, tid))
            trace.append({**base, "ph": "B", "cat": "span"})
        elif e.phase == "E":
            if e.span not in begun:
                continue  # orphaned end: its B was evicted from the ring
            trace.append({**base, "ph": "E", "cat": "span"})
        elif e.phase == "X":
            trace.append(
                {**base, "ph": "X", "cat": "span", "dur": max(0, int(round(e.dur * 1e6)))}
            )
        else:  # "i"
            trace.append({**base, "ph": "i", "cat": "event", "s": "t"})

    # Auto-close still-open spans, innermost first, at the trace end.
    eof_us = us(end_ts)
    for track, stack in open_stacks.items():
        for span, tid in reversed(stack):
            trace.append(
                {
                    "pid": 1,
                    "tid": tid,
                    "ts": eof_us,
                    "ph": "E",
                    "cat": "span",
                    "name": "(auto-close)",
                    "args": {"span": span},
                }
            )

    # Thread-name metadata rows so Perfetto labels tracks.
    meta = [
        {
            "pid": 1,
            "tid": tid,
            "ph": "M",
            "name": "thread_name",
            "args": {"name": track},
        }
        for track, tid in tids.items()
    ]
    return {"traceEvents": meta + trace, "displayTimeUnit": "ms"}


def validate_chrome_trace(trace: dict[str, Any]) -> list[str]:
    """Schema-check a :func:`to_chrome_trace` result; returns a list of
    problems (empty = valid).

    Checks: the container shape, required keys per event, monotonically
    non-decreasing ``ts`` per thread, properly nested ``B``/``E`` pairs
    per thread, and non-negative ``dur`` on ``X`` events.
    """
    problems: list[str] = []
    if not isinstance(trace, dict) or "traceEvents" not in trace:
        return ["not a dict with a traceEvents key"]
    events = trace.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents is not a list"]

    last_ts: dict[tuple[int, int], int] = {}
    stacks: dict[tuple[int, int], list[str]] = {}
    for i, e in enumerate(events):
        if not isinstance(e, dict):
            problems.append(f"event {i}: not an object")
            continue
        ph = e.get("ph")
        if ph not in ("B", "E", "i", "X", "M"):
            problems.append(f"event {i}: bad ph {ph!r}")
            continue
        for key in ("pid", "tid", "name"):
            if key not in e:
                problems.append(f"event {i}: missing {key}")
        if ph == "M":
            continue
        if not isinstance(e.get("ts"), int):
            problems.append(f"event {i}: ts missing or not an int")
            continue
        key = (e.get("pid", 0), e.get("tid", 0))
        ts = e["ts"]
        if key in last_ts and ts < last_ts[key]:
            problems.append(
                f"event {i}: ts {ts} < previous {last_ts[key]} on tid {key[1]}"
            )
        last_ts[key] = ts
        if ph == "B":
            stacks.setdefault(key, []).append(e.get("name", "?"))
        elif ph == "E":
            stack = stacks.setdefault(key, [])
            if not stack:
                problems.append(f"event {i}: E with no open B on tid {key[1]}")
            else:
                stack.pop()
        elif ph == "X":
            dur = e.get("dur")
            if not isinstance(dur, int) or dur < 0:
                problems.append(f"event {i}: X dur missing or negative")
    for key, stack in stacks.items():
        if stack:
            problems.append(f"tid {key[1]}: {len(stack)} unclosed B ({stack[-1]!r})")
    return problems


def render_timeline(events: "Iterable[ObsEvent] | Recorder") -> str:
    """A readable text timeline, indented by span depth per track."""
    evs = _event_list(events)
    if not evs:
        return "(no events recorded)"
    t0 = min(e.ts for e in evs)
    depth: dict[str, int] = {}
    lines: list[str] = []
    for e in evs:
        d = depth.get(e.track, 0)
        rel_ms = (e.ts - t0) * 1e3
        indent = "  " * d
        detail = f"  {e.detail}" if e.detail else ""
        step = f" @step {e.step}" if e.step else ""
        if e.phase == "B":
            lines.append(f"{rel_ms:10.3f}ms [{e.track}] {indent}▶ {e.name}{detail}{step}")
            depth[e.track] = d + 1
        elif e.phase == "E":
            depth[e.track] = max(0, d - 1)
            indent = "  " * depth[e.track]
            lines.append(f"{rel_ms:10.3f}ms [{e.track}] {indent}◀ {e.name}{step}")
        elif e.phase == "X":
            lines.append(
                f"{rel_ms:10.3f}ms [{e.track}] {indent}■ {e.name}"
                f" ({e.dur * 1e6:.0f}us){detail}{step}"
            )
        else:
            lines.append(f"{rel_ms:10.3f}ms [{e.track}] {indent}· {e.name}{detail}{step}")
    return "\n".join(lines)
