"""Spans around the public calls into each layer, kept in memory.

:func:`install` replaces public functions and methods with timing
wrappers; nothing under ``src/`` changes.  A span is ``(id, parent,
name, start, end, thread, value)``, where ``value`` is what the layer
reports per call (machine steps, snapshot bytes, or the request id the
client put in a ``; r<id>`` comment).  Parents come from a per-thread
stack, so a layer's self time is its duration minus its children's.

Shard workers are forked after :func:`install`, so they inherit the
wrappers; each clears the inherited spans when it starts and writes its
own to ``<dir>/spans-<pid>.json`` when it shuts down cleanly (a worker
stopped before then is reported missing, not read).  All
timestamps are ``time.perf_counter``, which on Linux is the system-wide
monotonic clock, so spans from every process share one timeline.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
from collections import defaultdict, deque
from time import perf_counter
from typing import Any, Callable

#: Frontend phases as bound in ``repro.host.session``: span name -> attr.
FRONTEND = {
    "reader": "read_all",
    "expander": "expand_program",
    "ir.resolve": "resolve_program",
    "analysis": "annotate_program",
    "ir.compile": "compile_program",
    "ir.codegen": "codegen_program",
}


def rid_of(source: Any) -> int | None:
    """The client request id in a source's trailing ``; r<id>`` comment."""
    if not isinstance(source, str):
        return None
    _, sep, tail = source.rpartition("; r")
    return int(tail) if sep and tail.isdigit() else None


class SpanLog:
    """One process's spans and derived samples, in memory until dumped."""

    def __init__(self, out_dir: str | None = None):
        self.out_dir = out_dir
        self.spans: list[tuple] = []
        self.samples: dict[str, list[list[float]]] = defaultdict(list)  # [when, value]
        self.hosts: dict[int, Any] = {}  # id -> Host whose session stats to dump
        self._ids = itertools.count(1)
        self._local = threading.local()

    def reset(self) -> None:
        """Forget everything recorded so far, in place: wrappers hold
        references to these containers."""
        self.spans.clear()
        self.samples.clear()
        self.hosts.clear()
        self._local.stack = []

    def wrap(
        self, name: str, fn: Callable, value: Callable[[tuple, Any], Any] | None = None
    ) -> Callable:
        """``fn`` recording one span per call; ``value(args, result)``
        (result None if ``fn`` raised) fills the span's value."""
        local = self._local
        spans = self.spans
        ids = self._ids

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            sid = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            result = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = perf_counter()
                stack.pop()
                spans.append(
                    (
                        sid,
                        parent,
                        name,
                        t0,
                        t1,
                        threading.get_native_id(),
                        value(args, result) if value is not None else None,
                    )
                )

        return wrapper

    def new_id(self) -> int:
        return next(self._ids)

    def add(
        self,
        name: str,
        t0: float,
        t1: float,
        tid: int,
        value: Any = None,
        parent: int = 0,
        sid: int | None = None,
    ) -> int:
        """Record a span timed by the caller (the asyncio client's
        requests, which interleave on one thread)."""
        sid = self.new_id() if sid is None else sid
        self.spans.append((sid, parent, name, t0, t1, tid, value))
        return sid

    def dump(self, role: str, sessions: list[dict[str, int]]) -> None:
        """Write this process's spans, samples and session counters to
        ``spans-<pid>.json``.  The file appears whole or not at all: a
        worker terminated mid-write leaves only a ``.tmp`` file."""
        assert self.out_dir is not None
        for host in self.hosts.values():
            sessions = sessions + list(host.session_stats().values())
        path = os.path.join(self.out_dir, f"spans-{os.getpid()}.json")
        with open(path + ".tmp", "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "pid": os.getpid(),
                    "role": role,
                    "spans": self.spans,
                    "samples": self.samples,
                    "sessions": sessions,
                },
                handle,
            )
        os.replace(path + ".tmp", path)


def install(log: SpanLog) -> Callable[[], None]:
    """Wrap every traced public call; returns a function that undoes it."""
    import repro.cluster.cluster as cluster_mod
    import repro.host.session as session_mod
    from repro.cluster.cluster import Cluster
    from repro.cluster.shard import ShardRuntime
    from repro.host.handle import HandleState
    from repro.host.host import Host
    from repro.host.session import Session

    undo: list[tuple[Any, str, Any]] = []

    def patch(owner: Any, attr: str, new: Any) -> None:
        undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    steps = lambda args, result: result  # noqa: E731
    for name, attr in FRONTEND.items():
        patch(session_mod, attr, log.wrap(name, getattr(session_mod, attr)))
    patch(Host, "tick", log.wrap("host.tick", Host.tick, steps))

    # Queue wait: from Session.submit's return until the handle leaves
    # PENDING, which happens inside the pump that dequeues it.
    waiting: dict[int, deque] = defaultdict(deque)
    traced_submit = log.wrap(
        "session.submit", Session.submit, lambda args, result: rid_of(args[1])
    )
    traced_pump = log.wrap(
        "session.pump", Session.pump, lambda args, result: [result, args[0].engine]
    )

    def submit(self: Session, source: str, **kwargs: Any) -> Any:
        handle = traced_submit(self, source, **kwargs)
        waiting[id(self)].append((handle, perf_counter()))
        return handle

    def pump(self: Session, budget: int) -> int:
        t0 = perf_counter()
        try:
            return traced_pump(self, budget)
        finally:
            queue = waiting[id(self)]
            while queue and queue[0][0].state is not HandleState.PENDING:
                submitted = queue.popleft()[1]
                log.samples["host.queue_wait"].append([submitted, t0 - submitted])

    patch(Session, "submit", functools.wraps(Session.submit)(submit))
    patch(Session, "pump", functools.wraps(Session.pump)(pump))
    patch(
        Session,
        "snapshot",
        log.wrap(
            "snapshot.encode",
            Session.snapshot,
            lambda args, blob: len(blob) if blob is not None else None,
        ),
    )
    patch(
        Session,
        "restore",
        classmethod(log.wrap("snapshot.decode", Session.restore.__func__)),
    )
    patch(
        Cluster,
        "submit_async",
        log.wrap("cluster.submit", Cluster.submit_async, lambda args, r: rid_of(args[2])),
    )
    traced_handle = log.wrap(
        "shard.handle",
        ShardRuntime.handle,
        lambda args, r: rid_of(args[2].get("source")) if args[1] == "submit" else None,
    )

    def handle(self: ShardRuntime, op: str, payload: dict[str, Any]) -> Any:
        log.hosts[id(self.host)] = self.host
        return traced_handle(self, op, payload)

    patch(ShardRuntime, "handle", functools.wraps(ShardRuntime.handle)(handle))

    shard_main = cluster_mod.shard_main

    def traced_shard_main(index: int, cmd_queue: Any, result_queue: Any) -> None:
        log.reset()  # drop the spans inherited from the front at fork
        shard_main(index, cmd_queue, result_queue)
        log.dump(f"shard-{index}", [])

    patch(cluster_mod, "shard_main", traced_shard_main)

    def uninstall() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return uninstall


# -- analysis --------------------------------------------------------------


def load_dumps(out_dir: str, pids: list[int]) -> tuple[list[dict[str, Any]], list[int]]:
    """Every process's dump, with span ids made unique across processes,
    and those of ``pids`` that wrote none (a worker stopped before its
    dump was complete)."""
    dumps = []
    for name in sorted(os.listdir(out_dir)):
        if name.startswith("spans-") and name.endswith(".json"):
            with open(os.path.join(out_dir, name), encoding="utf-8") as handle:
                dump = json.load(handle)
            offset = dump["pid"] << 32
            dump["spans"] = [
                (sid + offset, parent + offset if parent else 0, *rest)
                for sid, parent, *rest in dump["spans"]
            ]
            dumps.append(dump)
    found = {dump["pid"] for dump in dumps}
    return dumps, [pid for pid in pids if pid not in found]


def self_times(spans: list[tuple]) -> dict[str, tuple[float, int]]:
    """Per span name: (total self seconds, calls).  Self time is a
    span's duration minus the time its child spans cover; children of
    one span run on its thread, one after another, so they never
    overlap."""
    child_time: dict[int, float] = defaultdict(float)
    for span in spans:
        if span[1]:
            child_time[span[1]] += span[4] - span[3]
    out: dict[str, list] = defaultdict(lambda: [0.0, 0])
    for span in spans:
        entry = out[span[2]]
        entry[0] += (span[4] - span[3]) - child_time.get(span[0], 0.0)
        entry[1] += 1
    return {name: (total, calls) for name, (total, calls) in out.items()}


def chrome_trace(processes: list[tuple[int, str, list[tuple]]]) -> dict[str, Any]:
    """One Chrome trace of every process's spans: ``X`` events on a
    track per (pid, thread), microseconds from the earliest span."""
    starts = [s[3] for _, _, spans in processes for s in spans]
    base = min(starts) if starts else 0.0
    meta: list[dict[str, Any]] = []
    events: list[dict[str, Any]] = []
    for pid, label, spans in processes:
        meta.append(
            {"ph": "M", "pid": pid, "tid": 0, "name": "process_name", "args": {"name": label}}
        )
        for _sid, _parent, name, t0, t1, tid, value in spans:
            event = {
                "ph": "X",
                "pid": pid,
                "tid": tid,
                "name": name,
                "cat": name.split(".")[0],
                "ts": int(round((t0 - base) * 1e6)),
                "dur": max(0, int(round((t1 - t0) * 1e6))),
            }
            if value is not None:
                event["args"] = {"value": value}
            events.append(event)
    events.sort(key=lambda e: (e["pid"], e["tid"], e["ts"]))
    return {"traceEvents": meta + events, "displayTimeUnit": "ms"}
