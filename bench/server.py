"""The benchmark's server process: one Gateway over a Host or a Cluster.

``run.py`` starts it as a child so that load generation and serving
never share a process or an interpreter lock::

    python3 bench/server.py --backend host|cluster [--trace DIR]

It speaks one JSON object per line: it prints ``{"ready": ..., "port":
...}`` once the gateway listens, then answers commands read from
stdin — ``probe`` (CPU by thread, shard pids, peak memory) and ``stop``
(shut down cleanly and exit).  With ``--trace DIR`` it installs the
span wrappers of :mod:`spans` before building the backend, so forked
shard workers inherit them, and writes its spans to ``DIR`` on stop.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import sys
import threading
from typing import Any

import measure
import spans
from repo import use_repo_src
from workloads import SHARDS


def _thread(suffix: str) -> threading.Thread | None:
    for thread in threading.enumerate():
        if thread.name.endswith(suffix):
            return thread
    return None


def _over(pids: list[int], read: Any) -> float:
    """Sum ``read(pid)`` over the children still in ``/proc``: a
    SIGKILLed shard worker can be reaped between listing and reading."""
    total = 0.0
    for pid in pids:
        try:
            total += read(pid)
        except FileNotFoundError:
            continue
    return total


class BenchServer:
    def __init__(self, backend_kind: str, trace_dir: str | None):
        use_repo_src()
        from repro.cluster.cluster import Cluster
        from repro.gateway.server import Gateway
        from repro.host.host import Host

        self.log = None
        if trace_dir is not None:
            self.log = spans.SpanLog(trace_dir)
            spans.install(self.log)
        self.host = Host() if backend_kind == "host" else None
        self.cluster = Cluster(workers=SHARDS) if backend_kind == "cluster" else None
        self.gateway = Gateway(self.host if self.host is not None else self.cluster)

    def shard_pids(self) -> list[int]:
        if self.cluster is None:
            return []
        return [shard.process.pid for shard in self.cluster.shards]

    def probe(self) -> dict[str, Any]:
        """CPU seconds by thread and role, shard pids, peak memory, and
        the request records the gateway holds."""
        pid = os.getpid()
        cpu: dict[str, float] = {}
        for role, thread in (
            ("loop", threading.main_thread()),
            ("pump", _thread("-pump")),
            ("dispatch", _thread("-dispatch")),
        ):
            if thread is not None and thread.native_id is not None:
                cpu[role] = measure.thread_cpu_s(pid, thread.native_id)
        live = measure.children(pid)
        workers = _over(live, lambda child: measure.process_cpu_s(child)[0])
        rss = measure.peak_rss_mb(pid) + _over(live, measure.peak_rss_mb)
        # Read after the children: one reaped meanwhile is counted here.
        own, reaped = measure.process_cpu_s(pid)
        cpu["server"] = own
        cpu["workers"] = reaped + workers
        return {
            "pid": pid,
            "tracked_requests": self.gateway.stats["gateway.tracked_requests"],
            "cpu": cpu,
            "shards": self.shard_pids(),
            "children": live,
            "peak_rss_mb": rss,
        }

    async def stop(self) -> dict[str, Any]:
        reply = self.probe()
        await self.gateway.close()
        if self.cluster is not None:
            self.cluster.close()  # traced workers write their spans here
        if self.log is not None:
            sessions = (
                list(self.host.session_stats().values()) if self.host is not None else []
            )
            self.log.dump("server", sessions)
        reply["stopped"] = True
        return reply

    async def serve(self) -> None:
        await self.gateway.start()
        _send({"ready": True, "port": self.gateway.port})
        loop = asyncio.get_running_loop()
        reader = asyncio.StreamReader()
        await loop.connect_read_pipe(lambda: asyncio.StreamReaderProtocol(reader), sys.stdin)
        while True:
            line = await reader.readline()
            op = json.loads(line)["op"] if line.strip() else "stop"
            if op == "stop":
                _send(await self.stop())
                return
            _send(self.probe())


def _send(message: dict[str, Any]) -> None:
    sys.stdout.write(json.dumps(message) + "\n")
    sys.stdout.flush()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--backend", choices=("host", "cluster"), required=True)
    parser.add_argument("--trace", metavar="DIR", default=None)
    args = parser.parse_args()
    asyncio.run(BenchServer(args.backend, args.trace).serve())


if __name__ == "__main__":
    main()
