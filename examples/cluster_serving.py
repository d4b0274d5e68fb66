#!/usr/bin/env python3
"""Sharded serving with durable sessions: the cluster tier demo.

A :class:`repro.cluster.Cluster` spreads interpreter sessions over
worker OS processes by hashing their ids, keeps each session in a
directory store as a checkpoint plus a log of the requests since, and
rehydrates from the store on any shard.  This demo exercises the whole lifecycle:

1. six tenants served across two worker processes, each running the
   paper's capture-heavy programs (``pcall`` trees, futures);
2. a session with live cross-form machine state (a parked future)
   migrated to the other shard mid-conversation — the future's tree
   rides along inside the snapshot and ``touch`` still answers;
3. a worker killed with SIGKILL; the next request respawns it and
   rebuilds the victim session from its checkpoint and log — state
   intact;
4. the whole cluster torn down and a brand-new one pointed at the same
   directory, resuming every session from disk.

Run:  python examples/cluster_serving.py

Exits non-zero if any reply is wrong at any stage — CI runs this as
an acceptance check.
"""

import os
import signal
import sys
import tempfile
import time

from repro.cluster import Cluster, DirectoryStore


def check(failures: list, label: str, got, want) -> None:
    ok = got == want
    if not ok:
        failures.append(label)
    print(f"  {label:24s} {got!r:10} (expected {want!r}) [{'ok' if ok else 'WRONG'}]")


def main() -> int:
    failures: list = []
    store_dir = tempfile.mkdtemp(prefix="cluster-demo-")

    with Cluster(workers=2, store=DirectoryStore(store_dir)) as cluster:
        # -- 1. sharded tenants ----------------------------------------
        print(f"serving 6 tenants across {len(cluster.shards)} worker processes...")
        for k in range(6):
            r = cluster.submit(
                f"tenant-{k}",
                "(define (loop n) (if (= n 0) 0 (loop (- n 1))))"
                f"(define me {k})"
                f"(pcall + (loop 40) (* me me) (loop 25))",
            )
            check(failures, f"tenant-{k} @shard{r.shard}", r.value, str(k * k))

        # -- 2. migrating a parked future ------------------------------
        cluster.submit(
            "futurist",
            "(define (loop n) (if (= n 0) 64 (loop (- n 1))))"
            "(define f (future (lambda () (loop 5000))))",
        )
        home = cluster.shard_for("futurist")
        away = (home + 1) % 2
        cluster.migrate("futurist", away)
        r = cluster.submit("futurist", "(touch f)")
        check(failures, f"futurist {home}->{r.shard}", r.value, "64")

        # -- 3. SIGKILL a worker; recover from the store ---------------
        victim = cluster.submit("tenant-0", "(set! me 777) me")
        print(f"\nSIGKILL worker {victim.shard} "
              f"(pid {cluster.shards[victim.shard].process.pid})...")
        os.kill(cluster.shards[victim.shard].process.pid, signal.SIGKILL)
        time.sleep(0.1)
        r = cluster.submit("tenant-0", "me")
        check(failures, f"tenant-0 recovered={r.recovered}", r.value, "777")

        print("\ncluster counters:")
        for key, value in cluster.stats.items():
            print(f"  {key:28s} {value}")

    # -- 4. resume everything from disk in a fresh cluster -------------
    print(f"\nnew cluster over {store_dir} ({len(os.listdir(store_dir))} sessions)...")
    with Cluster(workers=2, store=DirectoryStore(store_dir)) as reborn:
        check(failures, "resumed tenant-0", reborn.submit("tenant-0", "me").value, "777")
        check(failures, "resumed tenant-5", reborn.submit("tenant-5", "me").value, "5")
        check(failures, "resumed futurist", reborn.submit("futurist", "(touch f)").value, "64")

    if failures:
        print(f"\n{len(failures)} FAILURES: {failures}")
        return 1
    print("\nall replies correct through sharding, migration, SIGKILL recovery, "
          "and cold resume")
    return 0


if __name__ == "__main__":
    sys.exit(main())
