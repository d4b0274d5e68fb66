"""A sharded multi-process cluster tier over the host runtime.

:class:`~repro.cluster.cluster.Cluster` routes session ids to shard
worker processes (one :class:`~repro.host.host.Host` per OS process),
persists every session's latest snapshot (:mod:`repro.snapshot`) to a
pluggable :class:`~repro.cluster.store.SnapshotStore`, and uses those
snapshots to make sessions mobile: evict them from shard memory,
migrate them between shards, and replay them onto a respawned worker
when a shard process dies.  See ``docs/CLUSTER.md``.
"""

from repro.cluster.cluster import Cluster, ClusterResult
from repro.cluster.handle import ClusterHandle
from repro.cluster.shard import ShardRuntime, shard_main
from repro.cluster.store import DirectoryStore, MemoryStore, SnapshotStore

__all__ = [
    "Cluster",
    "ClusterHandle",
    "ClusterResult",
    "DirectoryStore",
    "MemoryStore",
    "ShardRuntime",
    "SnapshotStore",
    "shard_main",
]
