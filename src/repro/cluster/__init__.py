"""A sharded multi-process cluster tier over the host runtime.

:class:`~repro.cluster.cluster.Cluster` routes session ids to shard
worker processes (one :class:`~repro.host.host.Host` per OS process),
keeps every session in a pluggable
:class:`~repro.cluster.store.SnapshotStore` as a checkpoint (a
:mod:`repro.snapshot` blob) plus a log of the requests it has run
since, and uses them to make sessions mobile: evict them from shard
memory, migrate them between shards, and rebuild them on a respawned
worker when a shard process dies.  See ``docs/CLUSTER.md``.
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
