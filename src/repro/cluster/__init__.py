"""``repro.cluster``: multi-node race detection over checkpoint-migrated shards.

The single-process service already shards detection locally (broadcast
sync, crc32-partitioned data accesses).  This package builds the next layer
around it:

* :mod:`.membership` -- node registry with heartbeat liveness tracking;
* :mod:`.coordinator` -- the ingestion edge of the cluster: one master
  :class:`~repro.core.encode.EventEncoder`, per-node interner cursors, packed
  frames over the existing ``!binary`` wire, race collection, the
  :class:`~repro.cluster.coordinator.Placement` of shard *groups* (global
  crc32 partitions) round-robin over the sorted node names, and the live
  shard-group migration driver (checkpoint on A, restore on B, replay the
  buffered delta, pin the group to B);
* :mod:`.cli` -- the ``repro-cluster`` command.

Nodes are plain ``repro-serve`` instances running the same engine: the
``!cluster`` control verb re-partitions one into the cluster's groups, none
hosted until the coordinator adopts some there (see ``docs/CLUSTER.md``).
"""

from .coordinator import (
    ClusterConfig,
    ClusterCoordinator,
    ClusterStats,
    NodeHandle,
    Placement,
)
from .membership import Membership, NodeState

__all__ = [
    "ClusterConfig",
    "ClusterCoordinator",
    "ClusterStats",
    "Membership",
    "NodeHandle",
    "NodeState",
    "Placement",
]
