"""``repro.cluster``: multi-node race detection over checkpoint-migrated groups.

A single-process service runs one kernel for crc32-partitioned groups of
variables.  This package spreads the groups over several such processes:

* :mod:`.coordinator` -- the ingestion edge of the cluster: one master
  :class:`~repro.core.encode.EventEncoder`, per-node interner cursors, packed
  frames over the existing ``!binary`` wire, race collection, the
  :class:`~repro.cluster.coordinator.Placement` of shard *groups* (global
  crc32 partitions) round-robin over the sorted node names, the live
  shard-group migration driver (checkpoint and retire on A, adopt on B,
  pin the group to B), node liveness read off its ``!metrics`` poll, and
  :class:`~repro.cluster.coordinator.NodeLost` when a node's connection
  fails;
* :mod:`.cli` -- the ``repro-cluster`` command.

Nodes are plain ``repro-serve`` instances running the same engine: the
``!cluster`` control verb re-partitions one into the cluster's groups, none
hosted until the coordinator adopts some there (see ``docs/CLUSTER.md``).
"""

from .coordinator import (
    ClusterConfig,
    ClusterCoordinator,
    ClusterStats,
    NodeLost,
    Placement,
)

__all__ = [
    "ClusterConfig",
    "ClusterCoordinator",
    "ClusterStats",
    "NodeLost",
    "Placement",
]
