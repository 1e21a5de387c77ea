"""The streaming, sharded race-detection service (``repro-serve``).

The offline pipeline (``record -> repro-race analyze``) becomes an online
one: events are ingested as they happen and checked incrementally, the way
the paper's runtime checks accesses inside the JVM.  The pieces:

* :mod:`repro.server.engine` -- the sharded engine: synchronization events
  broadcast to every shard, data accesses hash-partitioned by variable,
  each shard a :class:`~repro.server.engine.PartitionedGoldilocks` over its
  partition, applied in the service process;
* :mod:`repro.server.service` -- ingestion: framing, batching with a flush
  interval, per-connection sequencing, stdin/TCP/Unix-socket/file-tail
  transports;
* :mod:`repro.server.protocol` -- the line-oriented wire protocol (every
  recorded trace is a valid client stream);
* :mod:`repro.server.client` -- a small client library;
* :mod:`repro.server.stats` -- :class:`ServiceStats` snapshots behind the
  ``!stats`` control command;
* :mod:`repro.server.cli` -- the ``repro-serve`` entry point.
"""

from .client import ServiceClient, detect_over_socket
from .engine import EngineConfig, PartitionedGoldilocks, ShardedEngine, shard_of
from .protocol import RaceLine, format_race, parse_race
from .service import RaceDetectionService, ServiceConfig, serve_tcp, serve_unix
from .stats import ServiceStats, ShardStats

__all__ = [
    "EngineConfig",
    "PartitionedGoldilocks",
    "RaceDetectionService",
    "RaceLine",
    "ServiceClient",
    "ServiceConfig",
    "ServiceStats",
    "ShardStats",
    "ShardedEngine",
    "detect_over_socket",
    "format_race",
    "parse_race",
    "serve_tcp",
    "serve_unix",
    "shard_of",
]
