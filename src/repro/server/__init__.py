"""The streaming, sharded race-detection service (``repro-serve``).

The offline pipeline (``record -> repro-race analyze``) becomes an online
one: events are ingested as they happen and checked incrementally, the way
the paper's runtime checks accesses inside the JVM.  The pieces:

* :mod:`repro.server.engine` -- the engine: one
  :class:`~repro.core.kernel.EncodedGoldilocks` kernel per process, with
  the variables split into groups by ``crc32(var) % n_shards`` (a group
  is what a process hosts, retires, checkpoints and hands over; every
  synchronization event is applied once), applied in the service process;
* :mod:`repro.server.service` -- ingestion: framing, runs applied before
  each call returns, per-connection sequencing, stdin/TCP/Unix-socket/
  file-tail transports;
* :mod:`repro.server.protocol` -- the line-oriented wire protocol (every
  recorded trace is a valid client stream);
* :mod:`repro.server.client` -- a small client library;
* :mod:`repro.server.stats` -- :class:`ServiceStats` snapshots behind the
  ``!stats`` control command;
* :mod:`repro.server.cli` -- the ``repro-serve`` entry point.
"""

from .client import ServiceClient, detect_over_socket
from .engine import EngineConfig, ShardedEngine, shard_of
from .protocol import RaceLine, format_race, parse_race
from .service import RaceDetectionService, ServiceConfig, serve_tcp, serve_unix
from .stats import ServiceStats, ShardStats

__all__ = [
    "EngineConfig",
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
