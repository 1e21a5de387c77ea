"""Service-level statistics snapshots.

The offline detectors already expose :class:`~repro.core.stats.DetectorStats`
per instance; the service adds a layer on top: ingestion counters (data
routed by group, sync records, batches, frame bytes) and one entry for the
process's kernel, whatever the number of groups it hosts.  A
:class:`ServiceStats` is a plain *snapshot* -- it is JSON-serializable both
ways so the ``!stats`` control command can ship it over the wire and the
client library can reconstitute it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from typing import Any, Dict, List

from ..core.stats import short_circuit_rate_of


def _known_subset(cls, data: Dict[str, Any]) -> Dict[str, Any]:
    """Keep only keys the dataclass knows; count the rest.

    Forward compatibility: an older client must be able to parse a newer
    server's ``!stats`` JSON.  Unknown keys are dropped, and their count is
    folded into ``unknown_fields`` so the loss is visible, not silent.
    """
    known = {f.name for f in fields(cls)}
    payload = {key: value for key, value in data.items() if key in known}
    dropped = len(data) - len(payload)
    if dropped:
        payload["unknown_fields"] = payload.get("unknown_fields", 0) + dropped
    return payload


@dataclass
class ShardStats:
    """The process's kernel at snapshot time (``shard`` 0: there is one)."""

    shard: int
    #: records the kernel has applied
    events_processed: int = 0
    #: races the kernel has reported
    races: int = 0
    #: the kernel's short-circuit rate (1.0 while idle)
    short_circuit_rate: float = 1.0
    #: the kernel's deterministic cost counter
    detector_work: int = 0
    #: full :meth:`DetectorStats.as_dict` payload from the kernel
    detector: Dict[str, int] = field(default_factory=dict)
    #: snapshot keys dropped by from_dict (newer-server fields)
    unknown_fields: int = 0

    def as_dict(self) -> Dict[str, Any]:
        return {
            "shard": self.shard,
            "events_processed": self.events_processed,
            "races": self.races,
            "short_circuit_rate": self.short_circuit_rate,
            "detector_work": self.detector_work,
            "detector": dict(self.detector),
            "unknown_fields": self.unknown_fields,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ShardStats":
        return cls(**_known_subset(cls, data))


@dataclass
class ServiceStats:
    """A point-in-time snapshot of the whole streaming service."""

    #: seconds since the service (or engine) started
    uptime_sec: float = 0.0
    #: events accepted by the ingestion layer
    events_ingested: int = 0
    #: ingest rate over the whole uptime
    events_per_sec: float = 0.0
    #: synchronization/alloc/commit events, each applied once by the kernel
    sync_broadcast: int = 0
    #: data accesses routed by group (applied if the group is hosted here)
    data_routed: int = 0
    #: data accesses admitted past the static admission filter
    data_admitted: int = 0
    #: data accesses dropped at the edge as statically race-free
    data_filtered: int = 0
    #: admission policy in force ("off" when no filter is installed)
    admit: str = "off"
    #: admission pre-filter positives (exact lookup had to run)
    admit_prefilter_hits: int = 0
    #: admission pre-filter misses (admitted on one mask test)
    admit_prefilter_misses: int = 0
    #: batches pushed to the kernel
    batches_flushed: int = 0
    #: event lines the ingestion layer could not parse
    parse_errors: int = 0
    #: races the kernel has reported
    races_reported: int = 0
    #: groups this process hosts
    n_shards: int = 1
    #: frame bytes pushed to the kernel
    queue_bytes: int = 0
    #: per-event allocation proxy at the ingestion edge
    edge_allocs: int = 0
    #: batches written to the span log (0 unless sampling is enabled)
    spans_sampled: int = 0
    #: ``.flightrec`` files written by the race flight recorder
    flightrec_dumps: int = 0
    #: race reports that arrived with a provenance chain attached
    provenance_attached: int = 0
    #: snapshot keys dropped by from_dict (newer-server fields)
    unknown_fields: int = 0
    shards: List[ShardStats] = field(default_factory=list)

    @property
    def detector(self) -> Dict[str, int]:
        """The detector counters of every entry of :attr:`shards`, summed."""
        total: Dict[str, int] = {}
        for shard in self.shards:
            for key, value in shard.detector.items():
                total[key] = total.get(key, 0) + value
        return total

    @property
    def short_circuit_rate(self) -> float:
        """The short-circuit rate of the summed counters: weighted by query
        counts, so idle entries weigh nothing (1.0 when fully idle)."""
        return short_circuit_rate_of(self.detector)

    def derive_rates(self, uptime_sec: float) -> None:
        """Set ``uptime_sec`` / ``events_per_sec`` from a monotonic uptime.

        The single place rate math happens: the guard keeps a zero (or
        pathological negative) uptime from dividing by zero, and callers
        always feed ``time.monotonic()`` differences, so the published
        uptime can never go backwards across snapshots.
        """
        self.uptime_sec = max(uptime_sec, 1e-9)
        self.events_per_sec = self.events_ingested / self.uptime_sec

    def as_dict(self) -> Dict[str, Any]:
        return {
            "uptime_sec": self.uptime_sec,
            "events_ingested": self.events_ingested,
            "events_per_sec": self.events_per_sec,
            "sync_broadcast": self.sync_broadcast,
            "data_routed": self.data_routed,
            "data_admitted": self.data_admitted,
            "data_filtered": self.data_filtered,
            "admit": self.admit,
            "admit_prefilter_hits": self.admit_prefilter_hits,
            "admit_prefilter_misses": self.admit_prefilter_misses,
            "batches_flushed": self.batches_flushed,
            "parse_errors": self.parse_errors,
            "races_reported": self.races_reported,
            "n_shards": self.n_shards,
            "queue_bytes": self.queue_bytes,
            "edge_allocs": self.edge_allocs,
            "spans_sampled": self.spans_sampled,
            "flightrec_dumps": self.flightrec_dumps,
            "provenance_attached": self.provenance_attached,
            "unknown_fields": self.unknown_fields,
            "short_circuit_rate": self.short_circuit_rate,
            "shards": [shard.as_dict() for shard in self.shards],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ServiceStats":
        data = dict(data)
        data.pop("short_circuit_rate", None)  # derived, not stored
        shards = [ShardStats.from_dict(s) for s in data.pop("shards", [])]
        return cls(shards=shards, **_known_subset(cls, data))

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ServiceStats":
        return cls.from_dict(json.loads(text))
