"""Auto-populate a metrics registry from the service's stats snapshots.

``ServiceStats`` / ``ShardStats`` / ``DetectorStats`` are deterministic
plain-dict snapshots; this module gives every counter in them a stable,
typed, documented metric name.  One call builds a fresh registry from one
snapshot (scrape semantics: the snapshot *is* the source of truth, so
totals are set rather than incremented), then merges in the lifecycle
tracer's live families when one is passed.

The metric catalog (see ``docs/OBSERVABILITY.md``) is generated from the
same tables used here, so names in the docs cannot drift from names on
the wire.  :data:`REQUIRED_METRICS` is the contract the CI smoke job
asserts against a live ``/metrics`` scrape.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ..core.stats import METRIC_HELP, SC_RUNGS
from .registry import MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids an import cycle)
    from ..cluster.coordinator import ClusterStats
    from ..server.stats import ServiceStats
    from .tracing import LifecycleTracer

#: ServiceStats counter attribute -> (metric name, help)
_SERVICE_COUNTERS = {
    "events_ingested": ("ingest_events_total", "events accepted by the ingestion layer"),
    "sync_broadcast": ("ingest_sync_broadcast_total", "sync/alloc/commit events, each applied once by the kernel"),
    "data_routed": ("ingest_data_routed_total", "data accesses routed by group"),
    "data_admitted": ("ingest_data_admitted_total", "data accesses admitted past the static admission filter"),
    "data_filtered": ("ingest_data_filtered_total", "data accesses dropped at the edge as statically race-free"),
    "admit_prefilter_hits": ("admit_prefilter_hits_total", "admission pre-filter positives (exact lookup ran)"),
    "admit_prefilter_misses": ("admit_prefilter_misses_total", "admission pre-filter misses (admitted on one mask test)"),
    "batches_flushed": ("ingest_batches_flushed_total", "batches pushed to the kernel"),
    "parse_errors": ("ingest_parse_errors_total", "event lines the ingestion layer could not parse"),
    "queue_bytes": ("ingest_queue_bytes_total", "frame bytes pushed to the kernel"),
    "edge_allocs": ("ingest_edge_allocs_total", "per-event allocation proxy at the ingestion edge"),
    "races_reported": ("races_reported_total", "races the kernel has reported"),
    "provenance_attached": ("races_provenance_attached_total", "race reports that arrived with a provenance chain attached"),
    "unknown_fields": ("stats_unknown_fields_total", "snapshot keys dropped by from_dict"),
}

#: ShardStats attribute -> (metric name, type, help); labeled by shard, which
#: is 0: the process's one kernel
_SHARD_METRICS = {
    "events_processed": ("shard_events_processed_total", "counter", "records the kernel has applied"),
    "races": ("shard_races_total", "counter", "races the kernel has reported"),
    "short_circuit_rate": ("shard_short_circuit_rate", "gauge", "the kernel's short-circuit rate"),
    "detector_work": ("shard_detector_work_total", "counter", "the kernel's deterministic cost counter"),
}

#: DetectorStats counters surfaced as plain kernel totals; the HB-query
#: rungs get the labeled family below instead.
_KERNEL_PLAIN = (
    "accesses_checked",
    "sync_events",
    "full_lockset_computations",
    "memo_shared_hits",
    "cells_traversed",
    "rule_applications",
    "cells_collected",
    "partial_evaluations",
    "accesses_filtered",
    "frame_faults",
)

#: metric names (sans prefix) that must appear in any healthy exposition;
#: the CI smoke job and tests/obs assert these against a live scrape
REQUIRED_METRICS = (
    "repro_uptime_seconds",
    "repro_ingest_events_total",
    "repro_ingest_events_per_second",
    "repro_ingest_parse_errors_total",
    "repro_ingest_data_admitted_total",
    "repro_ingest_data_filtered_total",
    "repro_admit_prefilter_hits_total",
    "repro_admit_prefilter_misses_total",
    "repro_races_reported_total",
    "repro_service_shards",
    "repro_shard_events_processed_total",
    "repro_kernel_hb_queries_total",
    "repro_kernel_accesses_checked_total",
    "repro_short_circuit_rate",
    "repro_stage_events_total",
    "repro_stage_latency_seconds",
)


def registry_from_stats(
    stats: "ServiceStats",
    tracer: Optional["LifecycleTracer"] = None,
    registry: Optional[MetricsRegistry] = None,
) -> MetricsRegistry:
    """Build (or extend) a registry from one ``ServiceStats`` snapshot."""
    reg = registry or MetricsRegistry()

    reg.gauge("uptime_seconds", "seconds since the service started").set(
        stats.uptime_sec
    )
    reg.gauge(
        "ingest_events_per_second", "ingest rate over the whole uptime"
    ).set(stats.events_per_sec)
    reg.gauge("service_shards", "number of detection shards").set(stats.n_shards)
    reg.gauge(
        "service_admit_info",
        "admission policy in force (value is always 1; policy is the label)",
        labels=("policy",),
    ).labels(stats.admit).set(1)
    reg.gauge(
        "short_circuit_rate",
        "the kernel's short-circuit rate, weighted by query counts",
    ).set(stats.short_circuit_rate)

    for attr, (name, help_text) in _SERVICE_COUNTERS.items():
        reg.counter(name, help_text).set_total(getattr(stats, attr))

    for name, mtype, help_text in _SHARD_METRICS.values():
        if mtype == "gauge":
            reg.gauge(name, help_text, labels=("shard",))
        else:
            reg.counter(name, help_text, labels=("shard",))
    for shard in stats.shards:
        label = str(shard.shard)
        for attr, (name, mtype, _help) in _SHARD_METRICS.items():
            child = reg.family(name).labels(label)
            value = getattr(shard, attr)
            if mtype == "gauge":
                child.set(value)
            else:
                child.set_total(value)

    # Kernel fast-path totals.  The HB-query ladder
    # is one labeled family so rung shares can be graphed directly.
    rungs = reg.counter(
        "kernel_hb_queries_total",
        "happens-before queries answered, by short-circuit rung",
        labels=("rung",),
    )
    totals = stats.detector
    for rung in SC_RUNGS:
        rungs.labels(rung).set_total(totals.get(rung, 0))
    rungs.labels("full").set_total(totals.get("full_lockset_computations", 0))
    for key in _KERNEL_PLAIN:
        reg.counter(
            f"kernel_{key}_total", METRIC_HELP.get(key, key)
        ).set_total(totals.get(key, 0))

    if tracer is not None:
        _merge_registry(reg, tracer.registry)
    return reg


#: ClusterStats counter attribute -> (metric name, help); coordinator scope
_CLUSTER_COUNTERS = {
    "events_ingested": ("cluster_events_ingested_total", "events accepted by the cluster coordinator"),
    "sync_broadcast": ("cluster_sync_broadcast_total", "sync/alloc/commit events broadcast to every node"),
    "data_routed": ("cluster_data_routed_total", "data accesses routed to exactly one node"),
    "data_filtered": ("cluster_data_filtered_total", "data accesses dropped at the coordinator as statically race-free"),
    "races_reported": ("cluster_races_reported_total", "races reported by all nodes together"),
    "migrations_completed": ("cluster_migrations_completed_total", "shard-group migrations completed"),
}

#: per-node entry key -> (metric name, type, help); all labeled by node
_NODE_METRICS = {
    "events_sent": ("node_events_sent_total", "counter", "events the coordinator shipped to the node"),
    "frames_sent": ("node_frames_sent_total", "counter", "wire frames the coordinator shipped to the node"),
    "bytes_sent": ("node_bytes_sent_total", "counter", "wire bytes the coordinator shipped to the node"),
    "interner_cursor": ("node_interner_version", "gauge", "the node replica's interner version (delta cursor)"),
    "missed": ("node_heartbeats_missed", "gauge", "consecutive failed heartbeats for the node"),
}


def registry_from_cluster(
    stats: "ClusterStats",
    tracer: Optional["LifecycleTracer"] = None,
    registry: Optional[MetricsRegistry] = None,
) -> MetricsRegistry:
    """Build (or extend) a registry from one coordinator snapshot.

    Everything per-node carries a ``node`` label, so one scrape graphs the
    whole cluster: routing skew, replica versions, liveness, and how many
    groups each node currently hosts (which a migration visibly shifts).
    """
    reg = registry or MetricsRegistry()

    reg.gauge("cluster_groups", "global shard-group count").set(stats.n_groups)
    reg.gauge("cluster_nodes", "nodes known to the coordinator").set(
        len(stats.nodes)
    )
    reg.gauge(
        "cluster_interner_version", "the master interner's version"
    ).set(stats.interner_version)
    for attr, (name, help_text) in _CLUSTER_COUNTERS.items():
        reg.counter(name, help_text).set_total(getattr(stats, attr))

    hosted = reg.gauge(
        "node_groups_hosted", "shard groups placed on the node", labels=("node",)
    )
    up = reg.gauge(
        "node_up", "1 while the node's heartbeats succeed", labels=("node",)
    )
    for name, mtype, help_text in _NODE_METRICS.values():
        if mtype == "gauge":
            reg.gauge(name, help_text, labels=("node",))
        else:
            reg.counter(name, help_text, labels=("node",))
    for node in stats.nodes:
        label = str(node["name"])
        hosted.labels(label).set(len(node.get("groups", [])))
        up.labels(label).set(1 if node.get("status") == "up" else 0)
        for key, (name, mtype, _help) in _NODE_METRICS.items():
            child = reg.family(name).labels(label)
            value = node.get(key, 0)
            if mtype == "gauge":
                child.set(value)
            else:
                child.set_total(value)

    if tracer is not None:
        _merge_registry(reg, tracer.registry)
    return reg


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"')


def _inject_node_label(line: str, node: str) -> str:
    """Rewrite one exposition sample line with ``node=...`` as first label."""
    escaped = _escape_label(node)
    brace = line.find("{")
    space = line.find(" ")
    if brace != -1 and (space == -1 or brace < space):
        head, rest = line.split("{", 1)
        return f'{head}{{node="{escaped}",{rest}'
    name, _, value = line.partition(" ")
    return f'{name}{{node="{escaped}"}} {value}'


def federate_expositions(
    members: "dict[str, str]", cluster_text: str = ""
) -> str:
    """Merge member node expositions into one cluster-wide scrape text.

    Each member's sample lines are rewritten with a ``node`` label
    (injected first) and regrouped per family so the merged text stays a
    valid exposition -- all samples of a family contiguous under one
    HELP/TYPE block (the first member's, since the families are the same
    code on every node).  This is *textual* federation on purpose:
    re-playing member counters through a shared
    :class:`MetricsRegistry` would collide on family names and trip
    ``set_total``'s monotonicity when nodes restart.

    ``cluster_text`` (the coordinator's own cluster-scope registry --
    ``repro_cluster_*`` / ``repro_node_*`` families plus the unlabeled
    cluster-wide ``repro_slo_*`` verdict) is merged through the same
    family grouping *without* a node label, so a family that exists at
    both scopes (the SLO gauges) still renders as one HELP/TYPE block.
    """
    meta: "dict[str, dict[str, str]]" = {}  # family -> {"HELP": .., "TYPE": ..}
    samples: "dict[str, list[str]]" = {}
    order: "list[str]" = []

    def family(name: str) -> "list[str]":
        if name not in samples:
            meta[name] = {}
            samples[name] = []
            order.append(name)
        return samples[name]

    def absorb(text: str, node: Optional[str]) -> None:
        current = ""
        for line in text.splitlines():
            stripped = line.strip()
            if not stripped:
                continue
            if stripped.startswith("# HELP ") or stripped.startswith("# TYPE "):
                _hash, kind, current = stripped.split(None, 3)[:3]
                family(current)
                meta[current].setdefault(kind, stripped)
                continue
            if stripped.startswith("#"):
                continue
            family(current).append(
                stripped if node is None else _inject_node_label(stripped, node)
            )

    for node in sorted(members):
        absorb(members[node], node)
    if cluster_text:
        absorb(cluster_text, None)
    blocks: "list[str]" = []
    for name in order:
        blocks.extend(
            meta[name][kind] for kind in ("HELP", "TYPE") if kind in meta[name]
        )
        blocks.extend(samples[name])
    text = "\n".join(blocks)
    if text:
        text += "\n"
    return text


def _merge_registry(dest: MetricsRegistry, src: MetricsRegistry) -> None:
    """Adopt every family of ``src`` into ``dest`` (shared references).

    Scrape-time composition: the tracer's histograms keep accumulating in
    place; the snapshot registry just exposes them under one prefix.
    Family names must not collide -- registration rules apply.
    """
    for name in src.names():
        fam = src.family(name)
        if name in dest.names():
            raise ValueError(f"metric {name!r} defined by both registries")
        dest._families[name] = fam
