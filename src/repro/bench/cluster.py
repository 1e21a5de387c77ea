"""Cluster scaling benchmark: one trace, 1/2/4 nodes, deterministic cost.

Spins up in-process ``repro-serve`` nodes (port 0), routes
the fixed :data:`~repro.bench.ingest.TRACE_PARAMS` trace through a
:class:`~repro.cluster.ClusterCoordinator` at each node count, and scores
scaling with a deterministic cost model instead of wall-clock:

* per-node cost = records the coordinator shipped to that node
  (``events_sent``: every sync/alloc/commit is broadcast, data accesses
  are split by group ownership);
* the run's cost = the **critical path**, i.e. the busiest node;
* speedup = critical path at 1 node / critical path at n nodes.

The broadcast sync tail is the serial fraction, so speedup follows
Amdahl: with D data records split n ways over S broadcast syncs the model
predicts ``(D + S) / (D/n + S)``.  Wall-clock numbers are reported too,
but only as a sanity column -- loopback TCP latency on a CI box is noise,
the record counts are not.

Placement uses ``balanced=True`` (round-robin pins) so the 4 groups split
2/2 at two nodes; the raw ring would happily do 3/1 on small clusters and
understate the scaling the partitioner actually permits.

Race parity across node counts is asserted and recorded: every
configuration must report the identical sorted race lines (seq included).
"""

from __future__ import annotations

import json
import threading
import time
from typing import Dict, List, Sequence, Tuple

from .ingest import TRACE_PARAMS, TRACE_SEED, generate_trace

#: global shard-group count; matches the single-node N_SHARDS so cluster
#: verdicts stay byte-compatible with the other benchmarks' runs
N_GROUPS = 4

#: node counts benchmarked, smallest first (index 0 is the baseline)
NODE_COUNTS = (1, 2, 4)


def _start_nodes(count: int):
    """``count`` in-process service nodes; returns (nodes, services, servers)."""
    from ..server.service import RaceDetectionService, ServiceConfig, serve_tcp

    nodes: Dict[str, Tuple[str, int]] = {}
    services = []
    servers = []
    for i in range(count):
        service = RaceDetectionService(ServiceConfig(flush_interval=0))
        server = serve_tcp(service, "127.0.0.1", 0)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        services.append(service)
        servers.append(server)
        nodes[f"node{i}"] = ("127.0.0.1", server.server_address[1])
    return nodes, services, servers


def _run_cluster(
    events, n_nodes: int, n_groups: int
) -> Tuple[Dict[str, object], List[str]]:
    """One full run at ``n_nodes``; returns (row, sorted race lines)."""
    from ..cluster import ClusterConfig, ClusterCoordinator

    nodes, services, servers = _start_nodes(n_nodes)
    coordinator = ClusterCoordinator(
        ClusterConfig(nodes=nodes, n_groups=n_groups, balanced=True)
    )
    try:
        start = time.perf_counter()
        for event in events:
            coordinator.submit_event(event)
        races = coordinator.barrier()
        elapsed = time.perf_counter() - start
        stats = coordinator.stats()
        per_node = {
            node["name"]: node["events_sent"] for node in stats.nodes
        }
        row: Dict[str, object] = {
            "nodes": n_nodes,
            "assignment": stats.assignment,
            "per_node_records": per_node,
            "critical_path_records": max(per_node.values()),
            "total_records_shipped": sum(per_node.values()),
            "sync_broadcast": stats.sync_broadcast,
            "data_routed": stats.data_routed,
            "races": len(races),
            "wall_sec": round(elapsed, 4),
            "events_per_sec": round(len(events) / elapsed) if elapsed else 0,
        }
        return row, sorted(races)
    finally:
        coordinator.shutdown_nodes()
        coordinator.close()
        for server in servers:
            server.shutdown()
            server.server_close()
        for service in services:
            service.close()


def bench_cluster(
    node_counts: Sequence[int] = NODE_COUNTS, n_groups: int = N_GROUPS
) -> Dict[str, object]:
    """Run the trace at every node count; returns the JSON payload."""
    events = generate_trace(**TRACE_PARAMS)
    rows: List[Dict[str, object]] = []
    race_lines: Dict[int, List[str]] = {}
    for count in node_counts:
        row, lines = _run_cluster(events, count, n_groups)
        rows.append(row)
        race_lines[count] = lines
    baseline = rows[0]["critical_path_records"]
    for row in rows:
        row["model_speedup_vs_1node"] = round(
            baseline / row["critical_path_records"], 4
        )
    reference = race_lines[node_counts[0]]
    return {
        "benchmark": "cluster_scaling",
        "trace": {
            "generator": TRACE_PARAMS,
            "seed": TRACE_SEED,
            "events": len(events),
        },
        "n_groups": n_groups,
        "cost_model": (
            "records shipped per node (sync broadcast + data share); "
            "run cost = max over nodes (critical path); "
            "speedup = critical(1 node) / critical(n nodes)"
        ),
        "placement": "balanced round-robin pins over sorted node names",
        "runs": rows,
        "parity": {
            "identical_race_lines": all(
                lines == reference for lines in race_lines.values()
            ),
            "races": len(reference),
        },
    }


def render_cluster(payload: Dict[str, object]) -> str:
    """Human-readable table for terminal output."""
    trace = payload["trace"]
    lines = [
        f"Cluster scaling on {trace['events']} events, "
        f"{payload['n_groups']} shard groups "
        f"(cost = critical-path records per node):",
        f"{'nodes':>5} {'critical':>9} {'shipped':>9} {'speedup':>8} "
        f"{'races':>6} {'wall sec':>9}",
    ]
    for row in payload["runs"]:
        lines.append(
            f"{row['nodes']:>5} {row['critical_path_records']:>9} "
            f"{row['total_records_shipped']:>9} "
            f"{row['model_speedup_vs_1node']:>7}x {row['races']:>6} "
            f"{row['wall_sec']:>9}"
        )
    parity = payload["parity"]
    lines.append(
        f"parity: {parity['races']} races, identical across node counts = "
        f"{parity['identical_race_lines']}"
    )
    return "\n".join(lines)


def write_cluster_json(path: str) -> Dict[str, object]:
    """Run the benchmark and write the JSON artifact; returns the payload."""
    payload = bench_cluster()
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return payload
