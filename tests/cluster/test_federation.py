"""The federated metrics plane: label injection, merging, live polling.

Unit tests cover :func:`repro.obs.bridge.federate_expositions` (textual
federation with per-node labels); the integration tests stand up a
two-node in-process cluster, refresh the federation, and assert the
merged scrape plus the stitched cross-node trace the CI smoke job greps
for.
"""

import json
import threading

import pytest

from repro.cluster import ClusterConfig, ClusterCoordinator
from repro.obs.bridge import _inject_node_label, federate_expositions
from repro.obs.registry import parse_exposition
from repro.obs.tracing import ObsConfig
from repro.server.service import RaceDetectionService, ServiceConfig, serve_tcp

RACY_LINES = [
    "1 0 fork 2",
    "1 1 fork 3",
    "2 0 acq 10",
    "2 1 write 20 x",
    "2 2 rel 10",
    "3 0 write 20 x",
]


def test_inject_node_label_with_and_without_labels():
    assert (
        _inject_node_label("repro_up 1", "node0")
        == 'repro_up{node="node0"} 1'
    )
    assert (
        _inject_node_label('repro_x{stage="apply"} 2', "node0")
        == 'repro_x{node="node0",stage="apply"} 2'
    )


def test_inject_node_label_escapes_values():
    line = _inject_node_label("repro_up 1", 'we"ird\\name')
    (labels, value) = parse_exposition("# TYPE repro_up gauge\n" + line + "\n")[
        "repro_up"
    ][0]
    assert labels["node"] == 'we"ird\\name'
    assert value == 1.0


def test_federate_merges_families_with_one_header_block():
    member = (
        "# HELP repro_events_total events\n"
        "# TYPE repro_events_total counter\n"
        "repro_events_total 3\n"
    )
    merged = federate_expositions({"a": member, "b": member})
    lines = merged.splitlines()
    assert lines.count("# TYPE repro_events_total counter") == 1
    samples = parse_exposition(merged)
    assert sorted(samples["repro_events_total"], key=str) == [
        ({"node": "a"}, 3.0),
        ({"node": "b"}, 3.0),
    ]


def test_federate_merges_cluster_text_unlabeled_into_shared_family():
    member = (
        "# HELP repro_slo_degraded breached\n"
        "# TYPE repro_slo_degraded gauge\n"
        "repro_slo_degraded 0\n"
    )
    cluster = (
        "# HELP repro_slo_degraded breached\n"
        "# TYPE repro_slo_degraded gauge\n"
        "repro_slo_degraded 1\n"
    )
    merged = federate_expositions({"a": member}, cluster)
    assert merged.splitlines().count("# TYPE repro_slo_degraded gauge") == 1
    samples = parse_exposition(merged)
    assert len(samples["repro_slo_degraded"]) == 2
    assert ({}, 1.0) in samples["repro_slo_degraded"]
    assert ({"node": "a"}, 0.0) in samples["repro_slo_degraded"]


@pytest.fixture
def two_obs_nodes(tmp_path):
    services, servers, nodes = [], [], {}
    for i in range(2):
        service = RaceDetectionService(
            ServiceConfig(
                flush_interval=0,
                obs=ObsConfig(
                    counters=True,
                    trace=True,
                    node=f"node{i}",
                    span_sample=1,
                    span_log=str(tmp_path / f"spans.node{i}"),
                ),
            )
        )
        server = serve_tcp(service, "127.0.0.1", 0)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        services.append(service)
        servers.append(server)
        nodes[f"node{i}"] = ("127.0.0.1", server.server_address[1])
    yield nodes, tmp_path
    for server in servers:
        server.shutdown()
        server.server_close()
    for service in services:
        service.close()


def _run_cluster(nodes, lines, **kwargs):
    with ClusterCoordinator(
        ClusterConfig(nodes=nodes, n_groups=4, batch_size=256, **kwargs)
    ) as coordinator:
        for line in lines:
            coordinator.submit_line(line)
        races = list(coordinator.barrier())
        coordinator.refresh_federation()
        text = coordinator.federation_text()
        health = coordinator.federation_health()
        adapter = coordinator.metrics_adapter()
        assert adapter.render_metrics() == text
        assert adapter.health() == health
        coordinator.shutdown_nodes()
    return races, text, health


def test_federated_scrape_has_per_node_labels_and_cluster_slo(two_obs_nodes):
    nodes, _tmp = two_obs_nodes
    races, text, health = _run_cluster(
        nodes,
        RACY_LINES,
        obs=ObsConfig(trace=True, node="coordinator"),
    )
    assert len(races) == 1
    samples = parse_exposition(text)
    ingest_nodes = {
        labels.get("node")
        for labels, _v in samples["repro_ingest_events_total"]
    }
    assert {"node0", "node1"} <= ingest_nodes
    # unlabeled cluster-wide verdict rides along with the labeled per-node ones
    slo_labelsets = [
        labels for labels, _v in samples["repro_slo_degraded"]
    ]
    assert {} in slo_labelsets
    assert {"node": "node0"} in slo_labelsets
    assert health["status"] == "ok"
    assert health["members_polled"] == ["coordinator", "node0", "node1"]
    assert health["races_reported"] == 1
    assert health["slo"]["degraded"] is False


def test_cross_node_spans_stitch_on_one_trace_id(two_obs_nodes):
    nodes, tmp_path = two_obs_nodes
    _races, _text, _health = _run_cluster(
        nodes,
        RACY_LINES,
        obs=ObsConfig(trace=True, node="coordinator"),
    )
    per_node_ids = []
    for i in range(2):
        log = tmp_path / f"spans.node{i}"
        spans = [
            json.loads(line)
            for line in log.read_text().splitlines()
            if line.strip()
        ]
        assert spans, f"node{i} wrote no spans"
        assert all(span["node"] == f"node{i}" for span in spans)
        per_node_ids.append({span["trace_id"] for span in spans})
    stitched = per_node_ids[0] & per_node_ids[1]
    assert stitched, "no trace id spans both nodes"


def test_trace_cli_stitches_timeline(two_obs_nodes, capsys):
    from repro.obs.cli import main as obs_main

    nodes, tmp_path = two_obs_nodes
    _run_cluster(nodes, RACY_LINES, obs=ObsConfig(trace=True, node="coordinator"))
    logs = [str(tmp_path / f"spans.node{i}") for i in range(2)]
    first = json.loads(open(logs[0]).readline())
    assert (
        obs_main(["trace", first["trace_id"], "--log", logs[0], "--log", logs[1]])
        == 0
    )
    out = capsys.readouterr().out
    assert "node0" in out and "node1" in out
    assert "2 node(s)" in out
