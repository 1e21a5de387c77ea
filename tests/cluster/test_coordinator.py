"""The cluster coordinator over real sockets: parity, migration, liveness.

The acceptance gate of the cluster PR lives here: a two-node cluster with
a live mid-stream migration must report race lines *byte-identical*
(``seq`` included) to a single-node run with the same shard-group count.
"""

import contextlib
import threading

import pytest

from repro.cluster import ClusterConfig, ClusterCoordinator
from repro.server.engine import EngineConfig, ShardedEngine
from repro.server.protocol import format_race
from repro.server.service import RaceDetectionService, ServiceConfig, serve_tcp
from tests.helpers import service_trace, service_trace_text

N_GROUPS = 4


def single_node_races(events):
    """Verdicts of one engine at the cluster's partition count, sorted."""
    with ShardedEngine(EngineConfig(n_shards=N_GROUPS)) as engine:
        for event in events:
            engine.submit(event)
        return sorted(format_race(seq, r) for seq, r in engine.barrier())


@pytest.fixture(scope="module")
def events():
    return service_trace()


@pytest.fixture(scope="module")
def reference(events):
    lines = single_node_races(events)
    assert lines, "the shared service trace must contain races"
    return lines


@contextlib.contextmanager
def running_nodes(count):
    """``count`` in-process ``repro-serve`` nodes on loopback ports."""
    services, servers, nodes = [], [], {}
    try:
        for i in range(count):
            service = RaceDetectionService(ServiceConfig())
            services.append(service)
            server = serve_tcp(service, "127.0.0.1", 0)
            servers.append(server)
            threading.Thread(target=server.serve_forever, daemon=True).start()
            nodes[f"node{i}"] = ("127.0.0.1", server.server_address[1])
        yield nodes
    finally:
        for server in servers:
            server.shutdown()
            server.server_close()
        for service in services:
            service.close()


@pytest.fixture
def two_nodes():
    with running_nodes(2) as nodes:
        yield nodes


def make_coordinator(nodes, **kwargs):
    return ClusterCoordinator(
        ClusterConfig(nodes=nodes, n_groups=N_GROUPS, **kwargs)
    )


def test_two_node_parity_without_migration(two_nodes, events, reference):
    with make_coordinator(two_nodes) as coordinator:
        for event in events:
            coordinator.submit_event(event)
        assert sorted(coordinator.barrier()) == reference
        coordinator.shutdown_nodes()


@pytest.mark.parametrize("n_nodes", [1, 4])
def test_balanced_parity_at_one_and_four_nodes(n_nodes, events, reference):
    """Every group is hosted on exactly one node, and the merged race lines
    equal the single-node run's at any node count (2 is covered above)."""
    with running_nodes(n_nodes) as nodes:
        with make_coordinator(nodes) as coordinator:
            for event in events:
                coordinator.submit_event(event)
            assert sorted(coordinator.barrier()) == reference
            hosted = sorted(
                g for groups in coordinator.stats().assignment.values() for g in groups
            )
            assert hosted == list(range(N_GROUPS))
            coordinator.shutdown_nodes()


def test_admission_through_the_coordinator_keeps_the_race_lines(two_nodes):
    """The coordinator drops the colt filter's race-free accesses at its
    encoder; the nodes still report the unfiltered run's lines, seq included."""
    from repro.analysis.admission import build_admission_filter, record_workload

    events, objmap = record_workload("colt", scale="small")
    filt = build_admission_filter(
        "colt", policy="intersect", scale="small", objmap=objmap
    )
    unfiltered = single_node_races(events)
    assert unfiltered, "colt must race for parity to mean anything"
    with make_coordinator(two_nodes, admit=filt) as coordinator:
        for event in events:
            coordinator.submit_event(event)
        assert sorted(coordinator.barrier()) == unfiltered
        assert coordinator.stats().data_filtered > 0
        coordinator.shutdown_nodes()


def test_mid_stream_migration_is_line_identical(two_nodes, events, reference):
    """The headline gate: checkpoint a live group off node A mid-stream,
    buffer a 200-event window, restore on node B, replay, keep streaming --
    and the merged race lines (seq included) match an unmigrated run."""
    with make_coordinator(two_nodes) as coordinator:
        mid = len(events) // 2
        for event in events[:mid]:
            coordinator.submit_event(event)

        group = 0
        src = coordinator.placement.node_of(group)
        dst = "node1" if src == "node0" else "node0"
        coordinator.begin_migration(group, dst)
        assert coordinator.stats().migrations_active == 1
        for event in events[mid : mid + 200]:
            coordinator.submit_event(event)
        coordinator.complete_migration(group)

        for event in events[mid + 200 :]:
            coordinator.submit_event(event)
        assert sorted(coordinator.barrier()) == reference

        stats = coordinator.stats()
        assert stats.migrations_completed == 1
        assert stats.migrations_active == 0
        assert group in stats.assignment[dst]
        coordinator.shutdown_nodes()


def test_atomic_migration_and_errors(two_nodes, events, reference):
    with make_coordinator(two_nodes) as coordinator:
        mid = len(events) // 2
        for event in events[:mid]:
            coordinator.submit_event(event)
        coordinator.migrate(1, "node0")  # zero-window hand-off
        with pytest.raises(ValueError):
            coordinator.migrate(1, "node0")  # already there
        with pytest.raises(ValueError):
            coordinator.migrate(1, "ghost")  # unknown target
        with pytest.raises(ValueError):
            coordinator.complete_migration(1)  # nothing in flight
        coordinator.begin_migration(2, "node1")
        with pytest.raises(ValueError):
            coordinator.begin_migration(2, "node0")  # already migrating
        coordinator.complete_migration(2)
        for event in events[mid:]:
            coordinator.submit_event(event)
        assert sorted(coordinator.barrier()) == reference
        coordinator.shutdown_nodes()


def test_submit_line_parity(two_nodes, reference):
    text = service_trace_text()
    with make_coordinator(two_nodes) as coordinator:
        for line in text.splitlines():
            coordinator.submit_line(line)
        assert sorted(coordinator.barrier()) == reference
        coordinator.shutdown_nodes()


def test_heartbeat_stats_and_metrics_bridge(two_nodes, events):
    from repro.obs.bridge import registry_from_cluster

    with make_coordinator(two_nodes) as coordinator:
        for event in events[:300]:
            coordinator.submit_event(event)
        coordinator.barrier()
        assert coordinator.heartbeat(force=True) == {
            "node0": True,
            "node1": True,
        }
        assert coordinator.heartbeat() == {}  # not due yet

        stats = coordinator.stats()
        assert stats.events_ingested == 300
        assert stats.sync_broadcast + stats.data_routed == 300
        assert stats.interner_version > 1
        assert {n["name"] for n in stats.nodes} == {"node0", "node1"}
        assert sorted(
            g for groups in stats.assignment.values() for g in groups
        ) == list(range(N_GROUPS))
        payload = stats.as_dict()
        assert payload["membership"]["nodes"][0]["status"] == "up"

        exposition = registry_from_cluster(
            stats, tracer=coordinator.tracer
        ).render()
        for name in (
            "repro_cluster_events_ingested_total",
            "repro_cluster_interner_version",
            'repro_node_events_sent_total{node="node0"}',
            'repro_node_groups_hosted{node="node1"}',
            'repro_node_up{node="node0"} 1',
        ):
            assert name in exposition, name
        coordinator.shutdown_nodes()


def test_config_validation():
    with pytest.raises(ValueError):
        ClusterCoordinator(ClusterConfig(nodes={}))
    with pytest.raises(ValueError):
        ClusterCoordinator(
            ClusterConfig(nodes={"a": ("127.0.0.1", 1)}, n_groups=0)
        )


def test_cli_end_to_end(tmp_path, capsys, reference):
    """``repro-cluster --local-nodes 2`` with a mid-stream migration."""
    from repro.cluster.cli import main as cluster_main

    trace = tmp_path / "run.trace"
    trace.write_text(service_trace_text(), encoding="utf-8")
    mid = 2536 // 2
    code = cluster_main(
        [
            "--local-nodes", "2", "--groups", str(N_GROUPS),
            "--migrate", f"0:node1@{mid}", "--window", "200",
            "--stats", str(trace),
        ]
    )
    captured = capsys.readouterr()
    assert code == 1  # races found
    assert sorted(captured.out.splitlines()) == reference
    assert '"migrations_completed": 1' in captured.err


def test_cli_rejects_bad_specs(capsys):
    from repro.cluster.cli import main as cluster_main

    with pytest.raises(SystemExit):
        cluster_main(["--node", "nonsense"])
    with pytest.raises(SystemExit):
        cluster_main(["--groups", "4"])  # no nodes at all
    with pytest.raises(SystemExit):
        cluster_main(["--local-nodes", "1", "--migrate", "zero:node0"])
    capsys.readouterr()
