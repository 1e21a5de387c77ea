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
from repro.server.protocol import format_race, parse_race
from repro.server.client import ServiceClient
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
def running_services(count):
    """``count`` in-process ``repro-serve`` nodes on loopback ports; yields
    the cluster's node map and each node's service, by name."""
    services, servers, nodes = {}, [], {}
    try:
        for i in range(count):
            service = RaceDetectionService(ServiceConfig())
            services[f"node{i}"] = service
            server = serve_tcp(service, "127.0.0.1", 0)
            servers.append(server)
            threading.Thread(target=server.serve_forever, daemon=True).start()
            nodes[f"node{i}"] = ("127.0.0.1", server.server_address[1])
        yield nodes, services
    finally:
        for server in servers:
            server.shutdown()
            server.server_close()
        for service in services.values():
            service.close()


@contextlib.contextmanager
def running_nodes(count):
    """``count`` in-process ``repro-serve`` nodes on loopback ports."""
    with running_services(count) as (nodes, _services):
        yield nodes


@pytest.fixture
def two_nodes():
    with running_nodes(2) as nodes:
        yield nodes


def feed(coordinator, events, moves=()):
    """Submit ``events``; each ``(at, group, dst)`` move runs before event
    ``at``."""
    moves = sorted(moves)
    for count, event in enumerate(events):
        while moves and moves[0][0] == count:
            _at, group, dst = moves.pop(0)
            coordinator.migrate(group, dst)
        coordinator.submit_event(event)


def make_coordinator(nodes, **kwargs):
    return ClusterCoordinator(
        ClusterConfig(nodes=nodes, n_groups=N_GROUPS, **kwargs)
    )


def test_banked_race_lines_format_back_unchanged(reference):
    """The coordinator banks a node's race lines as parsed ``RaceLine``s
    and renders them again with ``format_race``: the round trip is exact."""
    for line in reference:
        race = parse_race(line)
        assert format_race(race.seq, race) == line


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
    """The headline gate: move a live group off node A mid-stream --
    checkpoint and retire it there, adopt it on node B, keep streaming --
    and the merged race lines (seq included) match an unmigrated run."""
    with make_coordinator(two_nodes) as coordinator:
        group = 0
        src = coordinator.placement.node_of(group)
        dst = "node1" if src == "node0" else "node0"
        feed(coordinator, events, [(len(events) // 2, group, dst)])
        assert sorted(coordinator.barrier()) == reference

        stats = coordinator.stats()
        assert stats.migrations_completed == 1
        assert group in stats.assignment[dst]
        assert group not in stats.assignment[src]
        coordinator.shutdown_nodes()


def test_atomic_migration_and_errors(two_nodes, events, reference):
    with make_coordinator(two_nodes) as coordinator:
        mid = len(events) // 2
        for event in events[:mid]:
            coordinator.submit_event(event)
        coordinator.migrate(1, "node0")
        with pytest.raises(ValueError):
            coordinator.migrate(1, "node0")  # already there
        with pytest.raises(ValueError):
            coordinator.migrate(1, "ghost")  # unknown target
        with pytest.raises(ValueError):
            coordinator.migrate(N_GROUPS, "node1")  # no such group
        coordinator.migrate(2, "node1")
        for event in events[mid:]:
            coordinator.submit_event(event)
        assert sorted(coordinator.barrier()) == reference
        assert coordinator.stats().migrations_completed == 2
        coordinator.shutdown_nodes()


def test_a_group_moved_away_and_back_ends_where_it_started(
    two_nodes, events, reference
):
    """Group 1 goes to node0 mid-stream and back to node1 later: node1
    re-adopts a group it retired, and nothing is lost or reported twice."""
    with make_coordinator(two_nodes) as coordinator:
        start = coordinator.placement.assignment()
        assert coordinator.placement.node_of(1) == "node1"
        feed(coordinator, events, [(1000, 1, "node0"), (1800, 1, "node1")])
        assert sorted(coordinator.barrier()) == reference
        stats = coordinator.stats()
        assert stats.assignment == start
        assert stats.migrations_completed == 2
        coordinator.shutdown_nodes()


def test_a_refused_hand_off_goes_back_to_its_source(events, reference):
    """The target refuses ``!adopt``: ``migrate`` puts the blob back on the
    source and re-raises, naming the node, and the stream goes on with
    every race line, seq included."""
    with running_services(2) as (nodes, services):
        with make_coordinator(nodes) as coordinator:
            assert coordinator.placement.node_of(1) == "node1"
            for event in events[:1268]:
                coordinator.submit_event(event)

            def refuse(group, blob=None):
                raise ValueError("refused for the test")

            # the node's engine, re-partitioned in place by ``!cluster``
            services["node0"].engine.adopt_group = refuse
            with pytest.raises(RuntimeError, match="node node0: .*refused for the test"):
                coordinator.migrate(1, "node0")
            assert coordinator.placement.node_of(1) == "node1"
            assert 1 in services["node1"].health()["cluster"]["hosted_groups"]
            assert 1 not in services["node0"].health()["cluster"]["hosted_groups"]

            for event in events[1268:]:
                coordinator.submit_event(event)
            assert sorted(coordinator.barrier()) == reference
            assert coordinator.stats().migrations_completed == 0
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
            "--migrate", f"0:node1@{mid}", "--stats", str(trace),
        ]
    )
    captured = capsys.readouterr()
    assert code == 1  # races found
    assert sorted(captured.out.splitlines()) == reference
    assert '"migrations_completed": 1' in captured.err


def test_cli_answers_a_malformed_line_as_repro_serve_does(tmp_path, capsys):
    """A garbage line between two racy pairs: both races keep the
    single-node seqs, the line is answered with an ``error`` line on
    stdout and takes no seq, and the exit status is 1 (races found)."""
    from repro.cluster.cli import main as cluster_main
    from repro.server.cli import main as serve_main

    text = (
        "1 0 write 5 f\n2 0 write 5 f\nthis is not an event\n"
        "1 1 write 6 g\n2 1 write 6 g\n"
    )
    trace = tmp_path / "bad.trace"
    trace.write_text(text, encoding="utf-8")
    with open(trace, encoding="utf-8") as stdin, pytest.MonkeyPatch.context() as patch:
        patch.setattr("sys.stdin", stdin)
        assert serve_main(["--stdin", "--shards", str(N_GROUPS)]) == 1
    single = capsys.readouterr().out.splitlines()
    races = [line for line in single if line.startswith("race ")]
    assert [line.rpartition("seq=")[2] for line in races] == ["1", "3"]
    error = "error unparseable event line: this is not an event"
    assert error in single and "ok eof events=4 races=2" in single

    code = cluster_main(
        ["--local-nodes", "2", "--groups", str(N_GROUPS), str(trace)]
    )
    captured = capsys.readouterr()
    assert code == 1
    lines = captured.out.splitlines()
    assert [line for line in lines if line.startswith("race ")] == races
    assert error in lines
    assert captured.err == ""


def test_cli_has_no_window_option(capsys):
    from repro.cluster.cli import main as cluster_main

    with pytest.raises(SystemExit) as exc:
        cluster_main(["--local-nodes", "2", "--window", "200"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --window" in capsys.readouterr().err


def test_cli_rejects_bad_specs(capsys):
    from repro.cluster.cli import main as cluster_main

    with pytest.raises(SystemExit):
        cluster_main(["--node", "nonsense"])
    with pytest.raises(SystemExit):
        cluster_main(["--groups", "4"])  # no nodes at all
    with pytest.raises(SystemExit):
        cluster_main(["--local-nodes", "1", "--migrate", "zero:node0"])
    capsys.readouterr()


#: three racy pairs; their races complete at seq 1, 3 and 5
SIX_LINES = "1 0 write 5 f\n2 0 write 5 f\n1 1 write 6 g\n2 1 write 6 g\n1 2 write 7 h\n2 2 write 7 h\n"


@pytest.mark.parametrize(
    "spec, problem",
    [("1:ghost@4", "'ghost' is not a node"), ("9:node0@4", "group 9 out of range")],
)
def test_cli_checks_every_move_before_a_node_is_dialled(tmp_path, capsys, spec, problem):
    from repro.cluster.cli import main as cluster_main

    trace = tmp_path / "six.trace"
    trace.write_text(SIX_LINES, encoding="utf-8")
    with pytest.raises(SystemExit) as exc:
        cluster_main(["--local-nodes", "2", "--groups", str(N_GROUPS), "--migrate", spec, str(trace)])
    assert exc.value.code == 2
    assert problem in capsys.readouterr().err
    with running_services(2) as (nodes, services):
        node_args = [f"--node={name}={host}:{port}" for name, (host, port) in nodes.items()]
        with pytest.raises(SystemExit) as exc:
            cluster_main(node_args + ["--groups", str(N_GROUPS), "--migrate", spec, str(trace)])
        assert exc.value.code == 2
        for service in services.values():
            assert service.stats().events_ingested == 0
            assert service.engine.config.n_shards == 1  # never drafted
    out = capsys.readouterr()
    assert problem in out.err and out.out == ""


def test_cli_keeps_the_races_before_a_move_that_fails(
    tmp_path, capsys, monkeypatch, reference
):
    """node0 refuses the group it is handed: every race line completed
    before the move is on stdout, in seq order, ahead of the exit-2 error."""
    from repro.cluster.cli import main as cluster_main

    trace = tmp_path / "run.trace"
    trace.write_text(service_trace_text(), encoding="utf-8")
    at = 1268
    with running_services(2) as (nodes, services):
        adopt = ShardedEngine.adopt_group

        def refusing(engine, group, blob=None):
            if blob is not None and engine is services["node0"].engine:
                raise ValueError("refused for the test")
            return adopt(engine, group, blob)

        monkeypatch.setattr(ShardedEngine, "adopt_group", refusing)
        node_args = [f"--node={name}={host}:{port}" for name, (host, port) in nodes.items()]
        code = cluster_main(
            node_args + ["--groups", str(N_GROUPS), "--migrate", f"1:node0@{at}", str(trace)]
        )
    out = capsys.readouterr()
    assert code == 2
    assert "repro-cluster: error: node node0:" in out.err
    assert "refused for the test" in out.err
    before = [line for line in reference if int(line.rpartition("=")[2]) < at]
    assert before and out.out.splitlines() == sorted(before, key=lambda l: int(l.rpartition("=")[2]))


def test_a_hand_off_to_a_node_at_another_point_of_the_stream_goes_back(events, reference):
    """The target applied a sync event the source never saw, so its kernel
    stands elsewhere in the stream: it answers ``error adopt: ...`` and
    ``migrate`` puts the group back on its source."""
    with running_services(2) as (nodes, services):
        with make_coordinator(nodes) as coordinator:
            assert coordinator.placement.node_of(1) == "node1"
            for event in events[:1268]:
                coordinator.submit_event(event)
            host, port = nodes["node0"]
            with ServiceClient.tcp(host, port) as stray:
                stray.send_line("1 9999 acq 9000")
                stray.flush()
            with pytest.raises(
                RuntimeError,
                match="node node0: .*adopt: checkpoint taken after 90 .* has applied 91",
            ):
                coordinator.migrate(1, "node0")
            assert coordinator.placement.node_of(1) == "node1"
            assert 1 in services["node1"].health()["cluster"]["hosted_groups"]
            assert 1 not in services["node0"].health()["cluster"]["hosted_groups"]
            before = [line for line in reference if int(line.rpartition("=")[2]) < 1268]
            assert sorted(coordinator.barrier()) == before
            assert coordinator.stats().migrations_completed == 0
            coordinator.shutdown_nodes()
