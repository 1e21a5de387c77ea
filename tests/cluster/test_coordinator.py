"""The cluster coordinator over real sockets: parity, migration, liveness,
and the loss of a node.

The acceptance gate of the cluster PR lives here: a two-node cluster with
a live mid-stream migration must report race lines *byte-identical*
(``seq`` included) to a single-node run with the same shard-group count.
"""

import contextlib
import re
import socket
import sys
import threading
import zlib

import pytest

from repro.cluster import ClusterConfig, ClusterCoordinator, NodeLost
from repro.obs.registry import parse_exposition
from repro.server.engine import EngineConfig, ShardedEngine
from repro.server.protocol import format_race, parse_race
from repro.server.client import ServiceClient
from repro.server.service import RaceDetectionService, ServiceConfig, serve_tcp
from tests.helpers import service_trace, service_trace_text, start_tcp_node

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
    """Liveness is the metrics poll: both nodes answer it and read up."""
    from repro.obs.bridge import registry_from_cluster

    with make_coordinator(two_nodes) as coordinator:
        for event in events[:300]:
            coordinator.submit_event(event)
        coordinator.barrier()
        coordinator.refresh_federation()
        assert coordinator.federation_health()["nodes"] == {
            "node0": "up",
            "node1": "up",
        }

        stats = coordinator.stats()
        assert stats.events_ingested == 300
        assert stats.sync_broadcast + stats.data_routed == 300
        assert stats.interner_version > 1
        assert {n["name"] for n in stats.nodes} == {"node0", "node1"}
        assert sorted(
            g for groups in stats.assignment.values() for g in groups
        ) == list(range(N_GROUPS))
        payload = stats.as_dict()
        assert "membership" not in payload
        assert [(n["status"], n["missed"]) for n in payload["nodes"]] == [
            ("up", 0),
            ("up", 0),
        ]

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


def liveness(coordinator):
    """Per node, from the last refresh: ``(status, missed)`` of the stats,
    the ``repro_node_up`` and ``repro_node_heartbeats_missed`` samples,
    and the ``/healthz`` nodes map entry."""
    samples = parse_exposition(coordinator.federation_text())
    up = {labels["node"]: value for labels, value in samples["repro_node_up"]}
    missed = {
        labels["node"]: value
        for labels, value in samples["repro_node_heartbeats_missed"]
    }
    health = coordinator.federation_health()["nodes"]
    return {
        n["name"]: (n["status"], n["missed"], up[n["name"]], missed[n["name"]], health[n["name"]])
        for n in coordinator.stats().nodes
    }


def test_a_node_that_misses_the_poll_reads_down_until_it_answers(two_nodes):
    """One unanswered ``!metrics`` poll marks a node down, each further one
    adds a miss, and the next answer brings it back up; the stats, the
    gauges and the ``/healthz`` map agree each time."""
    with make_coordinator(two_nodes) as coordinator:
        client = coordinator._nodes["node1"].client

        def dead():
            raise OSError("connection reset by peer")

        client.metrics = dead
        coordinator.refresh_federation()
        assert liveness(coordinator) == {
            "node0": ("up", 0, 1.0, 0.0, "up"),
            "node1": ("down", 1, 0.0, 1.0, "down"),
        }
        assert coordinator.federation_health()["members_polled"] == [
            "coordinator", "node0",
        ]
        coordinator.refresh_federation()
        assert liveness(coordinator)["node1"] == ("down", 2, 0.0, 2.0, "down")

        del client.metrics  # the connection answers again
        coordinator.refresh_federation()
        assert liveness(coordinator) == {
            "node0": ("up", 0, 1.0, 0.0, "up"),
            "node1": ("up", 0, 1.0, 0.0, "up"),
        }
        coordinator.shutdown_nodes()


def test_config_validation():
    with pytest.raises(ValueError):
        ClusterCoordinator(ClusterConfig(nodes={}))
    with pytest.raises(ValueError):
        ClusterCoordinator(
            ClusterConfig(nodes={"a": ("127.0.0.1", 1)}, n_groups=0)
        )
    with pytest.raises(ValueError, match="batch_size must be at least 1"):
        ClusterConfig(nodes={"a": ("127.0.0.1", 1)}, batch_size=0)


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
    with pytest.raises(SystemExit) as exc:
        cluster_main(["--local-nodes", "2", "--trace", "--batch-size", "0", "t.trace"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--batch-size must be at least 1" in err and "Traceback" not in err


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


# -- losing a node -------------------------------------------------------------

#: group 0 moves to the other node at MOVE_AT, which leaves the first node
#: hosting only group 2 (no race on the shared trace); it is lost at KILL_AT
MOVE_AT, KILL_AT = 400, 1800


def seq_of(line):
    return int(line.rpartition("=")[2])


def group_of(line):
    """A race line's group: the crc32 partition of its variable."""
    return zlib.crc32(line.split()[1].encode("utf-8")) % N_GROUPS


def survivor_lines(reference, lost_groups):
    """The single-node lines a run that loses ``lost_groups`` after the
    move can still write, in seq order: every line before the move (it is
    written there) and the lines of the other groups."""
    return sorted(
        (line for line in reference if seq_of(line) < MOVE_AT or group_of(line) not in lost_groups),
        key=lambda line: (seq_of(line), line),
    )


def cut(coordinator, name):
    """Break the coordinator's connection to node ``name``."""
    coordinator._nodes[name].client._sock.shutdown(socket.SHUT_RDWR)


def ingest_until_lost(coordinator, events):
    """Submit ``events`` until a send raises ``NodeLost``; returns it and
    the seq of the event whose send failed."""
    with pytest.raises(NodeLost) as lost:
        for event in events:
            coordinator.submit_event(event)
    return lost.value, coordinator.events_ingested - 1


def test_a_lost_node_is_named_and_left_out_of_the_next_barrier(two_nodes, events, reference):
    """node0's connection breaks after KILL_AT events: the next send to it
    raises ``NodeLost`` naming it and the group it hosts, and the next
    barrier returns node1's lines, which are the single-node lines of its
    groups up to the event whose send failed."""
    with make_coordinator(two_nodes, batch_size=16) as coordinator:
        feed(coordinator, events[:KILL_AT], [(MOVE_AT, 0, "node1")])
        assert coordinator.placement.assignment() == {"node0": [2], "node1": [0, 1, 3]}
        cut(coordinator, "node0")
        lost, failed = ingest_until_lost(coordinator, events[KILL_AT:])
        assert re.fullmatch(r"node node0 \(groups 2\): \[Errno \d+\] .+", str(lost))
        expected = [line for line in survivor_lines(reference, {2}) if seq_of(line) < failed]
        assert len([line for line in expected if seq_of(line) < KILL_AT]) == 26
        assert coordinator.barrier() == expected
        assert coordinator.barrier() == []


def test_a_node_lost_while_the_survivors_drain_is_left_out_too(events, reference, capsys):
    """Of three nodes, node0 is lost mid-stream and node2 while the
    survivors are drained: node1's lines are written, the single-node
    lines of its group up to the failure, then one error line per lost
    node."""
    from repro.cluster.cli import _write_survivors

    with running_nodes(3) as nodes, make_coordinator(nodes, batch_size=16) as coordinator:
        assert coordinator.placement.assignment() == {
            "node0": [0, 3], "node1": [1], "node2": [2],
        }
        for event in events[:KILL_AT]:
            coordinator.submit_event(event)
        cut(coordinator, "node0")
        lost, failed = ingest_until_lost(coordinator, events[KILL_AT:])
        cut(coordinator, "node2")
        _write_survivors(coordinator, lost, sys.stdout)
    out = capsys.readouterr()
    assert out.out.splitlines() == [
        line for line in survivor_lines(reference, {0, 2, 3})
        if group_of(line) == 1 and seq_of(line) < failed
    ]
    err = out.err.splitlines()
    assert len(err) == 2
    for line, lost_node in zip(err, ["node0 (groups 0, 3)", "node2 (groups 2)"]):
        assert re.fullmatch(rf"repro-cluster: error: node {re.escape(lost_node)}: \[Errno \d+\] .+", line)


@contextlib.contextmanager
def serve_processes(names):
    """One ``repro-serve --tcp 127.0.0.1:0`` process per name; yields name
    -> (process, ``--node`` argument)."""
    procs = {}
    try:
        for name in names:
            proc, port = start_tcp_node()
            procs[name] = (proc, f"--node={name}=127.0.0.1:{port}")
        yield procs
    finally:
        for proc, _arg in procs.values():
            proc.kill()
            proc.wait()
            proc.stderr.close()


class KillingStdin:
    """Trace lines that SIGKILL ``proc`` before the line ``at`` is read."""

    def __init__(self, lines, at, proc):
        self.lines, self.at, self.proc = lines, at, proc

    def __iter__(self):
        for count, line in enumerate(self.lines):
            if count == self.at:
                self.proc.kill()
                self.proc.wait()
            yield line


def test_cli_writes_the_survivors_lines_when_a_node_is_killed(capsys, monkeypatch, reference):
    """``repro-serve`` node a is SIGKILLed mid-stream, when it hosts only
    group 2: every line node b reports is written, in seq order -- the
    single-node lines of its groups up to the failure -- then one error
    line naming a and its group, and the exit status is 2.  Node b is sent
    ``!shutdown`` on the way out, so its process exits on its own."""
    from repro.cluster.cli import main as cluster_main

    lines = service_trace_text().splitlines(keepends=True)
    with serve_processes(["a", "b"]) as procs:
        monkeypatch.setattr("sys.stdin", KillingStdin(lines, KILL_AT, procs["a"][0]))
        code = cluster_main(
            [procs["a"][1], procs["b"][1], "--groups", str(N_GROUPS), "--batch-size", "16",
             "--migrate", f"0:b@{MOVE_AT}"]
        )
        assert procs["b"][0].wait(timeout=30) == 1  # node b saw races
    out = capsys.readouterr()
    assert code == 2
    err = out.err.splitlines()
    assert len(err) == 1 and err[0].startswith("repro-cluster: error: node a (groups 2): ")
    written = out.out.splitlines()
    survivors = survivor_lines(reference, {2})
    assert written == survivors[: len(written)]
    # the 3 lines written at the move and node b's 23 up to the kill, at least
    assert [line for line in written if seq_of(line) < KILL_AT] == [
        line for line in survivors if seq_of(line) < KILL_AT
    ]
    assert len(written) >= 26
