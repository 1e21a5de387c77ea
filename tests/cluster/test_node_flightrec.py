"""Flight recorders on cluster nodes: rings follow groups through a move.

A node keeps one flight ring per hosted group, keyed by the *global* group
id, and dumps it when that group reports races.  A group moved mid-stream
starts an empty ring on its new node, so a dump there may miss a race
whose first access came before the move -- the recorder's defined outcome
-- but every dump still replays offline, replays only lines the cluster
reported, and can be explained.
"""

import glob
import os
import threading

import pytest

from repro.cli import main as race_main
from repro.cluster import ClusterConfig, ClusterCoordinator
from repro.obs.flightrec import load_flightrec, replay_flightrec
from repro.obs.tracing import ObsConfig
from repro.server.service import RaceDetectionService, ServiceConfig, serve_tcp
from repro.trace.io import format_event
from tests.helpers import service_trace, service_trace_text

N_GROUPS = 4
#: group 1 has races on the shared service trace; it moves to node0 after
#: event 1268
MOVED, DST, AT = 1, "node0", 1268


@pytest.fixture
def recording_nodes(tmp_path):
    services, servers, nodes, dirs = [], [], {}, {}
    for i in range(2):
        name = f"node{i}"
        dirs[name] = str(tmp_path / name)
        service = RaceDetectionService(
            ServiceConfig(obs=ObsConfig(flightrec_dir=dirs[name]))
        )
        server = serve_tcp(service, "127.0.0.1", 0)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        services.append(service)
        servers.append(server)
        nodes[name] = ("127.0.0.1", server.server_address[1])
    yield nodes, dirs
    for server in servers:
        server.shutdown()
        server.server_close()
    for service in services:
        service.close()


def test_node_dumps_replay_and_explain_across_a_group_move(recording_nodes, capsys):
    nodes, dirs = recording_nodes
    lines = service_trace_text().splitlines()
    with ClusterCoordinator(
        ClusterConfig(nodes=nodes, n_groups=N_GROUPS)
    ) as coordinator:
        assert coordinator.placement.node_of(MOVED) != DST
        for count, line in enumerate(lines):
            if count == AT:
                coordinator.migrate(MOVED, DST)
            coordinator.submit_line(line)
        cluster_lines = set(coordinator.barrier())
    assert cluster_lines

    replays = []
    for name, directory in sorted(dirs.items()):
        for path in sorted(glob.glob(os.path.join(directory, "*.flightrec"))):
            result = replay_flightrec(load_flightrec(path))
            assert set(result.header["races"]) <= cluster_lines, path
            assert set(result.replayed) <= cluster_lines, path
            replays.append((name, path, result))
    assert replays, "cluster nodes must write flight recordings"

    for _name, path, result in replays:
        if result.header["shard"] != MOVED:
            assert result.ok, (path, result.missing)
    moved = [
        path
        for name, path, result in replays
        if name == DST and result.header["shard"] == MOVED and result.ok
    ]
    assert moved, "no dump of the moved group on its new node replays whole"
    assert race_main(["explain", "--race", "0", moved[0]]) == 0
    assert "race" in capsys.readouterr().out


def test_a_second_cluster_session_keeps_the_first_sessions_dumps(tmp_path):
    """``!cluster`` restarts detection, but dump numbering (and the dump
    budget) stay per process: a second session on a long-lived node adds
    dumps next to the first session's instead of overwriting them."""
    directory = str(tmp_path / "node0")
    service = RaceDetectionService(
        ServiceConfig(
            obs=ObsConfig(flightrec_dir=directory, flightrec_max_dumps=64),
        )
    )
    server = serve_tcp(service, "127.0.0.1", 0)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    nodes = {"node0": ("127.0.0.1", server.server_address[1])}

    def session(seed):
        with ClusterCoordinator(
            ClusterConfig(nodes=nodes, n_groups=N_GROUPS)
        ) as coordinator:
            for event in service_trace(seed):
                coordinator.submit_line(format_event(event))
            return coordinator.barrier()

    def dumps():
        paths = glob.glob(os.path.join(directory, "*.flightrec"))
        return {path: open(path, "rb").read() for path in paths}

    try:
        assert session(seed=13)
        first = dumps()
        assert first, "the node must write flight recordings"
        # another trace, so overwritten dumps would differ in content
        assert session(seed=14)
        after = dumps()
    finally:
        server.shutdown()
        server.server_close()
        service.close()
    assert {path: after[path] for path in first} == first
    assert len(after) > len(first)
    assert service.stats().flightrec_dumps == len(after)
