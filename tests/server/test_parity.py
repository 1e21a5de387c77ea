"""Acceptance: the streaming service agrees with the offline analyze path.

The ISSUE's parity criterion: ``repro-serve`` must detect the same races on
the Figure 6/7 traces and on recorded ftpserver executions as
``repro-race analyze`` does.  Parity is checked at three levels -- the
sharded engine, the service stream protocol, and the two CLIs' exit codes.
"""

import io

import pytest

from repro.cli import main as race_main
from repro.core import LazyGoldilocks
from repro.server import RaceDetectionService, ServiceConfig, ShardedEngine
from repro.server.cli import main as serve_main
from repro.server.protocol import parse_race, parse_response
from repro.trace import TraceRecorder, dump_trace
from repro.trace.io import format_event
from repro.workloads import run_ftpserver

from ..core.test_paper_figures import build_figure6_trace, build_figure7_trace


def ftpserver_trace(seed):
    """Record one ftpserver execution (no detection interfering)."""
    recorder = TraceRecorder()
    run_ftpserver(recorder, seed=seed)
    return recorder.events


def offline_races(events):
    return LazyGoldilocks().process_all(events)


def service_races(events, n_shards=4):
    """Stream a trace through the full service; return the parsed race lines."""
    config = ServiceConfig(n_shards=n_shards)
    lines = "\n".join(format_event(e) for e in events) + "\n"
    out = io.StringIO()
    with RaceDetectionService(config) as service:
        service.handle_stream(io.StringIO(lines), out)
    races = []
    for line in out.getvalue().splitlines():
        kind, _ = parse_response(line)
        if kind == "race":
            races.append(parse_race(line))
    return races


def as_keys(reports):
    return sorted((repr(r.var), repr(r.first), repr(r.second)) for r in reports)


def race_keys(race_lines):
    return sorted((repr(r.var), repr(r.first), repr(r.second)) for r in race_lines)


@pytest.mark.parametrize("builder", [build_figure6_trace, build_figure7_trace],
                         ids=["figure6", "figure7"])
def test_paper_figures_are_race_free_through_the_service(builder):
    events = builder()[0]
    assert offline_races(events) == []
    assert service_races(events) == []


@pytest.mark.parametrize("seed", range(6))
def test_ftpserver_traces_have_parity(seed):
    events = ftpserver_trace(seed)
    expected = offline_races(events)
    got = service_races(events)
    assert race_keys(got) == as_keys(expected)


def test_some_ftpserver_seed_actually_races():
    # Parity over uniformly clean traces would prove nothing.
    assert any(offline_races(ftpserver_trace(seed)) for seed in range(6))


def test_engine_parity_across_shard_counts_on_ftpserver():
    events = ftpserver_trace(1)
    expected = set(offline_races(events))
    for n in (1, 3):
        with ShardedEngine(n_shards=n) as engine:
            for event in events:
                engine.submit(event)
            assert {r for _, r in engine.barrier()} == expected


def test_service_surfaces_the_epoch_counter():
    events = ftpserver_trace(1)
    lines = "\n".join(format_event(e) for e in events) + "\n"
    out = io.StringIO()
    config = ServiceConfig(n_shards=2)
    with RaceDetectionService(config) as service:
        service.handle_stream(io.StringIO(lines), out)
        snapshot = service.stats()
    # The kernel's counters surface through the service snapshot and
    # participate in the aggregate short-circuit rate.
    assert any("sc_epoch" in shard.detector for shard in snapshot.shards)
    assert 0.0 <= snapshot.short_circuit_rate <= 1.0


def test_cli_exit_codes_agree(tmp_path, monkeypatch, capsys):
    for seed in range(4):
        events = ftpserver_trace(seed)
        path = str(tmp_path / f"ftp{seed}.trace")
        dump_trace(events, path)
        analyze_code = race_main(["analyze", path])
        serve_code = serve_main(
            ["--tail", path, "--shards", "2"]
        )
        capsys.readouterr()
        assert serve_code == analyze_code, f"seed {seed}"
