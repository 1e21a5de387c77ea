"""The service's stream protocol, control commands, transports, and stats."""

import io
import json
import os
import signal
import sys
import threading
import time

import pytest

from repro.core import LazyGoldilocks, Obj, Tid
from repro.server import (
    RaceDetectionService,
    ServiceClient,
    ServiceConfig,
    ServiceStats,
    serve_tcp,
    serve_unix,
)
from repro.server.protocol import parse_response, parse_summary
from repro.trace import RandomTraceGenerator, TraceBuilder, dump_trace
from repro.trace.io import format_event

RACY_EVENTS = TraceBuilder().write(Tid(1), Obj(1), "data").write(
    Tid(2), Obj(1), "data"
).build()

BIGGER = RandomTraceGenerator(
    max_threads=5, steps_per_thread=40, p_discipline=0.3
).generate(seed=2)


def inline_service(**overrides):
    config = dict(n_shards=2)
    config.update(overrides)
    return RaceDetectionService(ServiceConfig(**config))


def run_stream(service, text):
    out = io.StringIO()
    service.handle_stream(io.StringIO(text), out)
    return out.getvalue().splitlines()


def classify(lines):
    return [parse_response(line)[0] for line in lines]


def test_stream_reports_races_and_eof_summary():
    with inline_service() as service:
        lines = run_stream(
            service, "\n".join(format_event(e) for e in RACY_EVENTS) + "\n"
        )
    assert classify(lines) == ["race", "ok"]
    command, info = parse_summary(parse_response(lines[-1])[1])
    assert command == "eof"
    assert info == {"events": 2, "races": 1}


def test_stream_ignores_comments_and_blank_lines():
    with inline_service() as service:
        lines = run_stream(service, "# a comment\n\n   \n")
    command, info = parse_summary(parse_response(lines[-1])[1])
    assert info["events"] == 0


def test_ping_flush_and_unknown_control():
    with inline_service() as service:
        lines = run_stream(service, "!ping\n!flush\n!frobnicate\n")
    kinds = classify(lines)
    assert kinds[0] == "ok" and "pong" in lines[0]
    assert kinds[1] == "ok" and "flush" in lines[1]
    assert kinds[2] == "error"


def test_flush_is_a_barrier_for_previously_sent_events():
    event_lines = [format_event(e) for e in RACY_EVENTS]
    text = event_lines[0] + "\n" + event_lines[1] + "\n!flush\n"
    with inline_service(batch_size=1000) as service:  # nothing auto-flushes
        lines = run_stream(service, text)
    # the race must be printed BEFORE the flush acknowledgment
    kinds = classify(lines)
    assert kinds.index("race") < kinds.index("ok")


def test_stats_control_round_trips_service_stats():
    with inline_service() as service:
        lines = run_stream(
            service,
            "\n".join(format_event(e) for e in BIGGER) + "\n!flush\n!stats\n",
        )
    stats_lines = [l for l in lines if parse_response(l)[0] == "stats"]
    assert len(stats_lines) == 1
    stats = ServiceStats.from_json(parse_response(stats_lines[0])[1])
    assert stats.events_ingested == len(BIGGER)
    assert stats.n_shards == 2 and len(stats.shards) == 1  # one kernel
    assert stats.events_per_sec > 0
    assert stats.races_reported == len(LazyGoldilocks().process_all(BIGGER))
    assert 0.0 <= stats.short_circuit_rate <= 1.0


def test_reset_forgets_the_previous_execution():
    text = (
        format_event(RACY_EVENTS[0]) + "\n!reset\n" + format_event(RACY_EVENTS[1]) + "\n"
    )
    with inline_service() as service:
        lines = run_stream(service, text)
    # after reset, T2's write is the variable's first access: no race
    assert "race" not in classify(lines)


def test_unparseable_event_line_is_an_error_not_a_crash():
    with inline_service() as service:
        lines = run_stream(service, "1 0 write 1 data\nnot an event\n!stats\n")
        stats = service.stats()
    assert "error" in classify(lines)
    assert stats.parse_errors == 1
    assert stats.events_ingested == 1


def test_shutdown_control_drains_and_acknowledges():
    text = "\n".join(format_event(e) for e in RACY_EVENTS) + "\n!shutdown\n"
    with inline_service() as service:
        lines = run_stream(service, text)
        assert service.shutdown_requested
    kinds = classify(lines)
    assert kinds[-1] == "ok" and "shutdown" in lines[-1]
    assert "race" in kinds


def test_parse_error_counting_via_submit_line():
    with inline_service() as service:
        assert service.submit_line("garbage line") is None
        assert service.submit_line("1 0 acq 5") == 0
        assert service.stats().parse_errors == 1


def test_tail_file_one_pass(tmp_path):
    path = str(tmp_path / "run.trace")
    dump_trace(RACY_EVENTS, path)
    out = io.StringIO()
    with inline_service() as service:
        races = service.tail_file(path, out)
    assert races == 1
    assert classify(out.getvalue().splitlines()) == ["race", "ok"]


def test_tail_file_follow_sees_appended_events(tmp_path):
    path = str(tmp_path / "grow.trace")
    lines = [format_event(e) for e in RACY_EVENTS]
    with open(path, "w") as handle:
        handle.write(lines[0] + "\n")
    out = io.StringIO()
    with inline_service() as service:
        def appender():
            time.sleep(0.15)
            with open(path, "a") as handle:
                handle.write(lines[1] + "\n")
            time.sleep(0.15)
            service.request_shutdown()

        thread = threading.Thread(target=appender)
        thread.start()
        races = service.tail_file(path, out, follow=True, poll_interval=0.02)
        thread.join()
    assert races == 1


BAD_LINE_TRACE = "1 0 write 5 f\nbogus line here\n2 0 write 5 f\n"
BAD_LINE_OUTPUT = (
    "error unparseable event line: bogus line here\n"
    "race 5.f write:1:0:0 write:2:0:0 seq=1\n"
    "ok eof events=2 races=1\n"
)


def serve_stats(err):
    """The ``--stats`` snapshot ``repro-serve`` printed on stderr."""
    [line] = [line for line in err.splitlines() if line.startswith("stats ")]
    return json.loads(line[len("stats "):])


def test_tail_answers_a_bad_line_as_stdin_does(tmp_path, monkeypatch, capsys):
    """A malformed line in a tailed file is one ``error`` line and one parse
    error, as on stdin -- not a traceback that loses the drain."""
    from repro.server.cli import main as serve_main

    path = tmp_path / "bad.trace"
    path.write_text(BAD_LINE_TRACE)
    stdin = io.TextIOWrapper(io.BytesIO(BAD_LINE_TRACE.encode()))
    monkeypatch.setattr(sys, "stdin", stdin)
    assert serve_main(["--stats"]) == 1
    captured = capsys.readouterr()
    assert captured.out == BAD_LINE_OUTPUT
    assert serve_stats(captured.err)["parse_errors"] == 1

    assert serve_main(["--tail", str(path), "--stats"]) == 1
    captured = capsys.readouterr()
    assert captured.out == BAD_LINE_OUTPUT
    assert serve_stats(captured.err)["parse_errors"] == 1


def test_followed_tail_answers_a_bad_line_as_stdin_does(
    tmp_path, monkeypatch, capsys
):
    """The same under ``--follow``, stopped by Ctrl-C once the file is idle."""
    from repro.server import service as service_module
    from repro.server.cli import main as serve_main

    path = tmp_path / "bad.trace"
    path.write_text(BAD_LINE_TRACE)
    idle = threading.Event()
    follow_lines = service_module.follow_lines

    def watched(path, poll_interval, stop):
        # the file is asked to stop only once it has been read to its end
        def stop_then_tell():
            idle.set()
            return stop()

        return follow_lines(path, poll_interval, stop_then_tell)

    monkeypatch.setattr(service_module, "follow_lines", watched)

    went_idle = []

    def ctrl_c():
        went_idle.append(idle.wait(10.0))
        time.sleep(0.2)  # a few idle polls
        os.kill(os.getpid(), signal.SIGINT)

    thread = threading.Thread(target=ctrl_c)
    thread.start()
    try:
        code = serve_main(["--tail", str(path), "--follow", "--stats"])
    finally:
        thread.join(timeout=20)
    captured = capsys.readouterr()
    assert went_idle == [True] and not thread.is_alive()
    assert code == 1
    assert captured.out == BAD_LINE_OUTPUT
    assert serve_stats(captured.err)["parse_errors"] == 1


def test_following_a_gz_trace_is_a_usage_error(capsys):
    """Exit 1 means races found, so ``--follow`` on a ``.gz`` trace exits
    2, with the usage and a message, before anything is read."""
    from repro.server.cli import main as serve_main

    with pytest.raises(SystemExit) as exc:
        serve_main(["--tail", "run.trace.gz", "--follow"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: repro-serve")
    assert "cannot follow a .gz trace" in err


# -- sockets -------------------------------------------------------------------


def test_tcp_service_with_client_library():
    expected = LazyGoldilocks().process_all(BIGGER)
    with RaceDetectionService(
        ServiceConfig(n_shards=2)
    ) as service:
        server = serve_tcp(service, "127.0.0.1", 0)
        port = server.server_address[1]
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            with ServiceClient.tcp("127.0.0.1", port) as client:
                assert client.ping()
                client.stream(BIGGER)
                client.flush()
                stats = client.stats()
                assert stats.events_ingested == len(BIGGER)
                assert len(client.races) == len(expected)
                assert client.shutdown() >= 0
            thread.join(timeout=5.0)
            assert not thread.is_alive()
        finally:
            server.shutdown()
            server.server_close()


def test_unix_socket_service_eof_drain(tmp_path):
    sock_path = str(tmp_path / "repro.sock")
    with RaceDetectionService(
        ServiceConfig(n_shards=1)
    ) as service:
        server = serve_unix(service, sock_path)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            with ServiceClient.unix(sock_path) as client:
                client.stream(RACY_EVENTS)
                info = client.drain_eof()
            assert info.get("events") == 2
            assert info.get("races") == 1
            assert len(client.races) == 1
        finally:
            server.shutdown()
            server.server_close()


def test_two_connections_share_one_detection_domain():
    # The race's two halves arrive on different connections; the service
    # still sees one execution and reports the cross-connection race.
    with RaceDetectionService(
        ServiceConfig(n_shards=1)
    ) as service:
        server = serve_tcp(service, "127.0.0.1", 0)
        port = server.server_address[1]
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            with ServiceClient.tcp("127.0.0.1", port) as first:
                first.send_event(RACY_EVENTS[0])
                first.flush()
                with ServiceClient.tcp("127.0.0.1", port) as second:
                    second.send_event(RACY_EVENTS[1])
                    second.flush()
                    total = len(first.races) + len(second.races)
                    assert total == 1
                    assert second.stats().races_reported == 1
        finally:
            server.shutdown()
            server.server_close()


def test_retired_workers_field_accepts_only_inline():
    """Shards always run in the service process; the retired ``workers``
    field still accepts "inline" and refuses anything else up front."""
    assert ServiceConfig(workers="inline").engine_config().n_shards == 1
    with pytest.raises(ValueError, match="repro-cluster"):
        ServiceConfig(workers="process")


def scrapes(lines):
    """The ``!stats`` snapshots and ``!metrics`` scrapes of a reply stream,
    in order: each a dict of counter name (and labels) to value."""
    from repro.obs.registry import parse_exposition
    from tests.server.test_engine import counters

    stats, metrics = [], []
    i = 0
    while i < len(lines):
        kind, payload = parse_response(lines[i])
        if kind == "stats":
            stats.append(counters(ServiceStats.from_json(payload)))
        elif lines[i].startswith("ok metrics lines="):
            count = int(lines[i].rpartition("=")[2])
            samples = parse_exposition("\n".join(lines[i + 1 : i + 1 + count]) + "\n")
            metrics.append(
                {
                    (name, tuple(sorted(labels.items()))): value
                    for name, series in samples.items()
                    if name.endswith("_total")
                    for labels, value in series
                }
            )
            i += count
        i += 1
    return stats, metrics


def test_no_total_counter_decreases_through_retire_adopt_and_reset():
    """``!retire``, ``!adopt`` and ``!reset`` on one kernel: neither a
    ``!stats`` counter nor a ``_total`` series of ``/metrics`` goes back."""
    from tests.helpers import service_trace_text
    from tests.server.test_engine import assert_never_decreases

    trace = service_trace_text()
    probe = "!stats\n!metrics\n"
    with inline_service(n_shards=4) as service:
        first = run_stream(service, trace + probe + "!checkpoint 3\n!retire 3\n" + probe)
        [blob] = [line.split(" ", 2)[2] for line in first if line.startswith("checkpoint 3 ")]
        second = run_stream(
            service,
            f"!adopt 3 {blob}\n" + probe + "!reset\n" + probe + trace + probe,
        )
    assert "ok adopt group=3" in second and "ok reset" in second
    stats, metrics = scrapes(first + second)
    assert len(stats) == len(metrics) == 5
    assert_never_decreases(stats)
    assert_never_decreases(metrics)
    assert [snap["races_reported"] for snap in stats] == [42, 42, 42, 42, 84]
    assert metrics[-1][("repro_races_reported_total", ())] == 84
