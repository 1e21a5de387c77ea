"""Each race goes to the stream whose event completed it.

Connections share one detection domain, so a barrier one connection runs
(``!flush``, its EOF) pushes the batches others are still filling.  The
races those batches complete belong to the connections that sent the
completing events: they are routed there by ``seq``, and written only
there.
"""

import io
import json
import socket

import pytest

from repro.server import RaceDetectionService, ServiceConfig
from repro.server.protocol import parse_response
from tests.helpers import service_trace_text

from .test_text_edge import connect, read_until, unix_service

RACE = "race 5.f write:1:0:0 write:2:0:0 seq=1"


def stats_of(sock, handle):
    sock.sendall(b"!stats\n")
    kind, payload = parse_response(read_until(handle, "stats ")[-1])
    assert kind == "stats"
    return json.loads(payload)


@pytest.mark.parametrize("b_reads", [True, False], ids=["b-reads", "b-closes"])
def test_a_race_goes_to_the_connection_whose_event_completed_it(tmp_path, b_reads):
    path = str(tmp_path / "route.sock")
    with unix_service(path, batch_size=64, flush_interval=0):
        a = connect(path)
        a_in = a.makefile("rb")
        b = connect(path)
        b_in = b.makefile("rb")
        try:
            a.sendall(b"1 0 write 5 f\n2 0 write 5 f\n")
            assert stats_of(a, a_in)["events_ingested"] == 2  # still buffered
            b.sendall(b"3 0 write 9 g\n")
            if b_reads:
                b.shutdown(socket.SHUT_WR)
                # B's EOF barrier pushed A's batch, but the race is A's
                assert read_until(b_in, "ok eof") == ["ok eof events=1 races=0"]
            else:
                b_in.close()
                b.close()
                stats = stats_of(a, a_in)
                while stats["events_ingested"] < 3 or stats["races_reported"] < 1:
                    stats = stats_of(a, a_in)
            a.sendall(b"!flush\n")
            assert read_until(a_in, "ok flush") == [RACE, "ok flush races=1"]
            a.shutdown(socket.SHUT_WR)
            assert read_until(a_in, "ok eof") == ["ok eof events=2 races=1"]
        finally:
            for closer in (a_in, a, b_in, b):
                closer.close()


@pytest.mark.parametrize("n_shards", [1, 4])
def test_a_lone_stream_gets_every_race(n_shards):
    """A lone stream is every race's owner: it writes them all, each once,
    and an API caller draining next to it gets none of them."""
    text = service_trace_text()
    out = io.StringIO()
    config = ServiceConfig(n_shards=n_shards, batch_size=16, flush_interval=0)
    with RaceDetectionService(config) as service:
        service.handle_stream(io.StringIO(text), out)
        assert service.barrier() == []
        races = service.stats().races_reported
    lines = out.getvalue().splitlines()
    race_lines = [line for line in lines if line.startswith("race ")]
    assert len(race_lines) == len(set(race_lines)) == races > 0
    assert lines[-1] == f"ok eof events={len(text.splitlines())} races={races}"


def test_the_route_table_stays_bounded():
    """A range is forgotten once its events are applied and their reports
    routed: a long stream leaves no more ranges than batches in flight."""
    config = ServiceConfig(n_shards=2, batch_size=16, flush_interval=0)
    with RaceDetectionService(config) as service:
        sizes = []
        original = service._collect

        def watched(reports, tally):
            mine = original(reports, tally)
            sizes.append(len(service._routes))
            return mine

        service._collect = watched
        service.handle_stream(io.StringIO(service_trace_text()), io.StringIO())
        assert max(sizes) <= 2
        assert service._routes == []


def test_concurrent_streams_each_get_exactly_their_own_races():
    """Streams on more threads than cores, a short switch interval, tiny
    batches and a busy flusher, so barriers and polls of one stream keep
    pushing the others' batches: every stream still writes exactly the
    races its own events completed, each once."""
    import sys
    import threading

    n_streams, pairs = 6, 40
    config = ServiceConfig(n_shards=2, batch_size=3, flush_interval=0.001)
    outputs = [io.StringIO() for _ in range(n_streams)]

    def lines_of(c):
        # two threads of stream c race on each of its own fields, and a
        # !flush now and then runs a barrier over everyone's batches
        t1, t2 = 100 * c + 1, 100 * c + 2
        for k in range(pairs):
            yield f"{t1} {k} write {1000 * c + k} f\n"
            yield f"{t2} {k} write {1000 * c + k} f\n"
            if k % 7 == 3:
                yield "!flush\n"

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with RaceDetectionService(config) as service:
            threads = [
                threading.Thread(
                    target=service.handle_stream, args=(lines_of(c), outputs[c])
                )
                for c in range(n_streams)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            assert service.barrier() == []
            assert service.stats().races_reported == n_streams * pairs
    finally:
        sys.setswitchinterval(interval)
    for c, out in enumerate(outputs):
        lines = out.getvalue().splitlines()
        races = [line for line in lines if line.startswith("race ")]
        assert sorted(line.split()[1] for line in races) == sorted(
            f"{1000 * c + k}.f" for k in range(pairs)
        )
        assert lines[-1] == f"ok eof events={2 * pairs} races={pairs}"
