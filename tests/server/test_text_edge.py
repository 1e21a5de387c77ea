"""The run-based text edge: a read of the transport is one run.

A connection's raw lines go to the engine one read at a time, in one
ingestion call, pushed to the kernel in one array.  The first line the
encoder refuses ends the call and is looked at on its own: a blank or
comment line is skipped (with the block of them it starts), a control line
answered, any other refused.  These tests pin down what must not change
with that: replies keep their place in the stream, a run never waits for
more input, and bytes read past ``!binary`` are frames.
"""

import io
import json
import socket
import threading
import time
from array import array
from contextlib import contextmanager

import pytest

from repro.core import LazyGoldilocks, Obj, Tid
from repro.core.encode import EventEncoder, encode_frame
from repro.core.kernel import EncodedGoldilocks
from repro.server import RaceDetectionService, ServiceConfig, ShardedEngine, serve_unix
from repro.server.protocol import (
    FRAME_CONTROL,
    FRAME_EVENTS,
    format_race,
    pack_frame,
    parse_response,
    parse_summary,
)
from repro.server.service import READ_SIZE
from repro.trace import TraceBuilder
from repro.trace.io import format_event, parse_event
from tests.helpers import service_trace_text

#: the stream layout's grid: a bad and a control line at each offset of it
GRID = 8
RACY = TraceBuilder().write(Tid(1), Obj(5), "f").write(Tid(2), Obj(5), "f").build()


@contextmanager
def unix_service(path, **overrides):
    config = dict(n_shards=1)
    config.update(overrides)
    with RaceDetectionService(ServiceConfig(**config)) as service:
        server = serve_unix(service, path)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            yield service
        finally:
            server.shutdown()
            server.server_close()


def connect(path):
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    sock.settimeout(10.0)
    sock.connect(path)
    return sock


def read_until(handle, prefix):
    """Lines from ``handle`` up to and including the first starting ``prefix``."""
    lines = []
    while True:
        line = handle.readline().decode("utf-8")
        assert line, f"connection closed before {prefix!r}: {lines}"
        lines.append(line.rstrip("\n"))
        if line.startswith(prefix):
            return lines


def test_frames_sent_with_the_binary_line_are_read_as_frames(tmp_path):
    """``!binary`` and the first frames in one ``sendall``: the read that
    holds ``!binary`` also holds frame bytes, which must reach the frame
    reader instead of being parsed (or dropped) as text lines."""
    encoder = EventEncoder()
    records = array("q")
    for seq, event in enumerate(RACY):
        op, tid_id, index, a, b, _extra = encoder.encode_event(event)
        records.extend((op, seq, tid_id, index, a, b))
    frame = encode_frame(1, encoder.interner.elements_since(1), records, array("q"))
    payload = (
        b"!binary\n"
        + pack_frame(FRAME_EVENTS, frame)
        + pack_frame(FRAME_CONTROL, b"!flush")
    )
    path = str(tmp_path / "edge.sock")
    with unix_service(path):
        sock = connect(path)
        handle = sock.makefile("rb")
        try:
            sock.sendall(payload)
            lines = read_until(handle, "ok flush")
            sock.shutdown(socket.SHUT_WR)
            lines += read_until(handle, "ok eof")
        finally:
            handle.close()
            sock.close()
    assert lines[0] == "ok binary"
    assert [line for line in lines if line.startswith("race ")] == [
        "race 5.f write:1:0:0 write:2:0:0 seq=1"
    ]
    assert not [line for line in lines if line.startswith("error")]
    assert lines[-1] == "ok eof events=2 races=1"


def serve(lines, reader, n_shards=1):
    """One pass over ``lines``; ``reader`` turns them into the input."""
    out = io.StringIO()
    config = ServiceConfig(n_shards=n_shards)
    with RaceDetectionService(config) as service:
        service.handle_stream(reader(lines), out)
    return out.getvalue().splitlines()


def one_line_per_read(lines):
    """Every line a read of its own: each run is one line long."""
    return iter([line + "\n" for line in lines])


def byte_stream(lines):
    """All lines in one byte stream: one read per :data:`READ_SIZE` bytes."""
    return io.BytesIO("".join(line + "\n" for line in lines).encode("utf-8"))


def racy_pairs(n):
    """``n`` pairs of unordered writes by threads 1 and 2, each pair to its
    own variable: every pair's second line completes a race."""
    lines = []
    for i in range(n):
        lines += [f"1 {i} write {100 + i} f", f"2 {i} write {100 + i} f"]
    return lines


@pytest.mark.parametrize("offset", range(GRID + 1))
def test_bad_and_control_lines_keep_their_place_at_every_offset(offset):
    """A bad line and a control line at each offset of a grid: one error
    line per bad line, replies and races in stream order, the reference
    race lines and ``ok eof events=N`` -- exactly what one-line runs give.

    The byte stream is one read, so each bad line, control line, comment
    and blank line ends an ingestion call inside it, and the next call
    takes the rest of the read."""
    lines = racy_pairs(3 * GRID)
    detector = LazyGoldilocks(gc_threshold=None)
    expected = sorted(
        format_race(seq, report)
        for seq, line in enumerate(lines)
        for report in detector.process(parse_event(line))
    )
    bad = [f"not an event {offset}", "1 2 write"]
    first = 4 + GRID + offset
    second = first + 2 * GRID
    stream = (
        lines[:4]
        + ["!ping"]
        + lines[4:first]
        + [bad[0]]
        + lines[first:second]
        + [bad[1]]
        + lines[second : second + offset]
        + ["!flush", "# a comment", ""]
        + lines[second + offset :]
    )
    assert len(byte_stream(stream).getvalue()) < READ_SIZE
    got = serve(stream, byte_stream)
    assert got == serve(stream, one_line_per_read)
    errors = [line for line in got if line.startswith("error")]
    assert errors == [f"error unparseable event line: {line}" for line in bad]
    assert sorted(line for line in got if line.startswith("race ")) == expected
    replies = [line for line in got if not line.startswith("race ")]
    assert replies[:3] == ["ok pong"] + errors
    assert replies[3].startswith("ok flush")
    assert replies[4:] == [f"ok eof events={len(lines)} races={len(expected)}"]


def test_a_list_of_lines_is_one_read():
    """A list is already read: its lines are one run, with the same output."""
    lines = service_trace_text().splitlines()[: 50 * GRID]
    expected = serve(lines, one_line_per_read, n_shards=2)
    assert any(line.startswith("race ") for line in expected)
    assert serve(lines, list, n_shards=2) == expected


def test_a_run_never_waits_for_more_input(tmp_path):
    """Connection A sends two lines and goes idle; they are ingested at
    once, as connection B's ``!stats`` shows, not held back for more."""
    path = str(tmp_path / "idle.sock")
    with unix_service(path):
        idle = connect(path)
        probe = connect(path)
        handle = probe.makefile("rb")
        try:
            idle.sendall(b"1 0 write 1 f\n2 0 write 1 g\n")
            deadline = time.monotonic() + 5.0
            ingested = None
            while ingested != 2 and time.monotonic() < deadline:
                probe.sendall(b"!stats\n")
                kind, payload = parse_response(read_until(handle, "stats ")[-1])
                assert kind == "stats"
                ingested = json.loads(payload)["events_ingested"]
                time.sleep(0.02)
            assert ingested == 2
            idle.shutdown(socket.SHUT_WR)
            reply = idle.makefile("rb")
            command, info = parse_summary(
                parse_response(read_until(reply, "ok eof")[-1])[1]
            )
            reply.close()
            assert (command, info["events"]) == ("eof", 2)
        finally:
            handle.close()
            probe.close()
            idle.close()


def test_a_connection_with_nothing_undrained_leaves_other_races_alone():
    """A run is applied before ``submit_lines`` returns, with its race; a
    connection that sent nothing then writes only its replies, and no race
    is left over for anyone."""
    config = ServiceConfig(n_shards=1)
    with RaceDetectionService(config) as service:
        streaming = [format_event(event) for event in RACY]
        ingested, reports = service.submit_lines(streaming)
        idle = io.StringIO()
        service.handle_stream(["!ping"], idle)
        assert idle.getvalue().splitlines() == ["ok pong", "ok eof events=0 races=0"]
        assert service.barrier() == []
    races = [format_race(seq, report) for seq, report in reports]
    assert (ingested, races) == (2, ["race 5.f write:1:0:0 write:2:0:0 seq=1"])


def test_a_read_is_one_push_and_one_kernel_call(monkeypatch):
    """A read of 100 event lines, under :data:`READ_SIZE` bytes, is one
    ingestion call: one record array pushed, one kernel call."""
    lines = racy_pairs(50)
    data = "".join(line + "\n" for line in lines).encode("utf-8")
    assert len(lines) > 64 and len(data) < READ_SIZE
    calls = []
    apply_packed = EncodedGoldilocks.apply_packed

    def counted(kernel, frame):
        calls.append(len(frame))
        return apply_packed(kernel, frame)

    monkeypatch.setattr(EncodedGoldilocks, "apply_packed", counted)
    out = io.StringIO()
    with RaceDetectionService(ServiceConfig(n_shards=1)) as service:
        service.handle_stream(io.BytesIO(data), out)
        stats = service.stats()
    assert (stats.batches_flushed, len(calls)) == (1, 1)
    assert out.getvalue().splitlines()[-1] == "ok eof events=100 races=50"


def test_a_block_of_blank_and_comment_lines_costs_no_call_per_line(monkeypatch):
    """The blank and comment lines after a refused one are stepped over
    without an ingestion call each: two event lines around 500 blank and
    500 comment lines, in one read, make at most two calls."""
    calls = []
    submit_lines = ShardedEngine.submit_lines

    def counted(engine, lines):
        calls.append(len(lines))
        return submit_lines(engine, lines)

    monkeypatch.setattr(ShardedEngine, "submit_lines", counted)
    stream = ["1 0 write 5 f"] + [""] * 500 + ["# note"] * 500 + ["2 0 write 5 f"]
    assert len(byte_stream(stream).getvalue()) < READ_SIZE
    assert serve(stream, byte_stream) == [
        "race 5.f write:1:0:0 write:2:0:0 seq=1",
        "ok eof events=2 races=1",
    ]
    assert len(calls) <= 2
