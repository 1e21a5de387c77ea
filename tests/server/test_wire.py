"""The binary wire path: parity with the spec reference, counters, client.

The acceptance matrix: text and binary ingestion, at one shard and at
four, must produce exactly the race lines -- seq tags included -- of the
reference detector (``LazyGoldilocks`` without GC, the Figure 8 algorithm)
run over the same trace with ``seq`` = event index.
"""

import io
import socket
import threading

import pytest

from repro.core import LazyGoldilocks
from repro.server import RaceDetectionService, ServiceConfig
from repro.server.client import ServiceClient, detect_over_socket
from repro.server.protocol import FRAME_EVENTS, FRAME_TEXT, format_race, pack_frame
from repro.server.service import serve_tcp
from repro.trace import RandomTraceGenerator
from repro.trace.io import format_event, iter_packed_frames, parse_event

TRACE = RandomTraceGenerator(max_threads=4, n_objects=6, steps_per_thread=40)


def trace_text(seed=11):
    events = TRACE.generate(seed=seed)
    return "\n".join(format_event(e) for e in events) + "\n"


def run_service(text, wire, n_shards=4):
    """One fresh service pass; returns (race lines incl. seq, stats)."""
    config = ServiceConfig(n_shards=n_shards)
    out = io.StringIO()
    with RaceDetectionService(config) as service:
        if wire == "text":
            service.handle_stream(io.StringIO(text), out)
        else:
            buf = io.BytesIO()
            if wire == "frames":
                for frame in iter_packed_frames(io.StringIO(text), 32):
                    buf.write(pack_frame(FRAME_EVENTS, frame))
            else:  # "frame-text": the FRAME_TEXT escape hatch
                buf.write(pack_frame(FRAME_TEXT, text.encode("utf-8")))
            buf.seek(0)
            service.handle_stream(iter(["!binary\n"]), out, binary=buf)
        stats = service.stats()
    races = sorted(
        line for line in out.getvalue().splitlines() if line.startswith("race ")
    )
    return races, stats


@pytest.fixture(scope="module")
def reference():
    text = trace_text()
    detector = LazyGoldilocks(gc_threshold=None)
    races = sorted(
        format_race(seq, report)
        for seq, line in enumerate(text.strip().splitlines())
        for report in detector.process(parse_event(line))
    )
    assert races, "a parity matrix over a race-free trace proves nothing"
    return text, races


@pytest.mark.parametrize("n_shards", [1, 4])
@pytest.mark.parametrize("wire", ["text", "frames", "frame-text"])
def test_parity_matrix(reference, wire, n_shards):
    text, expected = reference
    races, _ = run_service(text, wire, n_shards=n_shards)
    assert races == expected  # same races, same seq tags


def test_packed_counters_prove_encode_once(reference):
    text, _ = reference
    n_events = len(text.strip().splitlines())

    _, packed = run_service(text, "frames")
    assert packed.queue_bytes > 0
    # edge allocations are per *new element*, far below one per event
    assert 0 < packed.edge_allocs < n_events / 4


def test_binary_request_on_text_only_stream_is_an_error():
    text = trace_text()
    out = io.StringIO()
    with RaceDetectionService(ServiceConfig(n_shards=2)) as service:
        reader = io.StringIO("!binary\n" + text)
        service.handle_stream(reader, out)  # binary=None: stdin mode
    lines = out.getvalue().splitlines()
    assert lines[0].startswith("error")
    assert any(line.startswith("ok eof") for line in lines)  # stream continued


def test_tcp_client_binary_round_trip():
    events = TRACE.generate(seed=11)
    with RaceDetectionService(ServiceConfig(n_shards=2)) as service:
        server = serve_tcp(service, "127.0.0.1", 0)
        port = server.server_address[1]
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            with ServiceClient.tcp("127.0.0.1", port) as client:
                assert client.enable_binary() is True
                assert client.enable_binary() is True  # idempotent
                client.stream(events)
                client.flush()
                assert client.ping()
                assert client.stats().events_ingested == len(events)
                binary_races = sorted(map(repr, (r[:3] for r in client.races)))
                binary_seqs = sorted(r.seq for r in client.races)

            one_shot = detect_over_socket(events, "127.0.0.1", port, binary=True)
            assert sorted(map(repr, (r[:3] for r in one_shot))) == binary_races

            with ServiceClient.tcp("127.0.0.1", port) as client:
                client.reset()  # seq keeps counting; compare *relative* tags
                client.stream(events)
                client.flush()
                text_races = sorted(map(repr, (r[:3] for r in client.races)))
                text_seqs = sorted(r.seq for r in client.races)
        finally:
            server.shutdown()
            server.server_close()
    assert text_races == binary_races
    offset = text_seqs[0] - binary_seqs[0]
    assert [s - offset for s in text_seqs] == binary_seqs


def test_enable_binary_downgrades_against_an_old_server():
    """A pre-binary server answers `!binary` with an error line; the client
    must report False and keep the connection usable in text mode."""
    ours, theirs = socket.socketpair()

    def old_server():
        with theirs, theirs.makefile("rw", encoding="utf-8") as stream:
            line = stream.readline()
            assert line.strip() == "!binary"
            stream.write("race 1.f write:1:0:0 write:2:0:0 seq=9\n")
            stream.write("error unknown control command 'binary'\n")
            stream.flush()

    thread = threading.Thread(target=old_server, daemon=True)
    thread.start()
    with ServiceClient(ours) as client:
        assert client.enable_binary() is False
        assert not client.binary
        assert len(client.races) == 1  # races seen mid-negotiation are kept
    thread.join(timeout=2)


def test_iter_packed_frames_round_trip(tmp_path):
    text = trace_text(seed=5)
    events = [parse_event(line) for line in text.strip().splitlines()]

    from repro.core.encode import FrameDecoder

    frames = list(iter_packed_frames(io.StringIO(text), events_per_frame=16))
    assert len(frames) == -(-len(events) // 16)  # ceil division
    decoder = FrameDecoder()
    decoded = [pair for frame in frames for pair in decoder.decode_payload(frame)]
    from tests.core.test_encode import normalize

    assert [e for _, e in decoded] == [normalize(e) for e in events]
    assert [seq for seq, _ in decoded] == list(range(len(events)))

    # .gz paths stream through the same path
    import gzip

    path = tmp_path / "trace.txt.gz"
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        fh.write("# comment\n\n" + text)
    gz_frames = list(iter_packed_frames(str(path), events_per_frame=16))
    assert gz_frames == frames

