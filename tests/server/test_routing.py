"""Each race goes to the stream whose event completed it.

Connections share one detection domain, but every ingestion call -- a run
of text lines, a binary event frame, one ``submit_line`` -- is applied
before it returns.  No record stays buffered between calls, so the races
a call takes are exactly those its own events completed, and its stream
writes them at once: one client's ``!flush`` or EOF never touches
another's races.
"""

import io
import json
import random
import socket
import sys
import threading
import time

import pytest

from repro.core.encode import RECORD_WIDTH
from repro.server import RaceDetectionService, ServiceConfig
from repro.server.protocol import FRAME_EVENTS, pack_frame, parse_response
from repro.trace.io import iter_packed_frames
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
    """A's racy pair is applied as soon as it is read: A gets the race at
    once, with no ``!flush``.  B, sending and ending next to it, gets none,
    and A's ``!flush`` then only counts it."""
    path = str(tmp_path / "route.sock")
    with unix_service(path, batch_size=64):
        a = connect(path)
        a_in = a.makefile("rb")
        b = connect(path)
        b_in = b.makefile("rb")
        try:
            a.sendall(b"1 0 write 5 f\n2 0 write 5 f\n")
            assert read_until(a_in, "race ") == [RACE]
            b.sendall(b"3 0 write 9 g\n")
            if b_reads:
                b.shutdown(socket.SHUT_WR)
                assert read_until(b_in, "ok eof") == ["ok eof events=1 races=0"]
            else:
                b_in.close()
                b.close()
                while stats_of(a, a_in)["events_ingested"] < 3:
                    time.sleep(0.01)
            a.sendall(b"!flush\n")
            assert read_until(a_in, "ok flush") == ["ok flush races=1"]
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
    config = ServiceConfig(n_shards=n_shards, batch_size=16)
    with RaceDetectionService(config) as service:
        service.handle_stream(io.StringIO(text), out)
        assert service.barrier() == []
        races = service.stats().races_reported
    lines = out.getvalue().splitlines()
    race_lines = [line for line in lines if line.startswith("race ")]
    assert len(race_lines) == len(set(race_lines)) == races > 0
    assert lines[-1] == f"ok eof events={len(text.splitlines())} races={races}"


def test_concurrent_streams_each_get_exactly_their_own_races():
    """Streams on more threads than cores, a short switch interval and tiny
    batches, so the streams' runs and ``!flush`` lines interleave finely:
    every stream still writes exactly the races its own events completed,
    each once."""
    n_streams, pairs = 6, 40
    config = ServiceConfig(n_shards=2, batch_size=3)
    outputs = [io.StringIO() for _ in range(n_streams)]

    def lines_of(c):
        # two threads of stream c race on each of its own fields, and a
        # !flush now and then acknowledges what was written
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


# -- every call is applied before it returns -------------------------------


def send_in_pieces(path, data, piece, pause):
    """One connection: ``data`` in ``piece``-byte sends with a ``pause``
    after each, then EOF; returns every byte the server wrote back."""
    sock = connect(path)
    try:
        for start in range(0, len(data), piece):
            sock.sendall(data[start : start + piece])
            time.sleep(pause)
        sock.shutdown(socket.SHUT_WR)
        reply = bytearray()
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                return bytes(reply)
            reply.extend(chunk)
    finally:
        sock.close()


def test_the_response_stream_is_a_function_of_the_input(tmp_path):
    """The shared service trace over a Unix socket at 4 shards, twice, in
    pieces of different sizes with short pauses: the two response streams
    are byte-identical, and their race lines come in ``seq`` order."""
    data = (service_trace_text() + "!flush\n").encode("utf-8")
    replies = []
    for run, (piece, pause) in enumerate([(4096, 0.002), (997, 0.001)]):
        path = str(tmp_path / f"determinism{run}.sock")
        with unix_service(path, n_shards=4):
            replies.append(send_in_pieces(path, data, piece, pause))
    assert replies[0] == replies[1]
    lines = replies[0].decode("utf-8").splitlines()
    races = [line for line in lines if line.startswith("race ")]
    seqs = [int(line.rpartition("seq=")[2]) for line in races]
    assert len(seqs) == 42 and seqs == sorted(seqs)
    assert lines[-2:] == ["ok flush races=42", "ok eof events=2536 races=42"]


def test_the_races_of_one_access_come_in_group_order_whatever_the_reads():
    """A commit races on 1.f (group 0) and 2.f (group 1).  Read as one run
    with two writes of group 1 ahead of it, it fills group 1's batch and
    pushes it before group 0's; read a line at a time, it is pushed with
    every group at the end of its run.  Its race lines come in group order
    either way."""
    lines = [
        "1 0 write 1 f",
        "!ping",
        "1 1 write 2 f",
        "1 2 write 6 f",
        "2 0 commit R  W 1.f 2.f",
    ]
    outputs = []
    for reader in (list, lambda lines: iter([line + "\n" for line in lines])):
        out = io.StringIO()
        with RaceDetectionService(ServiceConfig(n_shards=4, batch_size=3)) as service:
            service.handle_stream(reader(lines), out)
        outputs.append(out.getvalue().splitlines())
    assert outputs[0] == outputs[1] == [
        "ok pong",
        "race 1.f write:1:0:0 write:2:0:1 seq=3",
        "race 2.f write:1:1:0 write:2:0:1 seq=3",
        "ok eof events=4 races=2",
    ]


def buffered(service):
    """The records buffered for the kernel, read under the ingestion lock,
    so between two calls."""
    with service._lock:
        return len(service.engine._records) // RECORD_WIDTH


class Watched(io.BytesIO):
    """A byte stream that notes how many records are buffered whenever the
    service reads it: it reads on only after handling what it read last.
    ``read1`` returns at most ``piece`` bytes, so runs are short."""

    def __init__(self, data, service, seen, piece):
        super().__init__(data)
        self.service, self.seen, self.piece = service, seen, piece

    def read1(self, n=-1):
        self.seen.append(buffered(self.service))
        return super().read1(min(n, self.piece))

    def read(self, n=-1):
        self.seen.append(buffered(self.service))
        return super().read(n)


def racy_lines(c, pairs):
    """Stream ``c``'s events: two threads of its own write each of its
    fields unordered, and thread 1 takes and releases a lock of its own
    (broadcast to every shard) between them."""
    t1, t2, lock = 100 * c + 1, 100 * c + 2, 1000 * c + 999
    lines = []
    for k in range(pairs):
        var = 1000 * c + k
        lines += [
            f"{t1} {3 * k} acq {lock}",
            f"{t1} {3 * k + 1} write {var} f",
            f"{t1} {3 * k + 2} rel {lock}",
            f"{t2} {k} write {var} f",
        ]
    return lines


@pytest.mark.parametrize("batch_size", [3, 16, 64])
def test_no_record_stays_buffered_after_any_call(batch_size):
    """Text runs, binary frames and ``submit_line``/``submit_lines`` calls
    on three threads with a short switch interval, at batch sizes that
    leave partial batches behind every call: whenever no call is in
    progress, no shard buffer holds a record, and every race is written
    once."""
    pairs = 30
    seen = []
    config = ServiceConfig(n_shards=4, batch_size=batch_size)
    with RaceDetectionService(config) as service:
        text = "".join(line + "\n" for line in racy_lines(0, pairs)).encode()
        frame_text = io.StringIO("\n".join(racy_lines(1, pairs)))
        frames = b"".join(
            pack_frame(FRAME_EVENTS, frame)
            for frame in iter_packed_frames(frame_text, 7)
        )
        outputs = [io.StringIO(), io.StringIO()]
        api_reports = []

        def api_caller():
            rng = random.Random(batch_size)
            lines = racy_lines(2, pairs)
            while lines:
                n = rng.randint(1, 9)
                run, lines = lines[:n], lines[n:]
                if n % 2:
                    for line in run:
                        assert service.submit_line(line) is not None
                        seen.append(buffered(service))
                else:
                    ingested, reports = service.submit_lines(run)
                    assert ingested == len(run)
                    api_reports.extend(reports)
                    seen.append(buffered(service))
                api_reports.extend(service.poll_reports())

        callers = [
            threading.Thread(
                target=service.handle_stream,
                args=(Watched(text, service, seen, 97), outputs[0]),
            ),
            threading.Thread(
                target=service.handle_stream,
                args=(["!binary"], outputs[1]),
                kwargs={"binary": Watched(frames, service, seen, 97)},
            ),
            threading.Thread(target=api_caller),
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in callers:
                thread.start()
            for thread in callers:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in callers)
        assert service.stats().races_reported == 3 * pairs
    assert len(seen) > 3 * pairs and not any(seen)
    for out in outputs:
        last = out.getvalue().splitlines()[-1]
        assert last == f"ok eof events={4 * pairs} races={pairs}"
    assert len(api_reports) == pairs


def test_constructing_the_service_starts_no_thread():
    before = set(threading.enumerate())
    with RaceDetectionService(ServiceConfig(n_shards=4)):
        assert set(threading.enumerate()) == before


@pytest.mark.parametrize("batch_size", [1, 64])
def test_flush_counts_the_streams_race_lines_since_its_previous_flush(batch_size):
    """``ok flush races=N``: the race lines this stream wrote since its
    previous ``!flush``, whichever batch they were applied in -- not
    another caller's, not earlier ones."""
    out = io.StringIO()
    config = ServiceConfig(n_shards=2, batch_size=batch_size)
    with RaceDetectionService(config) as service:

        def lines():
            yield "1 0 write 5 f\n"
            yield "2 0 write 5 f\n"
            yield "!flush\n"
            # an API caller's race between two of this stream's reads
            service.submit_line("7 0 write 8 h")
            service.submit_line("8 0 write 8 h")
            for var in (6, 7):
                yield f"1 1 write {var} f\n"
                yield f"2 1 write {var} f\n"
            yield "!flush\n"
            yield "!flush\n"

        service.handle_stream(lines(), out)
        assert len(service.poll_reports()) == 1
    replies = [line for line in out.getvalue().splitlines() if line.startswith("ok ")]
    assert replies == [
        "ok flush races=1",
        "ok flush races=2",
        "ok flush races=0",
        "ok eof events=6 races=3",
    ]
