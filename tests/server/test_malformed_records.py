"""Malformed binary records are refused at the wire edge with a typed error.

Each case sends one bad record over a plain ``!binary`` connection and over
a coordinator's ``!cluster`` connection.  The edge must answer ``error bad
event frame: ...`` before the record is buffered, keep the connection
serving (``!ping``), put a typed :class:`FrameFormatError` detail into the
fault ring (``!health``), and leave the record out of ``ok eof events=N``.
"""

import io
import json
from array import array

import pytest

from repro.core.actions import (
    OP_ACQUIRE,
    OP_ALLOC,
    OP_COMMIT,
    OP_FORK,
    OP_READ,
    OP_RELEASE,
    OP_WRITE,
    Acquire,
    Commit,
    DataVar,
    Event,
    Fork,
    LockVar,
    Obj,
    Release,
    Tid,
    Write,
)
from repro.core.encode import RECORD_WIDTH, EventEncoder, encode_frame
from repro.server import RaceDetectionService, ServiceConfig
from repro.server.protocol import (
    FRAME_CONTROL,
    FRAME_EVENTS,
    format_race,
    pack_frame,
    parse_response,
    parse_summary,
)

#: text lines a connection sends before its binary frames
PREAMBLES = {
    "plain": ["!binary\n"],
    "cluster": ["!cluster 2\n", "!adopt 0\n", "!adopt 1\n", "!binary\n"],
}

VAR = DataVar(Obj(5), "f")


class Frames:
    """Client-side framing: one id space, a delta cursor, a running seq."""

    def __init__(self) -> None:
        self.encoder = EventEncoder()
        self.cursor = 1
        self.seq = 0

    def id_of(self, element) -> int:
        return self.encoder.intern_element(element)

    def frame(self, items, extras=()) -> bytes:
        """``items`` are Events or raw ``(op, tid_id, index, a, b)`` rows."""
        records = array("q")
        pool = array("q", extras)
        for item in items:
            if isinstance(item, Event):
                op, tid_id, index, a, b, extra = self.encoder.encode_event(item)
                if extra is not None:
                    a = len(pool)
                    pool.extend(extra)
            else:
                op, tid_id, index, a, b = item
            records.extend((op, self.seq, tid_id, index, a, b))
            self.seq += 1
        base, self.cursor = self.cursor, len(self.encoder.interner)
        delta = self.encoder.interner.elements_since(base)
        return pack_frame(FRAME_EVENTS, encode_frame(base, delta, records, pool))


def control(line: str) -> bytes:
    return pack_frame(FRAME_CONTROL, line.encode("utf-8"))


def serve(service, connection, frames):
    """One connection: preamble, the frames, ``!ping``, ``!health``, EOF."""
    wire = io.BytesIO(b"".join(frames) + control("!ping") + control("!health"))
    out = io.StringIO()
    service.handle_stream(iter(PREAMBLES[connection]), out, binary=wire)
    return out.getvalue().splitlines()


def outcome(lines):
    """(error lines, race lines, ping answered, health payload, eof info)."""
    errors = [line for line in lines if line.startswith("error ")]
    races = [line for line in lines if line.startswith("race ")]
    health = next(
        json.loads(parse_response(line)[1])
        for line in lines
        if parse_response(line)[0] == "health"
    )
    command, eof = parse_summary(parse_response(lines[-1])[1])
    assert command == "eof"
    return errors, races, "ok pong" in lines, health, eof


def service(**overrides):
    config = dict(n_shards=2)
    config.update(overrides)
    return RaceDetectionService(ServiceConfig(**config))


def assert_refused(lines, kind, record, applied, events):
    errors, _races, pinged, health, eof = outcome(lines)
    assert len(errors) == 1 and errors[0].startswith("error bad event frame: ")
    assert pinged
    fault = health["parse_error_detail"][-1]
    assert (fault["kind"], fault["record"], fault["applied"]) == (kind, record, applied)
    assert fault["line"] == health["last_parse_errors"][-1]
    assert health["parse_errors"] == 1
    assert eof["events"] == events


@pytest.mark.parametrize("connection", sorted(PREAMBLES))
def test_negative_extras_offset_is_refused_and_races_go_on(connection):
    """Offset -1 must not be read from the end of the extras array: the
    rewritten record's push would raise a bare AttributeError, killing the
    handler.  Refused at the edge, it leaves the service applying and
    reporting other clients' events as usual."""
    frames = Frames()
    tid = frames.id_of(Tid(1))
    var = frames.id_of(VAR)
    bad = frames.frame(
        [Event(Tid(1), 0, Write(VAR)), (OP_COMMIT, tid, 1, -1, 0)],
        extras=[1, var, 1],
    )
    with service() as svc:
        lines = serve(svc, connection, [bad])
        assert_refused(lines, OP_COMMIT, 1, 1, events=1)
        # a second client's racing pair is applied and reported as usual
        assert svc.submit_line("11 0 write 9 g") is not None
        assert svc.submit_line("12 0 write 9 g") is not None
        assert len(svc.poll_reports()) == 1


@pytest.mark.parametrize("connection", sorted(PREAMBLES))
def test_lock_in_a_commit_footprint_cannot_hide_a_race(connection):
    """A footprint entry naming lock 7 must not join the commit's gain
    lockset: it would order thread 2's write after thread 1's locked one."""
    frames = Frames()
    good = frames.frame(
        [
            Event(Tid(0), 0, Fork(Tid(1))),
            Event(Tid(0), 1, Fork(Tid(2))),
            Event(Tid(1), 0, Acquire(Obj(7))),
            Event(Tid(1), 1, Write(VAR)),
            Event(Tid(1), 2, Release(Obj(7))),
        ]
    )
    lock = frames.id_of(LockVar(Obj(7)))
    tid2 = frames.id_of(Tid(2))
    bad = frames.frame([(OP_COMMIT, tid2, 0, 0, 0)], extras=[1, lock, 0])
    write_seq = frames.seq
    tail = frames.frame([Event(Tid(2), 1, Write(VAR))])
    with service() as svc:
        lines = serve(svc, connection, [good, bad, tail])
    assert_refused(lines, OP_COMMIT, 0, 0, events=6)
    seq = 5 if connection == "plain" else write_seq
    assert outcome(lines)[1] == [f"race 5.f write:1:1:0 write:2:1:0 seq={seq}"]


def bad_rows(frames):
    """An offset past the extras array, data ids that name a thread or a
    lock (each a bare IndexError or KeyError without the edge checks), a
    thread id that names a lock (a bare AttributeError at the push), and
    opcode 0, below the sync opcodes."""
    tid = frames.id_of(Tid(1))
    lock = frames.id_of(LockVar(Obj(7)))
    var = frames.id_of(VAR)
    return {
        "offset-past-end": ([(OP_COMMIT, tid, 0, 40, 0)], [1, tid, 0], OP_COMMIT),
        "read-of-a-thread": ([(OP_READ, tid, 0, tid, 0)], [], OP_READ),
        "write-of-a-lock": ([(OP_WRITE, tid, 0, lock, 0)], [], OP_WRITE),
        "write-by-a-lock": ([(OP_WRITE, lock, 0, var, 0)], [], OP_WRITE),
        "opcode-zero": ([(0, tid, 0, tid, tid)], [], 0),
    }


@pytest.mark.parametrize(
    "case",
    [
        "offset-past-end",
        "read-of-a-thread",
        "write-of-a-lock",
        "write-by-a-lock",
        "opcode-zero",
    ],
)
@pytest.mark.parametrize("connection", sorted(PREAMBLES))
def test_out_of_range_offsets_and_non_data_ids_are_typed(connection, case):
    frames = Frames()
    rows, extras, op = bad_rows(frames)[case]
    good = frames.frame([Event(Tid(1), 0, Write(VAR))])
    bad = frames.frame(rows, extras=extras)
    with service() as svc:
        lines = serve(svc, connection, [good, bad])
    assert_refused(lines, op, 0, 0, events=1)


def mistyped_sync(frames, case):
    """(head events, the bad row, tail events, its opcode) of one case.

    Thread 0 forks threads 1 and 2, and thread 1 writes 5.f; the tail has
    thread 2 write 5.f.  Each bad row names an id of the wrong class, which,
    ingested, hides that race: an acquire of the data variable 6.g that
    thread 1's commit wrote, a fork whose child is lock 7, and a release
    of lock 7 whose releasing thread is thread 1 in a record of thread 2
    (thread 2 then acquires lock 7).
    """
    t1, t2, lock = Tid(1), Tid(2), Obj(7)
    head = [
        Event(Tid(0), 0, Fork(t1)),
        Event(Tid(0), 1, Fork(t2)),
        Event(t1, 0, Write(VAR)),
    ]
    write = [Event(t2, 1, Write(VAR))]
    if case == "acq-of-a-data-var":
        g = DataVar(Obj(6), "g")
        head.append(Event(t1, 1, Commit(frozenset(), frozenset([g]))))
        frames.encoder.encode_event(head[-1])  # announce 6.g with the head
        bad = (OP_ACQUIRE, frames.id_of(t2), 0, frames.id_of(g), frames.id_of(t2))
        return head, bad, write, OP_ACQUIRE
    tail = [Event(t2, 1, Acquire(lock)), Event(t2, 2, Write(VAR))]
    lock_id, tid1, tid2 = frames.id_of(LockVar(lock)), frames.id_of(t1), frames.id_of(t2)
    if case == "fork-of-a-lock":
        return head, (OP_FORK, tid1, 1, tid1, lock_id), tail, OP_FORK
    assert case == "rel-by-another-thread"
    return head, (OP_RELEASE, tid2, 0, tid1, lock_id), tail, OP_RELEASE


@pytest.mark.parametrize(
    "case",
    ["acq-of-a-data-var", "fork-of-a-lock", "rel-by-another-thread"],
)
@pytest.mark.parametrize("connection", sorted(PREAMBLES))
def test_mistyped_sync_records_are_refused_and_the_race_stays(connection, case):
    """A sync record's own-thread slot must name its thread and the other
    slot a lock (acq/rel), a volatile (vread/vwrite) or a thread
    (fork/join); otherwise the edge refuses the record and the race it
    would hide is reported."""
    frames = Frames()
    head, bad_row, tail, op = mistyped_sync(frames, case)
    good = frames.frame(head)
    bad = frames.frame([bad_row])
    write_seq = frames.seq + len(tail) - 1
    last = frames.frame(tail)
    with service() as svc:
        lines = serve(svc, connection, [good, bad, last])
    events = len(head) + len(tail)
    assert_refused(lines, op, 0, 0, events=events)
    seq = events - 1 if connection == "plain" else write_seq
    index = tail[-1].index
    assert outcome(lines)[1] == [f"race 5.f write:1:0:0 write:2:{index}:0 seq={seq}"]


@pytest.mark.parametrize("connection", sorted(PREAMBLES))
def test_alloc_of_a_data_variable_is_refused_and_the_race_stays(connection):
    """An alloc's id must name an object's lock, its proxy.  One naming the
    data variable 5.f, sent between the two racy writes, would be applied
    as an alloc of object 5 and make thread 2's write look fresh."""
    frames = Frames()
    head = [
        Event(Tid(0), 0, Fork(Tid(1))),
        Event(Tid(0), 1, Fork(Tid(2))),
        Event(Tid(1), 0, Write(VAR)),
    ]
    good = frames.frame(head)
    tid2, var = frames.id_of(Tid(2)), frames.id_of(VAR)
    bad = frames.frame([(OP_ALLOC, tid2, 0, var, 0)])
    write_seq = frames.seq
    last = frames.frame([Event(Tid(2), 1, Write(VAR))])
    with service() as svc:
        lines = serve(svc, connection, [good, bad, last])
    assert_refused(lines, OP_ALLOC, 0, 0, events=4)
    seq = 3 if connection == "plain" else write_seq
    assert outcome(lines)[1] == [f"race 5.f write:1:0:0 write:2:1:0 seq={seq}"]


@pytest.mark.parametrize("alloc_first", [True, False], ids=["before", "after"])
def test_a_record_a_shard_refuses_loses_no_other_record_of_its_batch(alloc_first):
    """A record the kernel refuses (an alloc naming a thread, buffered past
    the edge) shares one push with two racy writes, as records of one wire
    frame do.  The writes before it keep their race, the writes after it
    are still applied, and ``!health`` shows the one fault."""
    with service(n_shards=1) as svc:
        engine = svc.engine
        thread = engine._encoder.intern_element(Tid(1))

        def refused_alloc():
            engine._ingest_record(OP_ALLOC, thread, 0, thread, 0, None, None)

        def buffered_write(line):
            engine._ingest_record(*engine._encoder.encode_line(line), None)

        with svc._lock:
            if alloc_first:
                refused_alloc()
            buffered_write("1 0 write 5 f")
            buffered_write("2 0 write 5 f")
            if not alloc_first:
                refused_alloc()
            assert len(engine._records) == 3 * RECORD_WIDTH  # one batch
            reports = engine.barrier()
        races = [format_race(seq, report) for seq, report in reports]
        health = svc.health()
    seq = 2 if alloc_first else 1
    assert races == [f"race 5.f write:1:0:0 write:2:0:0 seq={seq}"]
    assert health["parse_errors"] == 1
    fault = health["parse_error_detail"][-1]
    assert (fault["kind"], fault["shard"]) == (OP_ALLOC, 0)
    assert "not an object proxy" in fault["message"]
    assert health["stats"]["shards"][0]["events_processed"] == 2
