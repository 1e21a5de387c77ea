"""The encode-once packing layer: records, frames, and kernel parity."""

import io
from array import array

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import EncodedGoldilocks, LazyGoldilocks
from repro.core.actions import (
    Acquire,
    Alloc,
    Commit,
    DataVar,
    Event,
    Fork,
    Join,
    LockVar,
    Obj,
    Read,
    Release,
    Tid,
    VolatileRead,
    VolatileVar,
    VolatileWrite,
    Write,
)
from repro.core.encode import (
    OP_READ,
    OP_WRITE,
    RECORD_WIDTH,
    EventEncoder,
    FrameDecoder,
    FrameFormatError,
    decode_elements,
    decode_frame,
    encode_elements,
    encode_frame,
    extend_interner,
)
from repro.core.lockset import Interner
from repro.trace import RandomTraceGenerator
from repro.trace.io import format_event, iter_packed_frames


def normalize(event):
    """Commits with a var in both R and W pack as write-only (equivalent)."""
    action = event.action
    if isinstance(action, Commit):
        action = Commit(action.reads - action.writes, action.writes)
    return Event(event.tid, event.index, action)


def frame_of(events, encoder=None, base=None):
    """Pack a whole trace into one frame, the way the edge does."""
    encoder = encoder or EventEncoder()
    if base is None:
        base = len(encoder.interner)
    records = array("q")
    extras = array("q")
    for seq, event in enumerate(events):
        op, tid_id, index, a, b, extra = encoder.encode_event(event)
        if extra is not None:
            a = len(extras)
            extras.extend(extra)
        records.extend((op, seq, tid_id, index, a, b))
    delta = encoder.interner.elements_since(base)
    return encode_frame(base, delta, records, extras), encoder


ELEMENTS = [
    Tid(3),
    LockVar(Obj(9)),
    VolatileVar(Obj(2), "flag"),
    DataVar(Obj(4), "champó"),  # non-ASCII field survives the wire
    DataVar(Obj(-1), ""),
]


def test_element_round_trip():
    payload, count = encode_elements(ELEMENTS)
    decoded, offset = decode_elements(payload, 0, count)
    assert decoded == ELEMENTS
    assert offset == len(payload)


def test_frame_round_trip_and_validation():
    events = RandomTraceGenerator().generate(seed=3)
    frame, encoder = frame_of(events)
    base, delta, records, extras = decode_frame(frame)
    assert base == 1  # a fresh replica holds exactly [TL]
    assert len(records) == RECORD_WIDTH * len(events)
    assert [0] + [encoder.interner.intern(e) for e in delta] == list(
        range(len(encoder.interner))
    )
    with pytest.raises(ValueError):
        decode_frame(b"\x09" + frame[1:])  # bad version byte


def test_extend_interner_is_idempotent_but_rejects_gaps():
    master = EventEncoder()
    for element in ELEMENTS:
        master.intern_element(element)
    delta = master.interner.elements_since(1)
    replica = Interner()
    extend_interner(replica, 1, delta)
    extend_interner(replica, 1, delta)  # replayed frame: no-op
    assert len(replica) == len(master.interner)
    behind = Interner()
    with pytest.raises(ValueError):
        extend_interner(behind, 2, delta)
    # another id space: a held id names another element, or a new element
    # is held under another id; either way the replica is left unchanged
    for bad in ([delta[1]] + delta[1:], delta + [delta[0]]):
        with pytest.raises(FrameFormatError, match="interner diverged"):
            extend_interner(replica, 1, bad)
        assert replica.elements_since(0) == master.interner.elements_since(0)


@pytest.mark.parametrize("seed", range(6))
def test_frame_decoder_round_trips_random_traces(seed):
    events = RandomTraceGenerator().generate(seed=seed)
    frame, _ = frame_of(events)
    decoder = FrameDecoder()
    decoded = decoder.decode_payload(frame)
    assert [seq for seq, _ in decoded] == list(range(len(events)))
    assert [e for _, e in decoded] == [normalize(e) for e in events]
    sync_like = sum(
        1
        for e in events
        if not isinstance(e.action, (Read, Write))
    )
    assert decoder.sync_decoded == sync_like


def test_encode_line_matches_encode_event():
    events = RandomTraceGenerator(steps_per_thread=20).generate(seed=11)
    by_event = EventEncoder()
    by_line = EventEncoder()
    for event in events:
        assert by_line.encode_line(format_event(event)) == by_event.encode_event(
            event
        )
    assert len(by_line.interner) == len(by_event.interner)


def test_cache_misses_count_only_new_elements():
    encoder = EventEncoder()
    events = RandomTraceGenerator().generate(seed=2)
    for event in events:
        encoder.encode_event(event)
    first_pass = encoder.cache_misses
    assert first_pass == len(encoder.interner) - 1  # everything but TL
    for event in events:
        encoder.encode_event(event)
    assert encoder.cache_misses == first_pass  # steady state: no churn


@pytest.mark.parametrize(
    "line",
    [
        "1 0 acq",
        "1 0 warp 3",
        "1 0 read 5",
        "x 0 read 5 f",
        "1 0 commit W 1.f",
        "1 0 commit R 5 W",
        "1 0 commit X 5.f W",
        "1 0 commit R 5.f",
        "1 0 fork",
        "1 0",
    ],
)
def test_encode_line_rejects_what_parse_event_rejects(line):
    from repro.trace.io import parse_event

    with pytest.raises(ValueError):
        parse_event(line)
    with pytest.raises(ValueError):
        EventEncoder().encode_line(line)


def test_parse_event_checks_the_commit_marker_under_python_O():
    """``python -O`` strips ``assert``: the ``R`` marker needs a real check,
    or ``commit X 5.f W`` would parse as ``commit R 5.f W``."""
    import os
    import subprocess
    import sys

    import repro

    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    probe = (
        "from repro.trace.io import parse_event\n"
        "try:\n"
        "    parse_event('1 0 commit X 5.f W')\n"
        "except ValueError:\n"
        "    raise SystemExit(0)\n"
        "raise SystemExit('accepted')\n"
    )
    result = subprocess.run(
        [sys.executable, "-O", "-c", probe],
        env=dict(os.environ, PYTHONPATH=src),
        timeout=60,
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr


KINDS = ["read", "write", "vread", "vwrite", "acq", "rel", "fork", "join", "alloc", "commit"]
#: operands a random trace line draws from, well-formed and malformed
OPERANDS = ["1", "0", "-3", "x", "5", "5.f", "5.", ".f", "f", "7.g.h", "R", "W"]
#: a line of any tokens, or one shaped ``<tid> <index> <kind> <operands>``
line_tokens = st.one_of(
    st.lists(st.sampled_from(OPERANDS + KINDS), max_size=7),
    st.tuples(
        st.sampled_from(["1", "2", "x"]),
        st.sampled_from(["0", "1", "y"]),
        st.sampled_from(KINDS),
        st.lists(st.sampled_from(OPERANDS), max_size=5),
    ).map(lambda t: [t[0], t[1], t[2], *t[3]]),
)


@settings(max_examples=400, deadline=None)
@given(tokens=line_tokens)
def test_both_parsers_accept_the_same_lines(tokens):
    from repro.trace.io import parse_event

    line = " ".join(tokens)
    try:
        event = parse_event(line)
    except ValueError:
        with pytest.raises(ValueError):
            EventEncoder().encode_line(line)
        return
    assert EventEncoder().encode_line(line) == EventEncoder().encode_event(event)


def test_commit_read_write_overlap_normalizes_to_write():
    var = DataVar(Obj(7), "f")
    event = Event(Tid(1), 0, Commit(frozenset([var]), frozenset([var])))
    encoder = EventEncoder()
    op, _, _, _, _, extras = encoder.encode_event(event)
    assert extras[0] == 1  # one footprint entry, not two
    assert extras[2] == 1  # and it is a write


@pytest.mark.parametrize("seed", range(8))
def test_apply_packed_matches_the_seed_detector(seed):
    events = RandomTraceGenerator().generate(seed=seed)
    expected = LazyGoldilocks().process_all(events)

    frame, _ = frame_of(events)
    kernel = EncodedGoldilocks()
    reports, count = kernel.apply_packed(frame)
    assert count == len(events)
    assert [r for _, r in reports] == expected
    # seq tags are the packed records' seq column
    packed_seqs = [seq for seq, _ in reports]
    assert packed_seqs == sorted(packed_seqs)
    # Frame boundaries change nothing, and neither does the commit policy
    # the packed path rebuilds from footprint ids alone.
    text = "".join(format_event(event) + "\n" for event in events)
    for commit_sync in ("footprint", "atomic-order"):
        want = LazyGoldilocks(commit_sync=commit_sync).process_all(events)
        for per_frame in (1, 7):
            kernel = EncodedGoldilocks(commit_sync=commit_sync)
            got = []
            for frame in iter_packed_frames(io.StringIO(text), per_frame):
                got.extend(kernel.apply_packed(frame)[0])
            assert [r for _, r in got] == want
            if commit_sync == "footprint":
                assert got == reports


def test_apply_packed_matches_object_processing_counters():
    events = RandomTraceGenerator().generate(seed=4)
    frame, _ = frame_of(events)
    packed = EncodedGoldilocks()
    packed.apply_packed(frame)
    objected = EncodedGoldilocks()
    objected.process_all(events)
    assert packed.stats.races == objected.stats.races
    assert packed.stats.sync_events == objected.stats.sync_events
    assert packed.stats.accesses_checked == objected.stats.accesses_checked


#: well-formed lines, each kind, over few threads, objects and fields
_tids = st.integers(min_value=1, max_value=4).map(str)
_objs = st.integers(min_value=1, max_value=6).map(str)
_fields = st.sampled_from(["f", "g"])
_vars = st.tuples(_objs, _fields).map(".".join)
well_formed_lines = st.one_of(
    st.tuples(_tids, _tids, st.sampled_from(["read", "write", "vread", "vwrite"]), _objs, _fields),
    st.tuples(_tids, _tids, st.sampled_from(["acq", "rel", "alloc"]), _objs),
    st.tuples(_tids, _tids, st.sampled_from(["fork", "join"]), _tids),
    st.tuples(
        _tids,
        _tids,
        st.just("commit R"),
        st.lists(_vars, max_size=3).map(" ".join),
        st.just("W"),
        st.lists(_vars, max_size=3).map(" ".join),
    ),
).map(" ".join)


class DropOddObjects:
    """An admission filter refusing the accesses of odd objects."""

    def admit(self, obj_value, field):
        return obj_value % 2 == 0


def leftover_thread(line, interner):
    """The thread a refused line interns before it is refused: its own,
    when its index parses and its kind is known, if not interned yet."""
    parts = line.split()
    try:
        tid, _index, kind = Tid(int(parts[0])), int(parts[1]), parts[2]
    except (IndexError, ValueError):
        return []
    return [tid] if kind in KINDS and tid not in interner else []


@settings(max_examples=300, deadline=None)
@given(
    lines=st.lists(st.one_of(well_formed_lines, line_tokens.map(" ".join)), max_size=25),
    filtered=st.booleans(),
    n_shards=st.integers(min_value=1, max_value=4),
    hosted=st.one_of(st.none(), st.frozensets(st.integers(min_value=0, max_value=3))),
    seq=st.integers(min_value=0, max_value=10**6),
)
def test_a_run_encodes_as_its_lines_parsed_into_events(lines, filtered, n_shards, hosted, seq):
    """``encode_lines`` against the independent ``Event`` path: each line
    through ``parse_event`` and ``encode_event`` on a fresh encoder, records
    written as the run method's contract says, up to the first line
    ``parse_event`` refuses."""
    from repro.trace.io import parse_event

    admit = DropOddObjects() if filtered else None
    ref = EventEncoder(n_shards, admit=admit)
    want_records, want_extras = array("q"), array("q")
    data = dropped = foreign = 0
    stop = None
    for i, line in enumerate(lines):
        try:
            event = parse_event(line)
        except ValueError:
            stop = i
            break
        op, tid_id, index, a, b, extra = ref.encode_event(event)
        if op in (OP_READ, OP_WRITE):
            if a < 0:
                dropped += 1
                continue
            data += 1
            if hosted is not None and ref.var_shard[a] not in hosted:
                foreign += 1
                continue
        if extra is not None:
            a = len(want_extras)
            want_extras.extend(extra)
        want_records.extend((op, seq + i, tid_id, index, a, b))

    run = EventEncoder(n_shards, admit=admit)
    records, extras = array("q"), array("q")
    got = run.encode_lines(lines, records, extras, seq, hosted)
    taken, error = got[0], got[4]
    assert got[1:4] == (data, dropped, foreign)
    if stop is None:
        assert (taken, error) == (len(lines), None)
        leftover = []
    else:
        assert taken == stop and isinstance(error, ValueError)
        leftover = leftover_thread(lines[stop], ref.interner)
    assert records == want_records
    assert extras == want_extras
    assert run.interner.elements_since(0) == ref.interner.elements_since(0) + leftover
    assert run.cache_misses == ref.cache_misses + len(leftover)
    assert run.events_encoded == ref.events_encoded == taken
