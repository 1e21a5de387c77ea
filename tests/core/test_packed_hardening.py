"""Regressions for the packed-path hardening.

Five bugs, hand-built malformed/filtered frames:

1. commit footprints carrying the ``FILTERED_VAR`` sentinel used to be
   resolved as ``interner[-1]`` (silently aliasing the newest element);
   they must be skipped and counted in ``accesses_filtered``;
2. ``OP_ALLOC`` with a sentinel or stale id used to leak ``IndexError`` /
   invalidate an arbitrary object; sentinels are counted, stale and
   mistyped ids raise a typed :class:`FrameFormatError`;
3. an unknown opcode mid-frame used to kill the worker with a bare
   ``KeyError``; it must raise :class:`FrameFormatError` carrying the
   opcode, record offset, and applied count;
4. a read, write or footprint id naming a lock, thread or volatile used
   to file state under that element or raise a bare ``AttributeError``;
   it must raise :class:`FrameFormatError` too, decided once per id;
5. an interner delta from another id space used to be skipped wherever
   the kernel already held the id, so its records named the kernel's
   elements instead; the whole frame must be refused;
6. an opcode of 0 or below was enqueued as a sync event, a negative
   thread or sync id raised a bare ``ValueError`` (a negative shift), an
   id past the interner was accepted until a race named it, and an array
   of records with a partial one raised a bare unpack ``ValueError``:
   each is a typed :class:`FrameFormatError`, and nothing after it is
   applied.
"""

from array import array

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import EncodedGoldilocks, LazyGoldilocks
from repro.core.actions import Commit, DataVar, Event, Obj, Tid, Write, commit
from repro.core.encode import (
    FILTERED_VAR,
    OP_ACQUIRE,
    OP_ALLOC,
    OP_COMMIT,
    OP_READ,
    OP_RELEASE,
    OP_WRITE,
    EventEncoder,
    FrameFormatError,
    decode_frame,
    encode_frame,
)
from repro.trace import RandomTraceGenerator

KERNELS = [EncodedGoldilocks]
VAR = DataVar(Obj(1), "f")
OTHER = DataVar(Obj(2), "g")


def raw_frame(rows, extras=(), seed_events=(), encoder=None):
    """Hand-build one frame: encode ``seed_events`` for the interner delta,
    then splice in literal ``(op, seq, tid_id, index, a, b)`` rows.  Given
    the ``encoder`` of an earlier frame, the frame continues its id space."""
    encoder = encoder or EventEncoder()
    base = len(encoder.interner)  # the pinned prelude (TL) never ships
    records = array("q")
    extra_pool = array("q", extras)
    seq = 0
    for event in seed_events:
        op, tid_id, index, a, b, extra = encoder.encode_event(event)
        if extra is not None:
            a = len(extra_pool)
            extra_pool.extend(extra)
        records.extend((op, seq, tid_id, index, a, b))
        seq += 1
    for row in rows:
        records.extend(row)
    delta = encoder.interner.elements_since(base)
    return encode_frame(base, delta, records, extra_pool), encoder


def ids_for(encoder, *elements):
    return tuple(encoder.interner.intern(e) for e in elements)


@pytest.mark.parametrize("factory", KERNELS)
def test_filtered_commit_footprint_entries_are_skipped(factory):
    """Bug 1: FILTERED_VAR in a commit footprint must not resolve."""
    # Two racy writers on VAR establish candidate infos, then a commit
    # whose footprint holds one real var and one filtered sentinel.
    seed_events = [
        Event(Tid(1), 0, Write(VAR)),
        Event(Tid(2), 1, Write(VAR)),
    ]
    frame, encoder = raw_frame(rows=[], seed_events=seed_events)
    vid, tid3 = ids_for(encoder, VAR, Tid(3))
    base, _delta, records, _extras = decode_frame(frame)
    records.extend((OP_COMMIT, 2, tid3, 2, 0, 0))
    extras = array("q", [2, vid, 1, FILTERED_VAR, 1])  # n, (var_id, is_write)*
    frame = encode_frame(base, encoder.interner.elements_since(base), records, extras)

    detector = factory()
    reports, count = detector.apply_packed(frame)
    assert count == 3  # nothing raised; whole frame applied
    assert detector.stats.accesses_filtered == 1
    assert detector.stats.frame_faults == 0
    # the real entry still participates: the transactional write on VAR
    # races; the filtered entry contributed neither a gain nor a check
    assert any(
        report.var == VAR and report.second.xact for _seq, report in reports
    )


@pytest.mark.parametrize("factory", KERNELS)
def test_commit_extras_offset_out_of_range_is_a_typed_error(factory):
    seed_events = [Event(Tid(1), 0, Write(VAR))]
    frame, encoder = raw_frame(
        rows=[], seed_events=seed_events + [Event(Tid(1), 1, commit(writes=[VAR]))]
    )
    from repro.core.encode import decode_frame

    base, delta, records, extras = decode_frame(frame)
    records[10] = len(extras) + 5  # commit row's `a` column: bogus offset
    bad = encode_frame(base, delta, records, extras)
    detector = factory()
    with pytest.raises(FrameFormatError) as excinfo:
        detector.apply_packed(bad)
    assert excinfo.value.kind == OP_COMMIT
    assert excinfo.value.record == 1
    assert detector.stats.frame_faults == 1


@pytest.mark.parametrize("factory", KERNELS)
def test_alloc_sentinel_is_counted_not_resolved(factory):
    """Bug 2a: an admission-filtered alloc id must not alias interner[-1]."""
    seed_events = [Event(Tid(1), 0, Write(VAR)), Event(Tid(2), 1, Write(VAR))]
    frame, encoder = raw_frame(
        rows=[(OP_ALLOC, 2, 1, 2, FILTERED_VAR, 0)], seed_events=seed_events
    )
    detector = factory()
    _reports, count = detector.apply_packed(frame)
    assert count == 3
    assert detector.stats.accesses_filtered == 1
    assert detector.stats.frame_faults == 0
    # Nothing was invalidated: the two writes still race with a third.
    third, _ = raw_frame(
        rows=[], seed_events=[Event(Tid(3), 2, Write(VAR))], encoder=encoder
    )
    reports, _ = detector.apply_packed(third)
    assert [(r.first.tid, r.second.tid) for _seq, r in reports] == [(Tid(2), Tid(3))]


@pytest.mark.parametrize("factory", KERNELS)
def test_a_delta_from_another_id_space_refuses_the_frame(factory):
    """Bug 5: a fresh encoder's frame announces ``[T3, o5.f]`` at base 1,
    where this kernel holds ``T1`` and ``o5.f``."""
    var = DataVar(Obj(5), "f")
    first, _ = raw_frame(
        rows=[], seed_events=[Event(Tid(1), 0, Write(var)), Event(Tid(2), 1, Write(var))]
    )
    detector = factory()
    assert len(detector.apply_packed(first)[0]) == 1
    held, before = len(detector.interner), detector.stats.as_dict()
    second, _ = raw_frame(rows=[], seed_events=[Event(Tid(3), 2, Write(var))])
    with pytest.raises(FrameFormatError, match="interner diverged") as excinfo:
        detector.apply_packed(second)
    assert excinfo.value.record is None and excinfo.value.reports == []
    assert len(detector.interner) == held
    assert detector.stats.as_dict() == dict(before, frame_faults=1)


@pytest.mark.parametrize("factory", KERNELS)
def test_alloc_stale_id_raises_typed_error(factory):
    seed_events = [Event(Tid(1), 0, Write(VAR))]
    frame, encoder = raw_frame(
        rows=[(OP_ALLOC, 1, 1, 1, 10_000, 0)], seed_events=seed_events
    )
    detector = factory()
    with pytest.raises(FrameFormatError) as excinfo:
        detector.apply_packed(frame)
    assert excinfo.value.kind == OP_ALLOC
    assert "stale interner id 10000" in str(excinfo.value)
    assert detector.stats.frame_faults == 1


@pytest.mark.parametrize("factory", KERNELS)
def test_alloc_id_of_wrong_element_type_raises_typed_error(factory):
    seed_events = [Event(Tid(1), 0, Write(VAR))]
    frame, encoder = raw_frame(rows=[], seed_events=seed_events)
    (tid_id,) = ids_for(encoder, Tid(1))
    from repro.core.encode import decode_frame

    base, delta, records, extras = decode_frame(frame)
    records.extend((OP_ALLOC, 1, tid_id, 1, tid_id, 0))  # a Tid, not an Obj
    detector = factory()
    with pytest.raises(FrameFormatError) as excinfo:
        detector.apply_packed(encode_frame(base, delta, records, extras))
    assert excinfo.value.kind == OP_ALLOC
    assert "not an object proxy" in str(excinfo.value)
    assert detector.stats.frame_faults == 1


def test_unknown_opcode_mid_frame_scalar_reports_applied_count():
    """Bug 3, scalar path: the fault carries opcode, offset, applied."""
    seed_events = [Event(Tid(1), 0, Write(VAR)), Event(Tid(1), 1, Write(OTHER))]
    frame, _ = raw_frame(rows=[(99, 2, 1, 2, 0, 0)], seed_events=seed_events)
    detector = EncodedGoldilocks()
    with pytest.raises(FrameFormatError) as excinfo:
        detector.apply_packed(frame)
    assert excinfo.value.kind == 99
    assert excinfo.value.record == 2
    assert excinfo.value.applied == 2  # the two writes landed first
    assert detector.stats.accesses_checked == 2
    assert detector.stats.frame_faults == 1


GENERATOR = RandomTraceGenerator(
    max_threads=5, steps_per_thread=60, p_discipline=0.4, n_objects=4, n_fields=2
)


def filtered_frame(events, stride):
    """One frame of ``events`` with every ``stride``-th filterable id (data
    var, alloc target, commit footprint entry) replaced by the admission
    sentinel -- the shape an edge filter produces -- plus the events an
    unfiltered detector must see for the same verdicts, and the count."""
    encoder = EventEncoder()
    records = array("q")
    extras = array("q")
    kept = []
    tick = filtered = 0
    for seq, event in enumerate(events):
        op, tid_id, index, a, b, extra = encoder.encode_event(event)
        if op in (OP_READ, OP_WRITE, OP_ALLOC):
            tick += 1
            if tick % stride == 0:
                a = FILTERED_VAR
                filtered += 1
            else:
                kept.append(event)
        elif op == OP_COMMIT:
            dropped = set()
            for j in range(1, len(extra), 2):
                tick += 1
                if tick % stride == 0:
                    dropped.add(encoder.interner.resolve(extra[j]))
                    extra[j] = FILTERED_VAR
                    filtered += 1
            action = event.action
            kept.append(
                Event(event.tid, event.index,
                      Commit(action.reads - dropped, action.writes - dropped))
            )
        else:
            kept.append(event)
        if extra is not None:
            a = len(extras)
            extras.extend(extra)
        records.extend((op, seq, tid_id, index, a, b))
    frame = encode_frame(1, encoder.interner.elements_since(1), records, extras)
    return frame, kept, filtered


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**9),
       stride=st.integers(min_value=2, max_value=9))
def test_filtered_frames_match_the_trace_without_the_filtered_ids(seed, stride):
    frame, kept, filtered = filtered_frame(GENERATOR.generate(seed), stride)
    detector = EncodedGoldilocks()
    reports, _count = detector.apply_packed(frame)
    assert [r for _seq, r in reports] == LazyGoldilocks().process_all(kept)
    assert detector.stats.accesses_filtered == filtered
    assert detector.stats.frame_faults == 0


def non_variable_rows(encoder):
    """Records whose variable id names no data variable: a write of a lock,
    a read of a thread, a read of a volatile, and commit footprints naming
    a lock and a thread, each as ``(rows, extras, opcode)``."""
    from repro.core.actions import LockVar, VolatileVar

    tid, lock, volatile = ids_for(
        encoder, Tid(1), LockVar(Obj(7)), VolatileVar(Obj(8), "v")
    )
    return {
        "write-of-a-lock": ([(OP_WRITE, 1, tid, 1, lock, 0)], [], OP_WRITE),
        "read-of-a-thread": ([(OP_READ, 1, tid, 1, tid, 0)], [], OP_READ),
        "read-of-a-volatile": ([(OP_READ, 1, tid, 1, volatile, 0)], [], OP_READ),
        "footprint-lock": ([(OP_COMMIT, 1, tid, 1, 0, 0)], [1, lock, 1], OP_COMMIT),
        "footprint-thread": ([(OP_COMMIT, 1, tid, 1, 0, 0)], [1, tid, 0], OP_COMMIT),
    }


@pytest.mark.parametrize(
    "case",
    [
        "write-of-a-lock",
        "read-of-a-thread",
        "read-of-a-volatile",
        "footprint-lock",
        "footprint-thread",
    ],
)
def test_variable_ids_that_name_no_data_variable_are_typed_errors(case):
    """A read, write or footprint id naming a lock, thread or volatile used
    to file kernel state under that element (a lock) or raise a bare
    AttributeError (a thread); it is a typed fault, refused whole."""
    seed = [Event(Tid(1), 0, Write(VAR))]
    frame, encoder = raw_frame(rows=[], seed_events=seed)
    rows, extras, op = non_variable_rows(encoder)[case]
    base, _delta, records, _extras = decode_frame(frame)
    for row in rows:
        records.extend(row)
    delta = encoder.interner.elements_since(base)
    bad = encode_frame(base, delta, records, array("q", extras))
    detector = EncodedGoldilocks()
    enqueued = detector.events.total_enqueued
    for attempt in (1, 2):  # refused again, not remembered as a variable
        with pytest.raises(FrameFormatError) as excinfo:
            detector.apply_packed(bad)
        error = excinfo.value
        assert (error.kind, error.record, error.applied) == (op, 1, 1)
        assert detector.stats.frame_faults == attempt
    assert detector.events.total_enqueued == enqueued  # no commit half-applied
    assert len(detector.write_info) == 1  # only VAR's write is filed
    assert not detector.read_info


def test_a_variable_id_is_decided_once():
    """The first sight of a variable id resolves it; later records of the
    same id reuse the decision (here: its variable key)."""
    frame, encoder = raw_frame(
        rows=[],
        seed_events=[Event(Tid(1), 0, Write(VAR)), Event(Tid(2), 1, Write(VAR))],
    )
    detector = EncodedGoldilocks()
    reports, _count = detector.apply_packed(frame)
    (var_id,) = ids_for(encoder, VAR)
    assert detector._packed_vars == {var_id: 0}
    assert [report.var for _seq, report in reports] == [VAR]
    assert detector.last_write(VAR) is detector.write_info[0]


def unapplicable_rows():
    """Records the kernel cannot apply, by name, each between a write of
    ``VAR`` by T1 and a write of it by T3 that would race with it; with the
    encoder whose ids they name."""
    from repro.core.actions import LockVar

    encoder = EventEncoder()
    var, t1, t2, t3, lock = ids_for(
        encoder, VAR, Tid(1), Tid(2), Tid(3), LockVar(Obj(7))
    )
    n_ids = len(encoder.interner)
    cases = {
        "opcode-0": (0, 1, t2, 0, lock, t2),
        "negative-opcode": (-3, 1, t2, 0, lock, t2),
        "negative-sync-key": (OP_ACQUIRE, 1, t2, 0, -1, t2),
        "negative-sync-gain": (OP_RELEASE, 1, t2, 0, t2, -2),
        "sync-key-past-the-interner": (OP_ACQUIRE, 1, t2, 0, n_ids + 5, t2),
        "sync-gain-past-the-interner": (OP_RELEASE, 1, t2, 0, t2, n_ids),
        "negative-thread": (OP_WRITE, 1, -1, 0, var, 0),
        "thread-past-the-interner": (OP_WRITE, 1, n_ids, 0, var, 0),
    }
    frames = {}
    for name, row in cases.items():
        records = array(
            "q", [OP_WRITE, 0, t1, 0, var, 0, *row, OP_WRITE, 2, t3, 0, var, 0]
        )
        delta = encoder.interner.elements_since(1)
        frames[name] = (encode_frame(1, delta, records, array("q")), row[0])
    return frames


UNAPPLICABLE = unapplicable_rows()


@pytest.mark.parametrize("case", sorted(UNAPPLICABLE))
def test_a_record_the_kernel_cannot_apply_is_a_typed_error(case):
    """Bug 6: an opcode outside OP_ACQUIRE..OP_ALLOC, and a thread id or a
    simple sync record's key or gain outside the interner, are refused
    with the record's offset; the record after it is not applied."""
    frame, op = UNAPPLICABLE[case]
    detector = EncodedGoldilocks()
    with pytest.raises(FrameFormatError) as excinfo:
        detector.apply_packed(frame)
    error = excinfo.value
    assert (error.kind, error.record, error.applied) == (op, 1, 1)
    assert error.reports == []
    assert detector.stats.frame_faults == 1
    assert detector.stats.accesses_checked == 1  # only T1's write
    assert detector.events.total_enqueued == 0
    assert [info.owner_id for info in detector.write_info.values()] == [2]


def test_a_partial_record_is_refused_before_anything_is_applied():
    """Bug 6: records that are not whole 6-int records are refused whole,
    where the record loop would have applied the whole ones first."""
    encoder = EventEncoder()
    var, t1, t2 = ids_for(encoder, VAR, Tid(1), Tid(2))
    detector = EncodedGoldilocks()
    detector.interner = encoder.interner
    records = array(
        "q", [OP_WRITE, 0, t1, 0, var, 0, OP_WRITE, 1, t2, 0, var, 0, OP_WRITE, 2, t1]
    )
    with pytest.raises(FrameFormatError) as excinfo:
        detector.apply_records(records, array("q"))
    error = excinfo.value
    assert (error.record, error.applied, error.reports) == (2, 0, [])
    assert detector.stats.frame_faults == 1
    assert detector.stats.accesses_checked == 0
    assert not detector.write_info
