"""Property tests: the segment-skipping walk and the one-pass advance are linear replay.

The kernel answers a lockset computation by walking the list in order
(``_skip_scan``): it skips, with one AND, each segment whose mask of
firing ids misses the lockset, and with a target it stops at the first
position where the lockset owns the target's thread.  Section 5.4's
partial evaluation advances every lockset pinned in the GC prefix in one
backward pass (``_advance_to``).  Both are checked against the plain
linear walk below -- every cell of the window, in list order -- which is
the definition of ``Apply-Lockset-Rules`` on the encoded list.

Lists mix simple-sync and commit rows over ids on both sides of
``BITSET_CUTOFF``; some begin mid-segment (``start_at``, as a kernel
restored from group checkpoints does), some have had a prefix collected,
some are restored from a pickle round trip (so their segment masks were
rebuilt), and infos crowd a few anchors, so both lockset representations
and shared anchors are hit.  Each segment mask is checked against its
rows after the enqueues, after the collection and after the restore.
Results must match in value *and* representation (int bitmask vs
frozenset): memo keys and checkpoints depend on it.
"""

import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import BITSET_CUTOFF, TL_ID, EncodedGoldilocks, Obj, Tid
from repro.core.actions import OP_ACQUIRE, OP_COMMIT, LockVar
from repro.core.kernel import KInfo
from repro.core.lockset import (
    ls_add,
    ls_has,
    ls_intersects,
    ls_make,
    ls_union,
)
from repro.trace import TraceBuilder
from tests.helpers import segment_masks_are_exact

#: element ids: ``TL`` (which owns a transactional target), a few
#: bitmask-range ids and a few that force frozensets
IDS = (TL_ID, 1, 2, 3, 4, 5, BITSET_CUTOFF - 1, BITSET_CUTOFF, BITSET_CUTOFF + 3)

ids = st.sampled_from(IDS)
locksets = st.sets(ids, min_size=1, max_size=4).map(ls_make)

#: ``(op, key, gain)`` and ``(op, committer, incoming, outgoing)``
simple_rows = st.tuples(st.just(OP_ACQUIRE), ids, ids)
commit_rows = st.tuples(st.just(OP_COMMIT), ids, locksets, locksets)
rows = st.lists(st.one_of(simple_rows, simple_rows, commit_rows), min_size=10, max_size=80)


def linear_replay(events, ls, start, end):
    """The plain linear walk: every cell of ``[start, end)``, in order."""
    for pos in range(start, end):
        op, key, gain = events.at(pos)
        if op != OP_COMMIT:
            if ls_has(ls, key):
                ls = ls_add(ls, gain)
        else:
            incoming, outgoing, committer = events.commit_table[key]
            if ls_intersects(ls, incoming):
                ls = ls_add(ls, committer)
            if ls_has(ls, committer):
                ls = ls_union(ls, outgoing)
    return ls


def same(got, want):
    """Equal value and equal representation."""
    return got == want and type(got) is type(want)


@st.composite
def scenarios(draw):
    """``(segment size, origin, rows, head, cutoff, [(anchor, lockset)], restored)``.

    The list begins at ``origin``, padded up to it when that is mid-segment.
    Cells before ``head``'s segment are collected before any check runs, so
    anchors start at the first retained position.  A ``restored`` list is
    checked as a pickle round trip brings it back.
    """
    size = draw(st.sampled_from((1, 3, 4, 16)))
    origin = draw(st.sampled_from((0, 0, 5, 18)))
    body = draw(rows)
    head = origin + draw(st.sampled_from((0, 0, len(body) // 3)))
    first = max(origin, head - head % size)
    low = max(first + 1, origin + len(body) // 2)
    cutoff = draw(st.integers(min_value=low, max_value=origin + len(body)))
    anchors = draw(st.lists(st.integers(first, cutoff - 1), min_size=1, max_size=3))
    infos = draw(
        st.lists(st.tuples(st.sampled_from(anchors), locksets), min_size=1, max_size=12)
    )
    return size, origin, body, head, cutoff, infos, draw(st.booleans())


def build(kernel_cls, size, body, head=0, origin=0, restored=False):
    detector = kernel_cls(segment_size=size, gc_threshold=None)
    events = detector.events
    if origin:
        events.start_at(origin)
    for op, *row in body:
        if op == OP_COMMIT:
            committer, incoming, outgoing = row
            index = events.add_commit_row(incoming, outgoing, committer)
            events.enqueue_encoded(OP_COMMIT, index, 0)
        else:
            events.enqueue_encoded(op, *row)
    assert segment_masks_are_exact(events)
    events.collect_prefix(head)  # frees the full segments before head's
    assert events.head_pos == max(origin, head - head % size)
    assert segment_masks_are_exact(events)
    if restored:
        detector.events = pickle.loads(pickle.dumps(events))
        assert segment_masks_are_exact(detector.events)
    return detector


def check_scan(detector, ls, start, end, target):
    """The walk with a target against the linear walk."""
    got, reached = detector._skip_scan(ls, start, end, target)
    assert start <= reached <= end
    assert same(got, linear_replay(detector.events, ls, start, reached))
    if detector._owned(got, target):
        # the exit is the first position where ownership holds
        if reached > start:
            before = linear_replay(detector.events, ls, start, reached - 1)
            assert not detector._owned(before, target)
    else:
        assert reached == end  # no exit: not owned at the end either
    return got, reached


@pytest.mark.parametrize("kernel_cls", [EncodedGoldilocks])
@settings(max_examples=150, deadline=None)
@given(scenario=scenarios())
def test_one_pass_advance_equals_forward_replay(kernel_cls, scenario):
    size, origin, body, head, cutoff, anchored, restored = scenario
    detector = build(kernel_cls, size, body, head, origin, restored)
    infos = [KInfo(1, pos, ls, None, False, None) for pos, ls in anchored]
    expected = [linear_replay(detector.events, info.ls, info.pos, cutoff) for info in infos]

    detector._advance_to(infos, cutoff)

    for info, want in zip(infos, expected):
        assert info.pos == cutoff
        assert same(info.ls, want)
    # every anchor moved: the list frees every full segment before the cutoff
    detector.events.collect_prefix(min(info.pos for info in infos))
    assert detector.events.head_pos == max(origin, cutoff - cutoff % size)
    assert detector.stats.partial_evaluations == len(infos)


@settings(max_examples=200, deadline=None)
@given(scenario=scenarios(), owner=ids, xact=st.booleans())
def test_indexed_replay_equals_linear_replay(scenario, owner, xact):
    size, origin, body, head, _cutoff, anchored, restored = scenario
    detector = build(EncodedGoldilocks, size, body, head, origin, restored)
    end = detector.events.total_enqueued
    target = KInfo(owner, end, 0, None, xact, None)
    for start, ls in anchored:
        got = detector._skip_scan(ls, start, end, None)[0]
        assert same(got, linear_replay(detector.events, ls, start, end))
        check_scan(detector, ls, start, end, target)


class TestIndexedReplayExamples:
    """Hand-built windows the random lists rarely produce."""

    O, M, N = Obj(1), Obj(2), Obj(3)
    T1, T2, T3 = Tid(1), Tid(2), Tid(3)

    def scan(self, detector, var, tid):
        info1 = detector.last_write(var)
        end = detector.events.total_enqueued
        info2 = KInfo(detector.interner.intern(tid), end, 0, None, False, None)
        got, _reached = check_scan(detector, info1.ls, info1.pos, end, info2)
        return detector._owned(got, info2)

    def test_commit_inside_the_window(self):
        tb = TraceBuilder()
        y = tb.var(self.N, "y")
        tb.write(self.T1, self.O, "x")
        tb.commit(self.T1, writes=[y])
        tb.acq(self.T3, self.M)
        tb.rel(self.T3, self.M)
        tb.commit(self.T2, reads=[y])
        tb.acq(self.T2, self.M)
        detector = EncodedGoldilocks()
        detector.process_all(tb.build())
        # T1's commit adds y, and y lets T2's commit in
        assert self.scan(detector, tb.var(self.O, "x"), self.T2)

    def test_frozenset_lockset(self):
        tb = TraceBuilder()
        tb.write(self.T1, self.O, "x")
        tb.acq(self.T1, self.M)
        tb.rel(self.T1, self.M)
        tb.acq(self.T3, self.M)  # T3 relays M's handoff to N
        tb.rel(self.T3, self.N)
        tb.acq(self.T2, self.N)
        tb.rel(self.T2, self.N)
        detector = EncodedGoldilocks()
        for i in range(BITSET_CUTOFF):  # push every real id past the cutoff
            detector.interner.intern(LockVar(Obj(10_000 + i)))
        detector.process_all(tb.build())
        var = tb.var(self.O, "x")
        assert isinstance(detector.last_write(var).ls, frozenset)
        assert self.scan(detector, var, self.T3)
        # the relay through T3 reaches T2 as well
        assert self.scan(detector, var, self.T2)
