"""Property tests: one-pass partially-eager advancement equals per-info replay.

Section 5.4's partial evaluation advances every lockset pinned in the GC
prefix to the cutoff.  The kernels do it in one backward pass over the
prefix (``_advance_to``); the reference is the forward ``_replay`` of each
info on its own -- the linear scan for :class:`EncodedGoldilocks`, the
per-key skip-scan for :class:`BatchGoldilocks`.  Lists mix simple-sync and
commit rows over ids on both sides of ``BITSET_CUTOFF``, and infos crowd a
few anchors, so both lockset representations and shared anchors are hit.
The advanced lockset must match in value *and* representation (int
bitmask vs frozenset): memo keys and checkpoints depend on it.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import BatchGoldilocks, EncodedGoldilocks
from repro.core.actions import OP_ACQUIRE, OP_COMMIT
from repro.core.kernel import KInfo
from repro.core.lockset import BITSET_CUTOFF, ls_make

#: element ids: a few bitmask-range ids and a few that force frozensets
IDS = (1, 2, 3, 4, 5, BITSET_CUTOFF - 1, BITSET_CUTOFF, BITSET_CUTOFF + 3)

ids = st.sampled_from(IDS)
locksets = st.sets(ids, min_size=1, max_size=4).map(ls_make)

simple_rows = st.tuples(st.just(OP_ACQUIRE), ids, ids, ids)
commit_rows = st.tuples(st.just(OP_COMMIT), ids, locksets, locksets)
rows = st.lists(st.one_of(simple_rows, simple_rows, commit_rows), min_size=10, max_size=80)


@st.composite
def scenarios(draw):
    """``(segment size, rows, cutoff, [(anchor, lockset)])``."""
    body = draw(rows)
    cutoff = draw(st.integers(min_value=len(body) // 2, max_value=len(body)))
    anchors = draw(st.lists(st.integers(0, cutoff - 1), min_size=1, max_size=3))
    infos = draw(
        st.lists(st.tuples(st.sampled_from(anchors), locksets), min_size=1, max_size=12)
    )
    size = draw(st.sampled_from((1, 3, 4, 16)))
    return size, body, cutoff, infos


def build(kernel_cls, size, body):
    detector = kernel_cls(segment_size=size, gc_threshold=None)
    events = detector.events
    for op, tid_id, a, b in body:
        if op == OP_COMMIT:
            row = events.add_commit_row(a, b, tid_id)
            events.enqueue_encoded(OP_COMMIT, tid_id, row, 0)
        else:
            events.enqueue_encoded(op, tid_id, a, b)
    return detector


@pytest.mark.parametrize("kernel_cls", [EncodedGoldilocks, BatchGoldilocks])
@settings(max_examples=150, deadline=None)
@given(scenario=scenarios())
def test_one_pass_advance_equals_forward_replay(kernel_cls, scenario):
    size, body, cutoff, anchored = scenario
    detector = build(kernel_cls, size, body)
    infos = []
    for pos, ls in anchored:
        infos.append(KInfo(1, pos, ls, None, False, None))
        detector.events.incref(pos)
    expected = [detector._replay(info.ls, info.pos, cutoff) for info in infos]

    detector._advance_to(infos, cutoff)

    for info, want in zip(infos, expected):
        assert info.pos == cutoff
        assert info.ls == want
        assert type(info.ls) is type(want)
    # every anchor moved: the prefix holds no reference any more
    assert detector.events._refs == {cutoff // size: len(infos)}
    assert detector.stats.partial_evaluations == len(infos)
