"""White-box tests of the lazy detector's optimizations (Sections 5.1, 5.4)."""

import pytest

from repro.core import LazyGoldilocks, Obj, Tid
from repro.core.actions import DataVar
from repro.trace import TraceBuilder

T1, T2, T3 = Tid(1), Tid(2), Tid(3)


def handoff_trace(hops=1):
    """T1 initializes, then ownership hops through `hops` locks/threads."""
    tb = TraceBuilder()
    o = Obj(1)
    tb.alloc(T1, o)
    tb.write(T1, o, "data")
    for i in range(hops):
        owner, successor = Tid(i + 1), Tid(i + 2)
        lock = Obj(100 + i)
        tb.acq(owner, lock)
        tb.rel(owner, lock)
        tb.acq(successor, lock)
        tb.write(successor, o, "data")
        tb.rel(successor, lock)
    return tb.build(), DataVar(o, "data")


class TestShortCircuits:
    def test_same_thread_short_circuit_counts(self):
        tb = TraceBuilder()
        o = Obj(1)
        for _ in range(5):
            tb.write(T1, o, "data")
        detector = LazyGoldilocks()
        assert detector.process_all(tb.build()) == []
        assert detector.stats.sc_same_thread == 4
        assert detector.stats.full_lockset_computations == 0

    def test_alock_short_circuit_fires_for_lock_discipline(self):
        tb = TraceBuilder()
        o, m = Obj(1), Obj(2)
        for tid in (T1, T2, T3):
            tb.acq(tid, m)
            tb.write(tid, o, "data")
            tb.rel(tid, m)
        detector = LazyGoldilocks(sc_same_thread=False, sc_thread_restricted=False)
        assert detector.process_all(tb.build()) == []
        assert detector.stats.sc_alock == 2
        assert detector.stats.full_lockset_computations == 0

    def test_xact_short_circuit_for_transactional_pairs(self):
        tb = TraceBuilder()
        var = DataVar(Obj(1), "x")
        tb.commit(T1, writes=[var])
        tb.commit(T2, writes=[var])
        tb.commit(T3, writes=[var])
        detector = LazyGoldilocks()
        assert detector.process_all(tb.build()) == []
        assert detector.stats.sc_xact == 2
        assert detector.stats.full_lockset_computations == 0

    def test_thread_restricted_traversal_handles_direct_handoff(self):
        events, _ = handoff_trace(hops=3)
        detector = LazyGoldilocks(sc_alock=False)
        assert detector.process_all(events) == []
        assert detector.stats.sc_thread_restricted > 0

    def test_fresh_variables_count_as_cheap(self):
        tb = TraceBuilder()
        for i in range(4):
            tb.write(T1, Obj(i + 1), "x")
        detector = LazyGoldilocks()
        detector.process_all(tb.build())
        assert detector.stats.sc_fresh == 4

    def test_full_computation_needed_for_indirect_transfer(self):
        """Ownership transfer through a third thread's lock traffic forces the

        full traversal (the short circuits only see two threads)."""
        tb = TraceBuilder()
        o, m1, m2 = Obj(1), Obj(2), Obj(3)
        tb.write(T1, o, "data")
        tb.acq(T1, m1)
        tb.rel(T1, m1)
        # T2 relays ownership without ever touching o.data.
        tb.acq(T2, m1)
        tb.acq(T2, m2)
        tb.rel(T2, m1)
        tb.rel(T2, m2)
        tb.acq(T3, m2)
        tb.write(T3, o, "data")
        tb.rel(T3, m2)
        detector = LazyGoldilocks(sc_alock=False)
        assert detector.process_all(tb.build()) == []
        assert detector.stats.full_lockset_computations >= 1


class TestMemoization:
    def test_memoized_repeat_checks_do_not_retraverse(self):
        """Many reads against the same write: the write's lockset advances

        once and later checks start from the advanced position."""
        tb = TraceBuilder()
        o, m = Obj(1), Obj(2)
        tb.acq(T1, m)
        tb.write(T1, o, "data")
        tb.rel(T1, m)
        # Heavy unrelated synchronization traffic.
        for i in range(50):
            tb.acq(T2, Obj(100 + i))
            tb.rel(T2, Obj(100 + i))
        tb.acq(T2, m)
        # Many reads by T2: only the first pays the traversal.
        for _ in range(10):
            tb.read(T2, o, "data")
        tb.rel(T2, m)
        events = tb.build()

        memo = LazyGoldilocks(
            sc_alock=False, sc_thread_restricted=False, memoize=True
        )
        assert memo.process_all(events) == []
        lazy = LazyGoldilocks(
            sc_alock=False, sc_thread_restricted=False, memoize=False
        )
        assert lazy.process_all(events) == []
        assert memo.stats.cells_traversed < lazy.stats.cells_traversed


class TestEventListGC:
    def test_gc_triggers_automatically_past_threshold(self):
        tb = TraceBuilder()
        o = Obj(1)
        tb.write(T1, o, "data")
        for i in range(300):
            lock = Obj(10 + (i % 7))
            tb.acq(T1, lock)
            tb.rel(T1, lock)
        tb.write(T1, o, "data")
        detector = LazyGoldilocks(gc_threshold=50)
        assert detector.process_all(tb.build()) == []
        assert detector.stats.cells_collected > 0
        assert len(detector.events) <= 120

    def test_partially_eager_evaluation_advances_pinned_locksets(self):
        """A long-lived variable accessed early pins the list head; the 5.4

        partial evaluation must advance it so the prefix can be freed."""
        tb = TraceBuilder()
        early, busy = Obj(1), Obj(2)
        tb.write(T1, early, "data")   # pins the (empty) head region
        for i in range(200):
            lock = Obj(100 + (i % 5))
            tb.acq(T2, lock)
            tb.rel(T2, lock)
        detector = LazyGoldilocks(gc_threshold=40, trim_fraction=0.25)
        assert detector.process_all(tb.build()) == []
        assert detector.stats.partial_evaluations > 0
        assert detector.stats.cells_collected > 0
        # The early variable's info must have been re-pointed down the list.
        info = detector.write_info[DataVar(early, "data")]
        assert info.pos.seq > 1

    def test_partially_eager_gc_works_without_memoization(self):
        """memoize=False leaves full traversals in place, but Section 5.4's
        partial evaluation must still advance pinned locksets so the prefix
        can be reclaimed -- with identical verdicts."""
        tb = TraceBuilder()
        early = Obj(1)
        tb.write(T1, early, "data")   # pins the head region
        for i in range(200):
            lock = Obj(100 + (i % 5))
            tb.acq(T2, lock)
            tb.rel(T2, lock)
        tb.write(T1, early, "data")
        events = tb.build()
        detector = LazyGoldilocks(memoize=False, gc_threshold=40, trim_fraction=0.25)
        assert detector.process_all(events) == []
        assert detector.stats.partial_evaluations > 0
        assert detector.stats.cells_collected > 0
        baseline = LazyGoldilocks(memoize=False, gc_threshold=None)
        assert baseline.process_all(events) == []
        assert len(detector.events) < len(baseline.events)

    def test_gc_preserves_detection_after_collection(self):
        """A race discovered *after* heavy collection is still caught, and

        the advanced lockset is still correct (no false alarm on the safe
        variant)."""
        def build(safe):
            tb = TraceBuilder()
            o, m = Obj(1), Obj(2)
            tb.write(T1, o, "data")
            tb.acq(T1, m)
            tb.rel(T1, m)
            for i in range(150):
                lock = Obj(100 + (i % 3))
                tb.acq(T3, lock)
                tb.rel(T3, lock)
            if safe:
                tb.acq(T2, m)
                tb.write(T2, o, "data")
                tb.rel(T2, m)
            else:
                tb.write(T2, o, "data")
            return tb.build()

        safe_detector = LazyGoldilocks(gc_threshold=30)
        assert safe_detector.process_all(build(safe=True)) == []
        racy_detector = LazyGoldilocks(gc_threshold=30)
        reports = racy_detector.process_all(build(safe=False))
        assert len(reports) == 1


class TestSuppression:
    def test_suppressed_access_leaves_state_untouched(self):
        tb = TraceBuilder()
        o = Obj(1)
        tb.write(T1, o, "data")
        events = tb.build()
        detector = LazyGoldilocks()
        detector.suppress_racy_updates = True
        detector.process_all(events)
        var = DataVar(o, "data")
        before = detector.write_info[var]
        # A racy write arrives and is suppressed...
        from repro.core.actions import Event, Write

        reports = detector.process(Event(T2, 0, Write(var)))
        assert len(reports) == 1
        assert detector.write_info[var] is before, "suppressed write replaced state"
        # ... so the original owner's next access is still race-free.
        assert detector.process(Event(T1, 1, Write(var))) == []


def test_memoized_lazy_traversal_is_linear_in_trace_length():
    """Doubling the ownership-transfer chain should roughly double (not

    quadruple) the cells traversed -- the memoization guarantee."""
    from repro.core import Obj, Tid
    from repro.trace import TraceBuilder

    def chain(n):
        tb = TraceBuilder()
        o = Obj(1)
        tb.alloc(Tid(1), o)
        tb.write(Tid(1), o, "data")
        for i in range(n):
            owner, successor, lock = Tid(i + 1), Tid(i + 2), Obj(100 + i)
            tb.acq(owner, lock)
            tb.rel(owner, lock)
            tb.acq(successor, lock)
            tb.write(successor, o, "data")
            tb.rel(successor, lock)
        return tb.build()

    def cells_for(n):
        detector = LazyGoldilocks(sc_alock=False, sc_thread_restricted=False)
        assert detector.process_all(chain(n)) == []
        return detector.stats.cells_traversed

    small, large = cells_for(100), cells_for(200)
    assert large < 2.6 * small, (
        f"traversal grew superlinearly: {small} -> {large}"
    )
