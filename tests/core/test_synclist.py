"""Unit tests for the synchronization-event list."""

import pytest

from repro.core import SyncEventList
from repro.core.actions import Acquire, Obj, Release, Tid


def test_tail_is_always_an_empty_cell():
    events = SyncEventList()
    assert not events.tail.filled
    cell = events.enqueue(Tid(1), Acquire(Obj(1)))
    assert cell.filled
    assert not events.tail.filled
    assert cell.next is events.tail


def test_length_and_counters():
    events = SyncEventList()
    for i in range(5):
        events.enqueue(Tid(1), Acquire(Obj(i)))
    assert len(events) == 5
    assert events.total_enqueued == 5
    assert events.total_collected == 0


def test_events_from_iterates_filled_cells_only():
    events = SyncEventList()
    first = events.enqueue(Tid(1), Acquire(Obj(1)))
    events.enqueue(Tid(1), Release(Obj(1)))
    cells = list(events.events_from(first))
    assert len(cells) == 2
    assert cells[0] is first
    assert list(events.events_from(events.tail)) == []


def test_refcounts_guard_collection():
    events = SyncEventList()
    cells = [events.enqueue(Tid(1), Acquire(Obj(i))) for i in range(4)]
    events.incref(cells[2])
    collected = events.collect_prefix()
    assert collected == 2          # cells 0 and 1 reclaimed
    assert events.head is cells[2]
    assert len(events) == 2
    # Releasing the pin lets the rest go.
    events.decref(cells[2])
    assert events.collect_prefix() == 2
    assert len(events) == 0
    assert events.head is events.tail


def test_collect_stops_at_first_pinned_cell_even_with_free_cells_behind():
    events = SyncEventList()
    cells = [events.enqueue(Tid(1), Acquire(Obj(i))) for i in range(3)]
    events.incref(cells[0])       # pin the very first cell
    assert events.collect_prefix() == 0
    assert events.head is cells[0]


def test_decref_underflow_is_an_error():
    events = SyncEventList()
    cell = events.enqueue(Tid(1), Acquire(Obj(1)))
    with pytest.raises(AssertionError):
        events.decref(cell)


def test_prefix_cells_and_cell_at():
    events = SyncEventList()
    cells = [events.enqueue(Tid(1), Acquire(Obj(i))) for i in range(5)]
    assert events.prefix_cells(3) == cells[:3]
    assert events.prefix_cells(99) == cells
    assert events.cell_at(0) is cells[0]
    assert events.cell_at(4) is cells[4]
    assert events.cell_at(5) is events.tail
    assert events.cell_at(50) is events.tail


def test_collected_cells_have_snapped_links():
    events = SyncEventList()
    first = events.enqueue(Tid(1), Acquire(Obj(1)))
    events.enqueue(Tid(1), Release(Obj(1)))
    events.collect_prefix()
    assert first.next is None, "stale pointers into collected cells must fail loudly"


# -- reference-counted GC under interleaved appenders and readers ---------------


class Reader:
    """A minimal stand-in for an ``Info`` record: a pinned position that
    periodically advances toward the tail, as the lazy detector's locksets do
    during partially-eager evaluation."""

    def __init__(self, events, start):
        self.events = events
        self.pos = start
        events.incref(start)

    def advance(self, steps):
        for _ in range(steps):
            if not self.pos.filled:
                return
            nxt = self.pos.next
            self.events.decref(self.pos)
            self.events.incref(nxt)
            self.pos = nxt


def check_invariants(events):
    # length/counters agree with an actual walk of the list
    walked = sum(1 for _ in events.events_from(events.head))
    assert walked == len(events)
    assert events.total_enqueued - events.total_collected == len(events)
    assert not events.tail.filled


def test_gc_with_interleaved_appenders_and_readers():
    import random

    rng = random.Random(7)
    events = SyncEventList()
    readers = []
    appenders = [Tid(1), Tid(2), Tid(3)]
    for step in range(600):
        op = rng.random()
        if op < 0.5 or not readers:
            tid = rng.choice(appenders)
            events.enqueue(tid, Acquire(Obj(rng.randrange(8))))
        elif op < 0.7:
            readers.append(Reader(events, events.tail))
        elif op < 0.9:
            rng.choice(readers).advance(rng.randrange(1, 5))
        else:
            reader = readers.pop(rng.randrange(len(readers)))
            events.decref(reader.pos)
        if step % 17 == 0:
            collected = events.collect_prefix()
            assert collected >= 0
            # collection never reclaims a pinned cell
            for reader in readers:
                assert reader.pos.next is not None or reader.pos is events.tail
        check_invariants(events)
    # Drop every pin: the whole list must now be collectable.
    for reader in readers:
        events.decref(reader.pos)
    events.collect_prefix()
    assert len(events) == 0
    assert events.head is events.tail
    assert events.total_collected == events.total_enqueued


def test_gc_reclaims_behind_slowest_reader_only():
    events = SyncEventList()
    cells = [events.enqueue(Tid(1), Acquire(Obj(i))) for i in range(10)]
    slow = Reader(events, cells[3])
    fast = Reader(events, cells[8])
    assert events.collect_prefix() == 3
    assert events.head is cells[3]
    # The slow reader catches up past the fast one; GC follows it.
    slow.advance(6)
    assert events.collect_prefix() == 5
    assert events.head is cells[8]
    assert cells[8].refcount == 1 and cells[9].refcount == 1
    assert slow.pos is cells[9], "the slow reader overtook the fast one"
    events.decref(slow.pos)
    events.decref(fast.pos)
    assert events.collect_prefix() == 2


def test_concurrent_appender_and_reader_threads():
    """Appender and reader threads interleave under a lock (the detector's
    usage pattern); refcounts and counters stay consistent throughout."""
    import threading

    events = SyncEventList()
    lock = threading.Lock()
    stop = threading.Event()
    errors = []

    def appender(tid):
        for i in range(300):
            with lock:
                events.enqueue(Tid(tid), Acquire(Obj(i % 8)))

    def reader():
        try:
            while not stop.is_set():
                with lock:
                    pin = events.tail
                    events.incref(pin)
                with lock:
                    events.decref(pin)
                    events.collect_prefix()
        except Exception as exc:  # pragma: no cover - diagnostic path
            errors.append(exc)

    threads = [threading.Thread(target=appender, args=(t,)) for t in (1, 2)]
    watchers = [threading.Thread(target=reader) for _ in range(2)]
    for thread in threads + watchers:
        thread.start()
    for thread in threads:
        thread.join()
    stop.set()
    for thread in watchers:
        thread.join()
    assert not errors
    assert events.total_enqueued == 600
    with lock:
        events.collect_prefix()
        check_invariants(events)


# -- flat pickling ---------------------------------------------------------------


def test_flat_pickle_round_trips_a_long_list():
    import pickle

    events = SyncEventList()
    for i in range(20_000):  # would overflow the stack if pickled recursively
        events.enqueue(Tid(1 + i % 3), Acquire(Obj(i % 50)))
    events.incref(events.head)
    restored = pickle.loads(pickle.dumps(events, pickle.HIGHEST_PROTOCOL))
    assert len(restored) == len(events)
    assert restored.total_enqueued == events.total_enqueued
    assert restored.head.refcount == 1
    assert [(c.tid, c.action) for c in restored.events_from(restored.head)] == [
        (c.tid, c.action) for c in events.events_from(events.head)
    ]
    # restored links are walkable end to end and the tail is a fresh empty cell
    assert sum(1 for _ in restored.events_from(restored.head)) == 20_000
    assert not restored.tail.filled


def test_pickle_preserves_collection_counters():
    import pickle

    events = SyncEventList()
    for i in range(6):
        events.enqueue(Tid(1), Acquire(Obj(i)))
    events.collect_prefix()
    restored = pickle.loads(pickle.dumps(events))
    assert restored.total_collected == 6
    assert restored.total_enqueued == 6
    assert len(restored) == 0


def test_a_list_started_mid_segment_indexes_and_collects_from_its_head():
    """A kernel restored from group checkpoints starts its list at their
    tail, which need not be segment-aligned: slot ``i`` of a segment still
    holds position ``index * size + i``, and the padding before the head
    is never indexed, counted or freed as events."""
    import pickle

    from repro.core.actions import OP_ACQUIRE
    from repro.core.synclist import EncodedSyncList

    events = EncodedSyncList(segment_size=8)
    events.start_at(13)
    assert (events.tail_pos, len(events)) == (13, 0)
    for i in range(20):
        events.enqueue_encoded(OP_ACQUIRE, 1, 2, 100 + i)
    assert events.at(13) == (OP_ACQUIRE, 1, 2, 100)
    assert events.key_positions(2, 0) == (list(range(13, 33)), 0)
    clone = pickle.loads(pickle.dumps(events))
    assert clone._by_key == events._by_key and len(clone) == 20
    # segments 1-3 are full and unanchored; 32 sits in the open segment 4
    assert events.collect_prefix() == 32 - 13
    assert (events.head_pos, len(events)) == (32, 1)
    assert events.key_positions(2, 0) == ([32], 0)
