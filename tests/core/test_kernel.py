"""White-box tests of the integer-encoded kernel (interner, encoded list,
fast paths, checkpointing).

Parity with the seed detectors lives in ``test_kernel_parity.py``; this
file covers the kernel's own moving parts.
"""

import pickle

import pytest

from repro.core import (
    BITSET_CUTOFF,
    TL_ID,
    EncodedGoldilocks,
    EncodedSyncList,
    Interner,
    LazyGoldilocks,
    Obj,
    Tid,
)
from repro.core.actions import OP_COMMIT, TL, DataVar, LockVar
from repro.core.lockset import (
    ls_add,
    ls_has,
    ls_ids,
    ls_intersects,
    ls_make,
    ls_pack,
    ls_union,
    ls_unpack,
)
from repro.core.report import AccessRef, RaceReport
from repro.trace import RandomTraceGenerator, TraceBuilder
from tests.helpers import segment_masks_are_exact

T1, T2, T3 = Tid(1), Tid(2), Tid(3)


# ---------------------------------------------------------------------------
# Interner
# ---------------------------------------------------------------------------


class TestInterner:
    def test_tl_is_pinned_at_id_zero(self):
        interner = Interner()
        assert interner.intern(TL) == TL_ID == 0
        assert interner.resolve(0) is TL

    def test_ids_are_dense_and_stable(self):
        interner = Interner()
        a = interner.intern(T1)
        b = interner.intern(LockVar(Obj(5)))
        assert (a, b) == (1, 2)
        assert interner.intern(T1) == a  # idempotent
        assert interner.resolve(a) == T1
        assert len(interner) == 3
        assert T1 in interner and T2 not in interner

    def test_intern_all_preserves_order(self):
        interner = Interner()
        ids = interner.intern_all([T1, T2, T1])
        assert ids == [1, 2, 1]

    def test_pickle_round_trip(self):
        interner = Interner()
        interner.intern_all([T1, LockVar(Obj(9)), T2])
        clone = pickle.loads(pickle.dumps(interner))
        assert len(clone) == len(interner)
        assert clone.intern(T2) == interner.intern(T2)
        # a new element continues the dense numbering
        assert clone.intern(T3) == len(interner)


# ---------------------------------------------------------------------------
# Encoded locksets (int bitmask below the cutoff, frozenset above)
# ---------------------------------------------------------------------------


class TestIntLockset:
    def test_small_ids_stay_int_bitmasks(self):
        ls = ls_make([1, 3])
        assert type(ls) is int
        assert ls_has(ls, 1) and ls_has(ls, 3) and not ls_has(ls, 2)
        assert ls_ids(ls) == (1, 3)

    def test_promotion_past_the_cutoff(self):
        ls = ls_add(ls_make([2]), BITSET_CUTOFF + 7)
        assert isinstance(ls, frozenset)
        assert ls_has(ls, 2) and ls_has(ls, BITSET_CUTOFF + 7)
        assert ls_ids(ls) == (2, BITSET_CUTOFF + 7)

    def test_union_and_intersects_across_representations(self):
        small = ls_make([1, 4])
        big = ls_make([4, BITSET_CUTOFF + 1])
        assert isinstance(big, frozenset)
        merged = ls_union(small, big)
        assert ls_ids(merged) == (1, 4, BITSET_CUTOFF + 1)
        assert ls_intersects(small, big)
        assert not ls_intersects(ls_make([2]), big)

    def test_pack_unpack_is_canonical(self):
        for ls in (0, ls_make([1, 3]), ls_make([2, BITSET_CUTOFF + 3])):
            packed = ls_pack(ls)
            assert ls_unpack(packed) == ls
            assert ls_pack(ls_unpack(packed)) == packed
        # frozensets pack to *sorted* tuples regardless of build order
        a = frozenset([BITSET_CUTOFF + 9, 1])
        b = frozenset([1, BITSET_CUTOFF + 9])
        assert ls_pack(a) == ls_pack(b) == (1, BITSET_CUTOFF + 9)

    def test_detector_survives_cutoff_many_elements(self):
        # Enough distinct locks/threads to spill locksets past the bitmask.
        tb = TraceBuilder()
        o = Obj(1)
        tb.write(T1, o, "data")
        for i in range(BITSET_CUTOFF + 10):
            lock = Obj(1000 + i)
            tb.acq(T1, lock)
            tb.rel(T1, lock)
        tb.acq(T2, Obj(1000))  # the first lock: T1's release hands off
        tb.write(T2, o, "data")
        tb.rel(T2, Obj(1000))
        detector = EncodedGoldilocks()
        assert detector.process_all(tb.build()) == []
        assert len(detector.interner) > BITSET_CUTOFF
        # no rung settles T2's write: the verdict came from the scan
        assert detector.stats.full_lockset_computations == 1


# ---------------------------------------------------------------------------
# EncodedSyncList
# ---------------------------------------------------------------------------


class TestEncodedSyncList:
    def test_positions_are_global_and_tail_tracks_enqueues(self):
        lst = EncodedSyncList(segment_size=4)
        assert lst.total_enqueued == 0
        for i in range(6):
            assert lst.enqueue_encoded(1, key=10 + (i % 2), gain=20 + i) == i
        assert lst.total_enqueued == 6 and len(lst) == 6
        assert lst.at(5) == (1, 11, 25)
        # each segment's mask holds the keys its rows fire on
        assert lst.segments[0].mask == 1 << 10 | 1 << 11
        assert lst.segments[1].mask == 1 << 10 | 1 << 11
        lst.enqueue_encoded(1, key=3, gain=9)
        assert lst.segments[1].mask == 1 << 3 | 1 << 10 | 1 << 11
        assert segment_masks_are_exact(lst)

    def test_collect_frees_only_full_unreferenced_segments(self):
        lst = EncodedSyncList(segment_size=4)
        for i in range(10):  # segments 0,1 full; segment 2 partial
            lst.enqueue_encoded(1, i % 2, i)
        assert lst.collect_prefix(5) == 4  # an anchor at 5 keeps segment 1
        assert lst.head_pos == 4 and len(lst) == 6
        assert sorted(lst.segments) == [1, 2] and segment_masks_are_exact(lst)
        assert lst.collect_prefix(2) == 0  # an anchor before the head frees nothing
        assert lst.collect_prefix(10) == 4  # segment 1 now goes
        assert lst.collect_prefix(10) == 0  # partial tail segment never freed
        assert lst.head_pos == 8 and lst.total_collected == 8
        assert lst.at(9) == (1, 1, 9)  # surviving positions unrenumbered

    def test_a_segment_goes_once_the_oldest_anchor_passes_it(self):
        lst = EncodedSyncList(segment_size=4)
        for i in range(4):
            lst.enqueue_encoded(1, i, i)
        assert lst.collect_prefix(0) == 0
        assert lst.collect_prefix(3) == 0  # an anchor inside the segment keeps it
        assert lst.collect_prefix(4) == 4

    def test_pickle_round_trip_is_byte_stable(self):
        lst = EncodedSyncList(segment_size=3)
        for i in range(7):
            lst.enqueue_encoded(1 + (i % 2), i, i * 2)
        lst.add_commit_row(ls_make([1, 2]), frozenset([3, BITSET_CUTOFF + 1]), 1)
        row = lst.add_commit_row(frozenset([4, BITSET_CUTOFF + 2]), ls_make([5]), 6)
        lst.enqueue_encoded(OP_COMMIT, 0, 0)
        lst.enqueue_encoded(OP_COMMIT, row, 0)
        # segment 2: row 6 fires on its key 6, each commit on its committer
        # (1, then 6) and its incoming ids ({1, 2}, then {4, cutoff + 2})
        assert lst.segments[2].mask == ls_make([1, 2, 4, 6]) | 1 << BITSET_CUTOFF + 2
        blob = pickle.dumps(lst)
        clone = pickle.loads(blob)
        assert pickle.dumps(clone) == blob
        assert clone.at(4) == lst.at(4)
        # the masks are not pickled, and restore rebuilds them
        assert b"mask" not in blob
        assert [seg.mask for seg in clone.segments.values()] == [
            seg.mask for seg in lst.segments.values()
        ]
        assert segment_masks_are_exact(clone)
        assert clone.commit_table == lst.commit_table
        # older lists also pickled per-segment reference counts and each
        # row's acting thread; restore drops both, and the list pickles in
        # the current layout again
        state = lst.__getstate__()
        older = EncodedSyncList.__new__(EncodedSyncList)
        older.__setstate__(
            {
                **state,
                "refs": [(0, 2), (2, 1)],
                "segments": [
                    (index, ops, [1] * len(ops), keys, gains)
                    for index, ops, keys, gains in state["segments"]
                ],
            }
        )
        assert pickle.dumps(older) == blob
        assert older.at(4) == lst.at(4)
        assert segment_masks_are_exact(older)


# ---------------------------------------------------------------------------
# The two fast paths beyond the paper's short circuits
# ---------------------------------------------------------------------------


def unsynced_write_write():
    tb = TraceBuilder()
    o = Obj(1)
    tb.write(T1, o, "data")
    tb.write(T2, o, "data")  # no sync in between: the epoch rung decides
    return tb.build()


class TestEpochFastPath:
    def test_epoch_decides_when_no_sync_intervened(self):
        detector = EncodedGoldilocks()
        reports = detector.process_all(unsynced_write_write())
        assert len(reports) == 1
        assert detector.stats.sc_epoch == 1
        assert detector.stats.cells_traversed == 0  # no traversal at all

    def test_epoch_does_not_fire_across_sync(self):
        tb = TraceBuilder()
        o, m = Obj(1), Obj(2)
        tb.write(T1, o, "data")
        tb.acq(T2, m)  # any sync event ends the epoch
        detector = EncodedGoldilocks()
        detector.process_all(tb.build())
        tb2 = TraceBuilder()
        tb2.write(T2, o, "data")
        detector.process_all(tb2.build())
        assert detector.stats.sc_epoch == 0


class TestSharedMemo:
    @staticmethod
    def memo_trace(fields=("x", "y")):
        """Variables anchored at the same (position, lockset), handed over
        through a lock: no rung settles the reads, and every full
        computation after the first is a memo hit."""
        tb = TraceBuilder()
        o, m = Obj(1), Obj(3)
        for field in fields:
            tb.write(T1, o, field)
        tb.acq(T1, m)
        tb.rel(T1, m)
        tb.acq(T2, m)
        for field in fields:
            tb.read(T2, o, field)
        tb.rel(T2, m)
        return tb.build()

    def test_second_identical_anchor_hits_the_memo(self):
        detector = EncodedGoldilocks()
        assert detector.process_all(self.memo_trace()) == []
        assert detector.stats.full_lockset_computations == 2
        assert detector.stats.memo_shared_hits == 1

    def test_memo_hit_saves_traversal_cells(self):
        # the hit visits no cell: two checks cost what one check costs
        one = EncodedGoldilocks()
        assert one.process_all(self.memo_trace(fields=("x",))) == []
        two = EncodedGoldilocks()
        assert two.process_all(self.memo_trace()) == []
        assert one.stats.cells_traversed > 0
        assert two.stats.cells_traversed == one.stats.cells_traversed


@pytest.mark.parametrize("detector_cls", [EncodedGoldilocks, LazyGoldilocks])
def test_a_negative_gc_threshold_is_refused(detector_cls):
    """None disables collection and 0 collects whenever a segment can go;
    a negative threshold means nothing more, so it is refused."""
    for threshold in (None, 0, 50_000):
        assert detector_cls(gc_threshold=threshold).gc_threshold == threshold
    with pytest.raises(ValueError, match="gc_threshold must be None or at least 0, got -1"):
        detector_cls(gc_threshold=-1)


# ---------------------------------------------------------------------------
# The in-order walk skips a segment where nothing can fire
# ---------------------------------------------------------------------------


def unsafe_publication(n_vars, pairs=10):
    """T1 writes ``n_vars`` variables; after each write T2 takes and drops
    its own lock ``pairs`` times; T3 then reads every variable.  Nothing
    orders a write before its read, so every read races, and its window
    holds up to ``2 * pairs * n_vars`` of T2's sync events."""
    tb = TraceBuilder()
    for child in (T1, T2, T3):
        tb.fork(Tid(0), child)
    lock = Obj(7)
    for i in range(n_vars):
        tb.write(T1, Obj(1000 + i), "f")
        for _ in range(pairs):
            tb.acq(T2, lock)
            tb.rel(T2, lock)
    for i in range(n_vars):
        tb.read(T3, Obj(1000 + i), "f")
    return tb.build()


def apply_as_records(detector, events):
    """The races of ``events`` through the encoder and ``apply_records``."""
    from repro.core.encode import EventEncoder
    from repro.trace.io import format_event, iter_records

    encoder = EventEncoder()
    detector.interner = encoder.interner
    reports = []
    for records, extras in iter_records(map(format_event, events), encoder):
        reports.extend(report for _seq, report in detector.apply_records(records, extras)[0])
    return reports


@pytest.mark.parametrize("path", ["process_all", "apply_records"])
def test_a_window_where_nothing_can_fire_walks_no_cell(path):
    """T1's write leaves the lockset {T1}, and no segment after it holds a
    rule T1 fires: the walk skips every one with one AND, so 500 windows of
    up to 10,000 sync events walk no cell (a walk without the skip would
    visit about 2.5 million), and each read still races."""
    n_vars = 500
    events = unsafe_publication(n_vars)
    detector = EncodedGoldilocks()
    if path == "process_all":
        reports = detector.process_all(events)
    else:
        reports = apply_as_records(detector, events)
    assert reports == [
        RaceReport(
            var=DataVar(Obj(1000 + i), "f"),
            first=AccessRef(T1, i, "write"),
            second=AccessRef(T3, i, "read"),
        )
        for i in range(n_vars)
    ]
    assert detector.stats.full_lockset_computations == n_vars
    assert detector.stats.cells_traversed < len(reports)


# ---------------------------------------------------------------------------
# GC at segment granularity
# ---------------------------------------------------------------------------


class TestKernelGC:
    def noisy_trace(self, safe=True):
        tb = TraceBuilder()
        o, m = Obj(1), Obj(2)
        tb.write(T1, o, "data")
        tb.acq(T1, m)
        tb.rel(T1, m)
        for i in range(300):
            lock = Obj(100 + (i % 5))
            tb.acq(T3, lock)
            tb.rel(T3, lock)
        if safe:
            tb.acq(T2, m)
            tb.write(T2, o, "data")
            tb.rel(T2, m)
        else:
            tb.write(T2, o, "data")
        return tb.build()

    def test_gc_frees_segments_and_preserves_verdicts(self):
        detector = EncodedGoldilocks(gc_threshold=40, trim_fraction=0.5, segment_size=16)
        assert detector.process_all(self.noisy_trace(safe=True)) == []
        assert detector.stats.cells_collected > 0
        assert len(detector.events) < detector.events.total_enqueued
        again = EncodedGoldilocks(gc_threshold=40, trim_fraction=0.5, segment_size=16)
        again.process_all(self.noisy_trace(safe=True))
        # the counters are deterministic: a second run repeats every one
        assert again.stats.as_dict() == detector.stats.as_dict()
        racy = EncodedGoldilocks(gc_threshold=40, trim_fraction=0.5, segment_size=16)
        assert len(racy.process_all(self.noisy_trace(safe=False))) == 1

    def test_partial_evaluation_advances_pinned_infos(self):
        detector = EncodedGoldilocks(gc_threshold=40, trim_fraction=0.25, segment_size=16)
        assert detector.process_all(self.noisy_trace()) == []
        assert detector.stats.partial_evaluations > 0

    @staticmethod
    def pipeline_trace(items, stages=3):
        """Items handed from stage thread to stage thread through locks.

        Each item's last write stays live, pinning its anchor, so keeping
        the list bounded takes partial evaluation of many infos.
        """
        tb = TraceBuilder()
        for i in range(items):
            item = Obj(1000 + i)
            for stage in range(stages):
                worker = Tid(stage + 1)
                if stage:
                    tb.acq(worker, Obj(stage))
                    tb.rel(worker, Obj(stage))
                tb.write(worker, item, "payload")
                tb.acq(worker, Obj(stage + 1))
                tb.rel(worker, Obj(stage + 1))
        return tb.build()

    def test_every_collection_frees_a_segment(self):
        # 10% of the list is less than one segment here: a cutoff inside the
        # pinned head segment would free nothing and rerun GC on every sync.
        # Below the segment size, the threshold is passed long before the
        # list holds a full segment to free.
        trace = self.pipeline_trace(700)
        want = EncodedGoldilocks(gc_threshold=None).process_all(trace)
        for gc_threshold, segment_size in ((1000, 256), (100, 256)):
            detector = EncodedGoldilocks(
                gc_threshold=gc_threshold, segment_size=segment_size
            )
            freed = []
            collect = detector.collect

            def counting_collect(collect=collect, freed=freed):
                freed.append(collect())
                return freed[-1]

            detector.collect = counting_collect
            setting = (gc_threshold, segment_size)
            assert detector.process_all(trace) == want, setting
            assert freed, f"GC never ran at {setting}; weak test"
            assert min(freed) >= segment_size, setting
            assert len(freed) <= detector.stats.sync_events // segment_size, setting
            assert len(detector.events) <= max(gc_threshold, segment_size), setting


# ---------------------------------------------------------------------------
# reset() and checkpointing
# ---------------------------------------------------------------------------

TRACE = RandomTraceGenerator(
    max_threads=5, steps_per_thread=60, p_discipline=0.4, n_objects=5, n_fields=2
).generate(seed=11)


class TestResetAndCheckpoint:
    def test_reset_preserves_construction_flags(self):
        options = dict(
            gc_threshold=99,
            trim_fraction=0.25,
            commit_sync="atomic-order",
            segment_size=32,
            provenance=True,
        )
        detector = EncodedGoldilocks(**options)
        detector.process_all(TRACE)
        detector.reset()
        assert detector.gc_threshold == 99
        assert detector.trim_fraction == 0.25
        assert detector.commit_sync == "atomic-order"
        assert detector.provenance is True
        assert detector.events.segment_size == 32
        assert detector.events.total_enqueued == 0
        assert detector.stats.races == 0
        # and the reset instance still detects correctly
        assert detector.process_all(TRACE) == EncodedGoldilocks(**options).process_all(
            TRACE
        )

    def test_checkpoint_blob_is_bit_for_bit_stable(self):
        detector = EncodedGoldilocks(segment_size=32)
        detector.process_all(TRACE[: len(TRACE) // 2])
        blob = detector.checkpoint()
        assert EncodedGoldilocks.restore(blob).checkpoint() == blob

    @pytest.mark.parametrize("cut", [0, 1, 60, len(TRACE)])
    def test_checkpoint_resume_is_transparent(self, cut):
        expected = EncodedGoldilocks().process_all(TRACE)
        detector = EncodedGoldilocks()
        reports = detector.process_all(TRACE[:cut])
        resumed = EncodedGoldilocks.restore(detector.checkpoint())
        reports += resumed.process_all(TRACE[cut:])
        assert reports == expected

    def test_checkpoint_after_gc_resumes_exactly(self):
        expected = EncodedGoldilocks().process_all(TRACE)
        detector = EncodedGoldilocks(gc_threshold=20, trim_fraction=0.5, segment_size=8)
        reports = detector.process_all(TRACE[:150])
        assert detector.stats.cells_collected > 0, "GC never ran; weak test"
        blob = detector.checkpoint()
        resumed = EncodedGoldilocks.restore(blob)
        assert resumed.checkpoint() == blob  # stable even mid-GC
        reports += resumed.process_all(TRACE[150:])
        assert reports == expected

    def test_checkpoint_keeps_the_object_keyed_layout(self):
        """Infos live under int keys, but a checkpoint files them as older
        kernels did -- under their DataVar, read infos under (Tid, xact),
        each with its AccessRef -- so blobs restore across the change."""
        detector = EncodedGoldilocks()
        detector.process_all(TRACE)
        state = detector.__getstate__()
        assert state["write_info"] and state["read_info"]
        for var, packed in state["write_info"].items():
            assert isinstance(var, DataVar)
            assert packed[-1] == AccessRef(
                detector.interner.resolve(packed[0]), packed[-1].index, "write", packed[4]
            )
        for var, per_thread in state["read_info"].items():
            assert isinstance(var, DataVar)
            for (tid, xact), packed in per_thread.items():
                assert tid == detector.interner.resolve(packed[0]) and xact is packed[4]
                assert packed[-1] == AccessRef(tid, packed[-1].index, "read", xact)


def test_the_object_path_keeps_data_variables_out_of_the_interner():
    """Data variables get variable keys of their own: ``process`` makes a
    variable a lockset element only as a commit's footprint (the
    ``footprint`` policy), never for a plain read or write."""
    tb = TraceBuilder()
    y = tb.var(Obj(2), "y")
    tb.write(T1, Obj(1), "x")
    tb.commit(T1, writes=[y])
    tb.read(T2, Obj(1), "z")
    tb.write(T2, Obj(1), "x")
    detector = EncodedGoldilocks()
    assert len(detector.process_all(tb.build())) == 1
    interned = [
        element
        for element in map(detector.interner.resolve, range(len(detector.interner)))
        if isinstance(element, DataVar)
    ]
    assert interned == [y]
    assert len(detector.write_info) == 2 and len(detector.read_info) == 1


#: a commit's footprint is a frozenset, iterated in string-hash order
FOOTPRINT_DIGEST = """
import hashlib
from repro.core import EncodedGoldilocks
from repro.trace.io import parse_event
detector = EncodedGoldilocks()
for line in (
    "1 0 fork 2",
    "1 1 commit R 5.a 5.b 6.c W 7.d 7.e 8.f",
    "2 0 commit R 5.a W 8.f",
):
    detector.process(parse_event(line))
print(hashlib.sha256(detector.checkpoint()).hexdigest())
"""


def test_checkpoint_does_not_depend_on_the_string_hash_seed():
    """``process`` interns a commit's footprint in the canonical ``(obj,
    field)`` order, as the packed path does, so two processes with
    different ``PYTHONHASHSEED``s write the same checkpoint."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import repro

    source = str(Path(repro.__file__).resolve().parents[1])
    digests = set()
    for seed in ("1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": source}
        run = subprocess.run(
            [sys.executable, "-c", FOOTPRINT_DIGEST],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        digests.add(run.stdout.strip())
    assert len(digests) == 1


def test_dropping_variables_releases_their_list_anchors():
    """A retired group's infos are deleted, as an allocation's are: the
    next collection no longer sees their anchors, and with none left it
    frees every full segment."""
    from tests.helpers import service_trace

    kernel = EncodedGoldilocks(segment_size=8, gc_threshold=None)
    kernel.process_all(service_trace())
    assert kernel.events.total_enqueued == 160
    kernel.drop_vars(lambda var: var.obj.value % 2 == 0)
    assert list(kernel._all_infos()), "the other half still anchors the list"
    kernel.drop_vars(lambda var: True)
    assert not list(kernel._all_infos()) and not kernel._by_obj
    assert not kernel.write_info and not kernel.read_info
    assert kernel.collect() == 160 and len(kernel.events) == 0
