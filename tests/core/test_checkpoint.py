"""Detector checkpoint/restore: a restored detector continues the SAME execution.

The streaming service relies on this to restart or migrate shards
mid-stream without replaying the shared synchronization-event history, so
the contract is strict: the checkpointed-and-restored detector must produce
exactly the reports (and stats deltas) the uninterrupted instance would
have.
"""

import io
import pickle

import pytest

from repro.baselines.eraser import EraserDetector
from repro.core import (
    EagerGoldilocksRW,
    EncodedGoldilocks,
    EncodedSyncList,
    LazyGoldilocks,
    Obj,
    Tid,
)
from repro.trace import RandomTraceGenerator, TraceBuilder
from repro.trace.io import format_event, iter_packed_frames

TRACE = RandomTraceGenerator(
    max_threads=5, steps_per_thread=50, p_discipline=0.3, n_objects=6, n_fields=3
).generate(seed=9)


def split_run(detector, events, cut):
    """Process ``events[:cut]``, checkpoint/restore, process the rest."""
    reports = detector.process_all(events[:cut])
    resumed = type(detector).restore(detector.checkpoint())
    reports += resumed.process_all(events[cut:])
    return resumed, reports


@pytest.mark.parametrize("cut", [0, 1, 87, len(TRACE)])
def test_checkpoint_resume_is_transparent(cut):
    expected = LazyGoldilocks().process_all(TRACE)
    resumed, reports = split_run(LazyGoldilocks(), TRACE, cut)
    assert reports == expected
    baseline = LazyGoldilocks()
    baseline.process_all(TRACE)
    assert resumed.stats.races == baseline.stats.races
    assert resumed.stats.accesses_checked == baseline.stats.accesses_checked


def test_checkpoint_preserves_config_and_refcounts():
    detector = LazyGoldilocks(
        sc_xact=False, gc_threshold=10, trim_fraction=0.5, memoize=False
    )
    detector.process_all(TRACE[:100])
    resumed = LazyGoldilocks.restore(detector.checkpoint())
    assert resumed.gc_threshold == 10
    assert resumed.trim_fraction == 0.5
    assert resumed.memoize is False
    assert resumed.sc_xact is False
    assert len(resumed.events) == len(detector.events)
    # every Info's pos pin survived: the two lists carry identical refcounts
    original = [c.refcount for c in detector.events.events_from(detector.events.head)]
    restored = [c.refcount for c in resumed.events.events_from(resumed.events.head)]
    assert restored == original


def test_checkpoint_under_aggressive_gc_still_resumes_exactly():
    expected = LazyGoldilocks().process_all(TRACE)
    detector = LazyGoldilocks(gc_threshold=5, trim_fraction=0.5)
    reports = detector.process_all(TRACE[:150])
    resumed = LazyGoldilocks.restore(detector.checkpoint())
    reports += resumed.process_all(TRACE[150:])
    assert reports == expected


@pytest.mark.parametrize(
    "detector_cls, extra",
    [
        (LazyGoldilocks, {}),
        # the kernel frees whole segments only, so shrink them to make the
        # short trace collectible
        (EncodedGoldilocks, {"segment_size": 8}),
    ],
    ids=["seed", "kernel"],
)
def test_checkpoint_round_trips_after_collect_trimmed_the_prefix(detector_cls, extra):
    """GC must not invalidate checkpoints: a detector whose event-list

    prefix was actually reclaimed (not merely GC-configured) restores and
    finishes the trace with the uninterrupted verdicts."""
    expected = detector_cls().process_all(TRACE)
    detector = detector_cls(gc_threshold=5, trim_fraction=0.5, **extra)
    reports = detector.process_all(TRACE[:150])
    detector.collect()
    assert detector.stats.cells_collected > 0, "nothing was trimmed; weak test"
    resumed = detector_cls.restore(detector.checkpoint())
    assert len(resumed.events) == len(detector.events)
    reports += resumed.process_all(TRACE[150:])
    assert reports == expected


def test_checkpoint_mid_critical_section():
    # The held-lock stacks are part of the state: T1 is inside acq(o1) at the
    # cut, and the restored detector must still treat its write as protected.
    tb = TraceBuilder()
    tb.acq(Tid(1), Obj(1))
    events_prefix = tb.build()
    tb2 = TraceBuilder()
    tb2.write(Tid(1), Obj(2), "x")
    tb2.rel(Tid(1), Obj(1))
    tb2.acq(Tid(2), Obj(1))
    tb2.write(Tid(2), Obj(2), "x")  # same lock held: no race
    tb2.rel(Tid(2), Obj(1))
    detector = LazyGoldilocks()
    detector.process_all(events_prefix)
    resumed = LazyGoldilocks.restore(detector.checkpoint())
    assert resumed.process_all(tb2.build()) == []


def test_restore_rejects_checkpoints_of_other_detectors():
    blob = LazyGoldilocks().checkpoint()
    with pytest.raises(TypeError):
        EraserDetector.restore(blob)
    # but any Detector restores through the base class
    from repro.core.detector import Detector

    assert isinstance(Detector.restore(blob), LazyGoldilocks)


def test_eager_goldilocks_checkpoints_too():
    expected = EagerGoldilocksRW().process_all(TRACE)
    _, reports = split_run(EagerGoldilocksRW(), TRACE, len(TRACE) // 2)
    assert reports == expected


def test_checkpoint_blob_is_plain_pickle():
    detector = LazyGoldilocks()
    detector.process_all(TRACE[:40])
    clone = pickle.loads(detector.checkpoint())
    assert isinstance(clone, LazyGoldilocks)
    assert clone.stats.races == detector.stats.races


def packed_race_lines(detector, frames):
    """Apply packed frames; return the ``(seq, race line)`` transcript."""
    lines = []
    for frame in frames:
        reports, _count = detector.apply_packed(frame)
        lines.extend((seq, str(report)) for seq, report in reports)
    return lines


#: the ablation flags kernels took before every fast path always ran, as an
#: older blob stores them -- some switched off
RETIRED_FLAGS = [
    ("memo_shared", False),
    ("memoize", False),
    ("sc_alock", True),
    ("sc_epoch", False),
    ("sc_same_thread", True),
    ("sc_xact", True),
]


def checkpoint_in_an_older_layout(detector, monkeypatch, retired, index_keys=True):
    """``detector.checkpoint()`` in the layout an older kernel wrote: its
    config carries the ``retired`` ``(flag, value)`` pairs and, without
    ``index_keys``, the event list records its key index as switched off."""
    kernel_state = EncodedGoldilocks.__getstate__
    list_state = EncodedSyncList.__getstate__

    def old_kernel_state(self):
        state = kernel_state(self)
        state["config"] = sorted(state["config"] + list(retired))
        return state

    def old_list_state(self):
        return {**list_state(self), "index_keys": False}

    with monkeypatch.context() as patch:
        patch.setattr(EncodedGoldilocks, "__getstate__", old_kernel_state)
        if not index_keys:
            patch.setattr(EncodedSyncList, "__getstate__", old_list_state)
        return detector.checkpoint()


def test_checkpoint_from_before_the_indexed_replay_resumes(monkeypatch):
    """Cluster nodes exchange checkpoints, so an older blob must restore,
    rebuild the key index the replay walks, finish the stream with the
    uninterrupted race lines, and survive ``reset()``."""
    text = "\n".join(format_event(event) for event in TRACE) + "\n"
    frames = list(iter_packed_frames(io.StringIO(text), 16))
    expected = packed_race_lines(EncodedGoldilocks(), frames)
    assert expected, "a race-free trace proves nothing"
    cut = len(frames) // 2
    detector = EncodedGoldilocks()
    lines = packed_race_lines(detector, frames[:cut])
    blob = checkpoint_in_an_older_layout(
        detector, monkeypatch, [("sc_thread_restricted", True)], index_keys=False
    )
    assert b"sc_thread_restricted" in blob

    resumed = EncodedGoldilocks.restore(blob)
    assert resumed.events._by_key == detector.events._by_key
    # the re-checkpoint is the current layout, byte for byte
    assert resumed.checkpoint() == detector.checkpoint()
    assert EncodedGoldilocks.restore(resumed.checkpoint()).checkpoint() == resumed.checkpoint()
    lines += packed_race_lines(resumed, frames[cut:])
    assert lines == expected
    resumed.reset()
    assert packed_race_lines(resumed, frames) == expected


def resume_older_blob(fresh, restore, frames, monkeypatch):
    """Run ``frames`` through ``fresh()`` with a checkpoint in the layout
    that carried the retired ablation flags half way; check the restored
    detector finishes with the uninterrupted race lines, re-checkpoints to
    the current layout byte for byte and survives ``reset()``."""
    expected = packed_race_lines(fresh(), frames)
    assert expected, "a race-free stream proves nothing"
    cut = len(frames) // 2
    detector = fresh()
    lines = packed_race_lines(detector, frames[:cut])
    blob = checkpoint_in_an_older_layout(detector, monkeypatch, RETIRED_FLAGS)
    for flag, _value in RETIRED_FLAGS:
        assert flag.encode() in blob

    resumed = restore(blob)
    assert resumed.checkpoint() == detector.checkpoint()
    assert restore(resumed.checkpoint()).checkpoint() == resumed.checkpoint()
    lines += packed_race_lines(resumed, frames[cut:])
    assert lines == expected
    resumed.reset()
    assert packed_race_lines(resumed, frames) == expected
    return resumed


def test_checkpoint_with_the_retired_ablation_flags_resumes(monkeypatch):
    """A blob from when the kernel took six ablation flags restores: the
    flags only ever switched fast paths off, so a stored ``False`` changes
    no verdict."""
    text = "\n".join(format_event(event) for event in TRACE) + "\n"
    frames = list(iter_packed_frames(io.StringIO(text), 16))
    resumed = resume_older_blob(
        EncodedGoldilocks, EncodedGoldilocks.restore, frames, monkeypatch
    )
    assert sorted(resumed._config) == [
        "commit_sync",
        "gc_threshold",
        "provenance",
        "segment_size",
        "trim_fraction",
    ]


def older_group_kernel():
    """The class a group blob pickled its whole kernel under when each group
    had a kernel of its own, with its partition (group 0 of 1)."""
    from repro.server import engine as engine_mod

    def state_with_partition(self):
        return {**EncodedGoldilocks.__getstate__(self), "partition": (0, 1)}

    return type(
        "PartitionedGoldilocks",
        (EncodedGoldilocks,),
        {"__module__": engine_mod.__name__, "__getstate__": state_with_partition},
    )


def test_shard_checkpoint_with_the_retired_ablation_flags_resumes(monkeypatch):
    """A group blob from when each group had a kernel of its own -- the
    whole kernel, pickled under its old class name with its partition and
    the retired flags -- restores the way ``!adopt`` loads one, and the
    engine finishes the stream with the uninterrupted race lines."""
    from repro.server import engine as engine_mod
    from repro.server.engine import EngineConfig, ShardedEngine
    from repro.server.protocol import format_race

    lines = [format_event(event) for event in TRACE]
    with ShardedEngine(EngineConfig(n_shards=1)) as engine:
        for line in lines:
            engine.submit_line(line)
        expected = [format_race(seq, report) for seq, report in engine.barrier()]
    assert expected, "a race-free stream proves nothing"

    older = older_group_kernel()
    frames = list(iter_packed_frames(io.StringIO("\n".join(lines) + "\n"), 16))
    cut = len(frames) // 2
    detector = older()
    got = [
        format_race(seq, report)
        for frame in frames[:cut]
        for seq, report in detector.apply_packed(frame)[0]
    ]
    with monkeypatch.context() as patch:
        patch.setattr(engine_mod, older.__name__, older, raising=False)
        blob = checkpoint_in_an_older_layout(detector, patch, RETIRED_FLAGS)
    for flag, _value in RETIRED_FLAGS:
        assert flag.encode() in blob
    assert b"PartitionedGoldilocks" in blob

    with ShardedEngine(
        EngineConfig(n_shards=1), checkpoints=[blob], seq_start=cut * 16
    ) as resumed:
        for line in lines[cut * 16 :]:
            resumed.submit_line(line)
        got += [format_race(seq, report) for seq, report in resumed.barrier()]
    assert got == expected


def test_a_malformed_older_group_checkpoint_is_refused(monkeypatch):
    """An older group blob is read by advancing its infos over its own
    list; one whose list lost its infos' anchors fails that walk, and the
    blob is refused as unreadable, as any malformed blob is."""
    from repro.core.kernel import load_vars_checkpoint
    from repro.server import engine as engine_mod

    older = older_group_kernel()
    monkeypatch.setattr(engine_mod, older.__name__, older, raising=False)
    detector = older()
    for event in TRACE:
        detector.process(event)
    assert load_vars_checkpoint(detector.checkpoint())["partition"] == (0, 1)
    detector.events._refs.clear()
    with pytest.raises(ValueError, match="unreadable checkpoint"):
        load_vars_checkpoint(detector.checkpoint())
