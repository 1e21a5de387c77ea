"""Checkpoint -> restore -> delta-replay equivalence, no network involved.

The migration protocol's correctness rests on one local property: a
detector restored from a checkpoint and fed the remaining events must
report exactly what the uninterrupted detector reports.  Proven here at
the detector level (the kernel itself) and at the engine level (the
``checkpoints=``/``seq_start=`` restart path, which also re-primes the
edge encoder so interner ids keep their original assignments).
"""

import pickle

import pytest

from repro.server.engine import EngineConfig, PartitionedGoldilocks, ShardedEngine
from repro.server.protocol import format_race
from repro.trace import RandomTraceGenerator

TRACE = RandomTraceGenerator(max_threads=4, n_objects=6, steps_per_thread=40)


def split_trace(seed=11):
    events = TRACE.generate(seed=seed)
    mid = len(events) // 2
    return events, mid


def test_detector_checkpoint_restore_delta_replay():
    """Single shard, pure kernel: restore + delta == uninterrupted."""
    events, mid = split_trace()

    continuous = PartitionedGoldilocks(0, 1)
    interrupted = PartitionedGoldilocks(0, 1)
    for event in events[:mid]:
        assert continuous.process(event) == interrupted.process(event)

    restored = pickle.loads(interrupted.checkpoint())
    tail_continuous = []
    tail_restored = []
    for event in events[mid:]:
        tail_continuous.extend(continuous.process(event))
        tail_restored.extend(restored.process(event))
    assert tail_restored == tail_continuous
    assert tail_continuous, "the delta must contain races for this to bite"


def test_engine_restart_from_checkpoints():
    """Engine restart: the second half replayed into a restored engine
    yields the same remaining races, with the original seq numbering."""
    events, mid = split_trace()
    config = EngineConfig(n_shards=4)

    with ShardedEngine(config) as continuous:
        for event in events:
            continuous.submit(event)
        expected = sorted(
            format_race(seq, r) for seq, r in continuous.barrier()
        )

    first = ShardedEngine(config)
    for event in events[:mid]:
        first.submit(event)
    lines = [format_race(seq, r) for seq, r in first.barrier()]
    blobs = first.checkpoint()
    first.close()

    second = ShardedEngine(config, checkpoints=blobs, seq_start=mid)
    with second:
        # Restored shards hold the full pre-checkpoint interner, so their
        # first delta must be empty, not a wasteful full re-send.
        assert second._cursors == [len(second._encoder.interner)] * 4
        for event in events[mid:]:
            second.submit(event)
        lines += [format_race(seq, r) for seq, r in second.barrier()]
    assert sorted(lines) == expected


def test_engine_restore_validates_blob_count():
    config = EngineConfig(n_shards=4)
    with ShardedEngine(config) as engine:
        engine.submit(TRACE.generate(seed=3)[0])
        blobs = engine.checkpoint()
    with pytest.raises(ValueError):
        ShardedEngine(EngineConfig(n_shards=2), checkpoints=blobs)
    with pytest.raises(ValueError, match="3 checkpoint blobs for 4 groups"):
        ShardedEngine(config, checkpoints=blobs[:3])
    # One blob per hosted group: a subset of the groups restores through
    # the same per-group path as !adopt.
    with ShardedEngine(
        EngineConfig(n_shards=4, groups=(0,)), checkpoints=blobs[:1]
    ) as subset:
        assert subset.hosted_groups() == [0]


def test_engine_restore_rejects_blobs_in_the_wrong_slots():
    """Swapped blobs would put each shard's state behind the other's
    partition and silently lose races; the restore refuses them."""
    config = EngineConfig(n_shards=2)
    with ShardedEngine(config) as engine:
        for event in TRACE.generate(seed=11):
            engine.submit(event)
        b0, b1 = engine.checkpoint()
    with pytest.raises(ValueError, match="partition 1/2, not 0/2"):
        ShardedEngine(config, checkpoints=[b1, b0])
    with ShardedEngine(config, checkpoints=[b0, b1]) as restored:
        assert restored.hosted_groups() == [0, 1]
