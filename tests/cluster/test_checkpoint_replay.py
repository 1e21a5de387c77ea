"""Checkpoint -> restore -> delta-replay equivalence, no network involved.

The migration protocol's correctness rests on one local property: a
detector restored from a checkpoint and fed the remaining events must
report exactly what the uninterrupted detector reports.  Proven here at
the detector level (the kernel itself) and at the engine level (the
``checkpoints=``/``seq_start=`` restart path, which also re-primes the
edge encoder so interner ids keep their original assignments).
"""

import base64
import json
import pickle
import zlib
from pathlib import Path

import pytest

from repro.core import EncodedGoldilocks
from repro.core.kernel import load_vars_checkpoint
from repro.server.engine import EngineConfig, ShardedEngine
from repro.server.protocol import format_race
from repro.trace import RandomTraceGenerator
from tests.helpers import service_trace_text

TRACE = RandomTraceGenerator(max_threads=4, n_objects=6, steps_per_thread=40)


def split_trace(seed=11):
    events = TRACE.generate(seed=seed)
    mid = len(events) // 2
    return events, mid


def test_detector_checkpoint_restore_delta_replay():
    """The kernel alone: restore + delta == uninterrupted."""
    events, mid = split_trace()

    continuous = EncodedGoldilocks()
    interrupted = EncodedGoldilocks()
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
    version = first.interner_version()
    first.close()

    second = ShardedEngine(config, checkpoints=blobs, seq_start=mid)
    with second:
        # The blobs carry the whole pre-checkpoint interner: the restored
        # engine keeps every id the first one assigned.
        assert second.interner_version() == version
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
    """Swapped blobs would file each group's state under the other group
    and silently lose races; the restore refuses them."""
    config = EngineConfig(n_shards=2)
    with ShardedEngine(config) as engine:
        for event in TRACE.generate(seed=11):
            engine.submit(event)
        b0, b1 = engine.checkpoint()
    with pytest.raises(ValueError, match="partition 1/2, not 0/2"):
        ShardedEngine(config, checkpoints=[b1, b0])
    with ShardedEngine(config, checkpoints=[b0, b1]) as restored:
        assert restored.hosted_groups() == [0, 1]


def test_a_blob_of_another_group_count_is_refused():
    """Group 0 of 4 holds only some of group 0 of 2's variables (``crc32 %
    4 == 0`` implies ``crc32 % 2 == 0``), so restoring it as group 0 of 2
    would leave the variables of group 2 of 4 unchecked."""
    with ShardedEngine(EngineConfig(n_shards=4)) as engine:
        for event in TRACE.generate(seed=11):
            engine.submit(event)
        blobs = engine.checkpoint()
    with pytest.raises(ValueError, match="partition 0/4, not 0/2"):
        ShardedEngine(EngineConfig(n_shards=2), checkpoints=blobs[:2])
    with ShardedEngine(EngineConfig(n_shards=2, groups=())) as other:
        for event in TRACE.generate(seed=11):
            other.submit(event)
        with pytest.raises(ValueError, match="partition 0/4, not 0/2"):
            other.adopt_group(0, blobs[0])
        assert other.hosted_groups() == []


# -- group blobs without a synchronization list ------------------------------

SERVICE_LINES = service_trace_text().splitlines()


def test_a_group_blob_holds_no_sync_list_and_restores_byte_for_byte():
    config = EngineConfig(n_shards=4)
    with ShardedEngine(config) as engine:
        for line in SERVICE_LINES[:1268]:
            engine.submit_line(line)
        engine.barrier()
        blobs = engine.checkpoint()
    for group, blob in enumerate(blobs):
        assert b"EncodedSyncList" not in blob
        state = load_vars_checkpoint(blob)
        assert state["partition"] == (group, 4)
        assert sorted(state) == [
            "commit_sync", "held", "interner", "partition", "read_info", "sync_events",
            "write_info",
        ]
        assert state["sync_events"] == 90  # the trace's sync records so far
    # the kernel restarts at the blobs' tail, which is not segment-aligned
    with ShardedEngine(config, checkpoints=blobs, seq_start=1268) as restored:
        assert restored.checkpoint() == blobs
        assert restored._kernel.events.tail_pos == 90
        for line in SERVICE_LINES[1268:]:
            restored.submit_line(line)
        assert restored.barrier()


#: blobs written by the engine when each group had a kernel of its own (a
#: whole pickled kernel, synchronization list included, per group): a
#: ``ShardedEngine(EngineConfig(n_shards=4))`` of that tree fed the first
#: ``cut`` lines of the shared service trace, then ``checkpoint()``; with the
#: race lines that tree's engine reports for the whole trace
PER_GROUP_KERNELS = json.loads(
    (Path(__file__).parent / "data" / "per_group_kernel_checkpoints.json").read_text()
)


def per_group_kernel_blobs():
    return [
        zlib.decompress(base64.b64decode(blob)) for blob in PER_GROUP_KERNELS["blobs"]
    ]


def test_per_group_kernel_checkpoints_restore_with_their_race_lines():
    cut = PER_GROUP_KERNELS["cut"]
    blobs = per_group_kernel_blobs()
    assert all(b"PartitionedGoldilocks" in blob for blob in blobs)
    expected = PER_GROUP_KERNELS["race_lines"]
    config = EngineConfig(n_shards=PER_GROUP_KERNELS["n_groups"])
    with ShardedEngine(config) as plain:
        for line in SERVICE_LINES:
            plain.submit_line(line)
        assert [format_race(seq, r) for seq, r in plain.barrier()] == expected
    with ShardedEngine(config, checkpoints=blobs, seq_start=cut) as restored:
        for line in SERVICE_LINES[cut:]:
            restored.submit_line(line)
        got = [format_race(seq, r) for seq, r in restored.barrier()]
    assert got == [line for line in expected if int(line.rpartition("=")[2]) >= cut]


def test_a_per_group_kernel_checkpoint_restores_through_adopt():
    """``!adopt`` of a group blob of that tree on a service that applied
    the same prefix: the service's race lines are that tree's."""
    import io

    from repro.server.protocol import parse_response
    from repro.server.service import RaceDetectionService, ServiceConfig

    cut = PER_GROUP_KERNELS["cut"]
    encoded = base64.b64encode(per_group_kernel_blobs()[1]).decode("ascii")
    text = "\n".join(
        SERVICE_LINES[:cut] + ["!retire 1", f"!adopt 1 {encoded}"] + SERVICE_LINES[cut:]
    )
    out = io.StringIO()
    with RaceDetectionService(ServiceConfig(n_shards=4)) as service:
        service.handle_stream(io.StringIO(text + "\n"), out)
    lines = out.getvalue().splitlines()
    assert "ok adopt group=1" in lines
    races = [line for line in lines if parse_response(line)[0] == "race"]
    assert races == PER_GROUP_KERNELS["race_lines"]


def group_blob(lines, group=1):
    with ShardedEngine(EngineConfig(n_shards=4)) as engine:
        for line in lines:
            engine.submit_line(line)
        return engine.export_group(group)


def test_adopt_refuses_a_blob_from_another_point_of_the_stream():
    """The blob's infos hold at the exporter's tail only: a kernel that has
    applied another number of sync events, or holds other monitors, would
    misjudge them, so it refuses the blob and hosts nothing new."""
    prefix = SERVICE_LINES[:800]
    blob = group_blob(prefix)
    # one sync event more, then as many but with thread 2 holding the lock
    ahead = prefix + ["1 9999 acq 9000"]
    held = prefix + ["1 9999 acq 9000", "2 9999 acq 9000"]
    released = prefix + ["1 9999 acq 9000", "1 10000 rel 9000"]
    for lines, blob, problem in (
        (ahead, blob, "after 58 synchronization events, this kernel has applied 59"),
        (held, group_blob(released), "lock-hold table differs"),
    ):
        with ShardedEngine(EngineConfig(n_shards=4, groups=(0, 2, 3))) as other:
            for line in lines:
                other.submit_line(line)
            with pytest.raises(ValueError, match=problem):
                other.adopt_group(1, blob)
            assert other.hosted_groups() == [0, 2, 3]


def test_a_malformed_group_blob_is_refused_and_leaves_nothing_filed():
    """A blob can come from a client: one of the right shape whose infos
    are garbage is refused whole, and none of its infos stays filed."""
    with ShardedEngine(EngineConfig(n_shards=1)) as engine:
        for line in SERVICE_LINES[:400]:
            engine.submit_line(line)
        blob = engine.export_group(0)
        engine.retire_group(0)
        state = load_vars_checkpoint(blob)
        var = next(iter(state["write_info"]))
        state["read_info"] = {var: {"slot": "not an info"}}
        with pytest.raises(ValueError, match="malformed checkpoint"):
            engine.adopt_group(0, pickle.dumps(state))
        assert engine.hosted_groups() == []
        assert not engine._kernel.write_info and not engine._kernel.read_info
        engine.adopt_group(0, blob)
        assert engine.export_group(0) == blob
    # a kernel that has applied nothing takes a blob's position and
    # lock-hold table only once the blob's infos are filed
    var = next(iter(state["read_info"]))
    state.update(
        sync_events=state["sync_events"] + 1,
        held=[(1, [2])],
        write_info={},
        read_info={var: {"slot": "not an info"}},
    )
    with ShardedEngine(EngineConfig(n_shards=1, groups=())) as fresh:
        with pytest.raises(ValueError, match="malformed checkpoint"):
            fresh.adopt_group(0, pickle.dumps(state))
        kernel = fresh._kernel
        assert fresh.hosted_groups() == []
        assert not kernel.write_info and not kernel.read_info
        assert kernel.events.total_enqueued == 0 and not kernel.events._refs
        assert kernel._held == {}
        fresh.adopt_group(0, blob)
        assert fresh.export_group(0) == blob
