"""A cluster node is a :class:`ShardedEngine` hosting some of the groups.

A node hosts a subset of the *global* partitions and ingests coordinator
frames verbatim (sender seq, sender interner ids) through a ``keep_ids``
wire state.  These tests drive two node engines from one master encoder
-- exactly what the coordinator does over TCP -- and check the union of
their verdicts against a plain single-node run, plus the
adopt/retire/export lifecycle and the id-space safety rails.
"""

from array import array

import pytest

from repro.core.encode import EventEncoder, encode_frame
from repro.server.engine import EngineConfig, ShardedEngine, WireIngest
from repro.server.protocol import format_race
from repro.trace import RandomTraceGenerator

N_GROUPS = 4
TRACE = RandomTraceGenerator(max_threads=4, n_objects=6, steps_per_thread=40)


class FrameShipper:
    """The coordinator's framing, minus the socket: one master id space,
    per-engine interner-delta cursors, global seq."""

    def __init__(self, n_groups=N_GROUPS):
        self.encoder = EventEncoder(n_groups)
        self.seq = 0
        self.cursors = {}

    def ship(self, events, targets):
        """Encode ``events`` once, deliver to every (engine, state) pair."""
        records = array("q")
        extras = array("q")
        for event in events:
            op, tid_id, index, a, b, ex = self.encoder.encode_event(event)
            if ex is not None:
                a = len(extras)
                extras.extend(ex)
            records.extend((op, self.seq, tid_id, index, a, b))
            self.seq += 1
        for engine, state in targets:
            cursor = self.cursors.get(id(engine), 1)
            payload = encode_frame(
                cursor,
                self.encoder.interner.elements_since(cursor),
                records,
                extras,
            )
            self.cursors[id(engine)] = len(self.encoder.interner)
            engine.submit_wire_frame(payload, state)


def node_engine(groups, **kwargs):
    return ShardedEngine(
        EngineConfig(n_shards=N_GROUPS, groups=tuple(groups), **kwargs)
    )


def coordinator_state():
    return WireIngest(keep_ids=True)


def reference_lines(events):
    with ShardedEngine(EngineConfig(n_shards=N_GROUPS)) as engine:
        for event in events:
            engine.submit(event)
        return sorted(format_race(seq, r) for seq, r in engine.barrier())


def drain_lines(engine):
    return [format_race(seq, r) for seq, r in engine.barrier()]


def test_union_of_node_engines_matches_single_node():
    """Two nodes splitting the groups reproduce the single-node verdicts
    byte for byte (seq included); off-group data records are dropped."""
    events = TRACE.generate(seed=11)
    expected = reference_lines(events)
    assert expected, "trace must race for this test to mean anything"

    shipper = FrameShipper()
    a, b = node_engine([0, 1]), node_engine([2, 3])
    with a, b:
        targets = [(a, coordinator_state()), (b, coordinator_state())]
        shipper.ship(events, targets)
        lines = sorted(drain_lines(a) + drain_lines(b))
        assert lines == expected
        assert a.hosted_groups() == [0, 1] and b.hosted_groups() == [2, 3]
        # Broadcast delivery means each node saw the other's data records.
        assert a.foreign_dropped > 0 and b.foreign_dropped > 0
        assert a.interner_version() == b.interner_version() == len(
            shipper.encoder.interner
        )


def test_export_retire_adopt_moves_a_group_between_engines():
    """A checkpointed group keeps detecting seamlessly on its new host."""
    events = TRACE.generate(seed=11)
    expected = reference_lines(events)
    mid = len(events) // 2

    shipper = FrameShipper()
    a, b = node_engine([0, 1, 2]), node_engine([3])
    with a, b:
        targets = [(a, coordinator_state()), (b, coordinator_state())]
        shipper.ship(events[:mid], targets)
        lines = drain_lines(a) + drain_lines(b)

        blob = a.export_group(2)
        a.retire_group(2)
        b.adopt_group(2, blob)
        assert a.hosted_groups() == [0, 1] and b.hosted_groups() == [2, 3]

        shipper.ship(events[mid:], targets)
        lines += drain_lines(a) + drain_lines(b)
        assert sorted(lines) == expected


def test_adopt_fresh_group_starts_empty():
    engine = node_engine([])
    with engine:
        assert engine.hosted_groups() == []
        engine.adopt_group(1)
        assert engine.hosted_groups() == [1]
        engine.retire_group(1)
        assert engine.hosted_groups() == []


def test_group_lifecycle_errors():
    engine = node_engine([0])
    with engine:
        with pytest.raises(ValueError):
            engine.adopt_group(0)  # already hosted
        with pytest.raises(ValueError):
            engine.adopt_group(N_GROUPS)  # out of range
        with pytest.raises(ValueError):
            engine.retire_group(3)  # not hosted
        with pytest.raises(ValueError):
            engine.export_group(3)  # not hosted
    # A local engine is a node hosting every group: the same lifecycle.
    plain = ShardedEngine(EngineConfig(n_shards=2))
    with plain:
        with pytest.raises(ValueError, match="already hosted"):
            plain.adopt_group(0)
        plain.retire_group(0)
        assert plain.hosted_groups() == [1]


def test_hosted_groups_config_validation():
    with pytest.raises(ValueError):
        ShardedEngine(EngineConfig(n_shards=0))
    with pytest.raises(ValueError, match="already hosted"):
        ShardedEngine(EngineConfig(n_shards=4, groups=(0, 0)))
    with pytest.raises(ValueError, match="out of range"):
        ShardedEngine(EngineConfig(n_shards=4, groups=(7,)))
    with ShardedEngine(EngineConfig(n_shards=4)) as every:
        assert every.hosted_groups() == [0, 1, 2, 3]


def test_coordinator_frame_with_a_diverged_delta_ingests_nothing():
    """A delta the node would intern under other ids is refused whole:
    ``node interner diverged``, and not one record of the frame lands."""
    events = TRACE.generate(seed=11)
    shipper = FrameShipper()
    engine = node_engine(range(N_GROUPS))
    with engine:
        state = coordinator_state()
        shipper.ship(events[:50], [(engine, state)])
        ingested = engine.events_ingested
        # Records over ids the node already holds, behind a delta from a
        # sender that believes a known thread is new: it announces the
        # thread again at the next id, and the node holds it at a lower one.
        records = array("q")
        extras = array("q")
        for seq, event in enumerate(events[:10], start=shipper.seq):
            op, tid_id, index, a, b, ex = shipper.encoder.encode_event(event)
            if ex is not None:
                a = len(extras)
                extras.extend(ex)
            records.extend((op, seq, tid_id, index, a, b))
        base = len(shipper.encoder.interner)
        assert engine.interner_version() == base
        frame = encode_frame(base, [events[0].tid], records, extras)
        with pytest.raises(ValueError, match="node interner diverged"):
            engine.submit_wire_frame(frame, state)
        assert engine.events_ingested == ingested
        assert engine.interner_version() == base


def test_adopt_of_a_retired_kernel_blob_is_an_error_reply(monkeypatch):
    """A checkpoint naming a shard class this version no longer has (the
    retired batch kernel's) is refused with an ``error`` line; the node
    keeps serving and can still adopt the group fresh."""
    import base64
    import io

    from repro.core.kernel import EncodedGoldilocks
    from repro.server import engine as engine_mod
    from repro.server.service import RaceDetectionService, ServiceConfig

    retired = type(
        "PartitionedBatchGoldilocks",
        (EncodedGoldilocks,),
        {"__module__": engine_mod.__name__},
    )
    with monkeypatch.context() as patch:
        patch.setattr(engine_mod, retired.__name__, retired, raising=False)
        blob = retired().checkpoint()
    assert b"PartitionedBatchGoldilocks" in blob
    encoded = base64.b64encode(blob).decode("ascii")

    out = io.StringIO()
    service = RaceDetectionService(ServiceConfig())
    with service:
        service.handle_stream(
            io.StringIO(
                f"!cluster {N_GROUPS}\n!adopt 1 {encoded}\n!adopt 1\n!ping\n"
            ),
            out,
        )
        assert service.engine.hosted_groups() == [1]
    lines = out.getvalue().splitlines()
    assert lines[1].startswith("error adopt:")
    assert "PartitionedBatchGoldilocks" in lines[1]
    assert lines[2].startswith("ok adopt")
    assert "ok pong" in lines


class _Payload:
    """A blob that runs code when unpickled: ``os.mkdir(path)``."""

    def __init__(self, path):
        self.path = path

    def __reduce__(self):
        import os

        return os.mkdir, (self.path,)


def test_adopt_refuses_a_blob_that_runs_code_when_unpickled(tmp_path):
    """``!adopt`` blobs come from clients: loading one may name only the
    classes a shard checkpoint is made of, so the payload never runs."""
    import base64
    import io
    import pickle

    from repro.server.service import RaceDetectionService, ServiceConfig

    marker = tmp_path / "payload-ran"
    encoded = base64.b64encode(pickle.dumps(_Payload(str(marker)))).decode("ascii")
    out = io.StringIO()
    with RaceDetectionService(ServiceConfig()) as service:
        service.handle_stream(
            io.StringIO(f"!cluster {N_GROUPS}\n!adopt 0 {encoded}\n!ping\n"), out
        )
        assert service.engine.hosted_groups() == []
    lines = out.getvalue().splitlines()
    assert lines[1].startswith("error adopt:")
    assert "posix.mkdir" in lines[1] or "os.mkdir" in lines[1]
    assert "ok pong" in lines
    assert not marker.exists()


def test_adopt_refuses_another_groups_checkpoint():
    """A blob of group 0 adopted as group 1 is refused, even an empty one:
    the node routes group 1's variables to it, which the blob never held."""
    a, b = node_engine([0]), node_engine([2])
    with a, b:
        blob = a.export_group(0)
        with pytest.raises(ValueError, match="partition 0/4, not 1/4"):
            b.adopt_group(1, blob)
        assert b.hosted_groups() == [2]
        b.adopt_group(0, blob)
        assert b.hosted_groups() == [0, 2]
