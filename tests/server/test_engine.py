"""Unit tests for the sharded detection engine."""

import pytest

from repro.core import LazyGoldilocks, Obj, Tid
from repro.core.actions import DataVar
from repro.server.engine import (
    EngineConfig,
    PartitionedGoldilocks,
    ShardedEngine,
    shard_of,
)
from repro.server.protocol import format_race
from repro.trace import RandomTraceGenerator, TraceBuilder

RACY = RandomTraceGenerator(
    max_threads=6, steps_per_thread=60, p_discipline=0.3, n_objects=8, n_fields=4
).generate(seed=11)
DISCIPLINED = RandomTraceGenerator(
    max_threads=6, steps_per_thread=60, p_discipline=0.95, n_objects=8, n_fields=4
).generate(seed=1)


def offline(events):
    return LazyGoldilocks().process_all(events)


def test_shard_of_is_stable_and_in_range():
    vars_ = [DataVar(Obj(o), f"f{f}") for o in range(20) for f in range(5)]
    for n in (1, 2, 3, 8):
        shards = [shard_of(v, n) for v in vars_]
        assert all(0 <= s < n for s in shards)
        # deterministic across calls (hash() would be salted per process)
        assert shards == [shard_of(v, n) for v in vars_]
    assert len({shard_of(v, 4) for v in vars_}) == 4, "partitions should spread"


def test_partitioned_detector_ignores_foreign_variables():
    tb = TraceBuilder()
    tb.write(Tid(1), Obj(1), "data")
    tb.write(Tid(2), Obj(1), "data")  # a race on o1.data
    events = tb.build()
    var = DataVar(Obj(1), "data")
    n = 4
    owner = shard_of(var, n)
    for shard in range(n):
        detector = PartitionedGoldilocks(shard, n)
        reports = detector.process_all(events)
        if shard == owner:
            assert [r.var for r in reports] == [var]
        else:
            assert reports == []
            assert detector.stats.accesses_checked == 0


def test_partitioned_commit_checks_only_owned_footprint_vars():
    a, b = DataVar(Obj(1), "x"), DataVar(Obj(2), "y")
    n = 64  # large shard count so the two vars land apart with certainty
    assert shard_of(a, n) != shard_of(b, n)
    tb = TraceBuilder()
    tb.commit(Tid(1), writes=[a, b])
    events = tb.build()
    detector = PartitionedGoldilocks(shard_of(a, n), n)
    detector.process_all(events)
    assert detector.stats.accesses_checked == 1  # only `a`, not `b`
    assert detector.stats.sync_events == 1  # the commit itself is enqueued


@pytest.mark.parametrize("n_shards", [1, 2, 4])
def test_inline_engine_matches_offline_detector(n_shards):
    expected = offline(RACY)
    with ShardedEngine(EngineConfig(n_shards=n_shards)) as engine:
        for event in RACY:
            engine.submit(event)
        reports = [r for _, r in engine.barrier()]
    assert set(reports) == set(expected)
    assert len(reports) == len(expected)


def test_single_shard_preserves_report_order():
    expected = offline(RACY)
    with ShardedEngine(n_shards=1) as engine:
        for event in RACY:
            engine.submit(event)
        reports = [r for _, r in engine.barrier()]
    assert reports == expected


def test_inline_engine_clean_trace_reports_nothing():
    assert offline(DISCIPLINED) == []
    with ShardedEngine(n_shards=3) as engine:
        for event in DISCIPLINED:
            engine.submit(event)
        assert engine.barrier() == []


def test_report_seq_tags_point_at_the_completing_access():
    tb = TraceBuilder()
    tb.write(Tid(1), Obj(1), "data")   # seq 0
    tb.read(Tid(1), Obj(2), "other")   # seq 1 (unrelated)
    tb.write(Tid(2), Obj(1), "data")   # seq 2: completes the race
    with ShardedEngine(n_shards=2) as engine:
        for event in tb.build():
            engine.submit(event)
        [(seq, report)] = engine.barrier()
    assert seq == 2
    assert report.var == DataVar(Obj(1), "data")


def test_engine_stats_counters_and_shard_snapshots():
    with ShardedEngine(n_shards=2, batch_size=8) as engine:
        for event in RACY:
            engine.submit(event)
        reports = engine.barrier()
        stats = engine.stats()
    assert stats.events_ingested == len(RACY)
    assert stats.sync_broadcast + stats.data_routed == len(RACY)
    assert stats.races_reported == len(reports)
    assert stats.n_shards == 2 and len(stats.shards) == 2
    # every shard saw every broadcast event plus its own partition
    for shard in stats.shards:
        assert shard.events_processed >= stats.sync_broadcast
        assert 0.0 <= shard.short_circuit_rate <= 1.0
    assert sum(s.events_processed for s in stats.shards) == (
        2 * stats.sync_broadcast + stats.data_routed
    )
    assert 0.0 <= stats.short_circuit_rate <= 1.0


def test_engine_reset_restarts_the_execution():
    with ShardedEngine(n_shards=2) as engine:
        for event in RACY:
            engine.submit(event)
        first = engine.barrier()
        assert first
        engine.reset()
        for event in RACY:
            engine.submit(event)
        second = engine.barrier()
    assert {r for _, r in second} == {r for _, r in first}


def test_engine_checkpoint_blobs_resume_the_stream():
    mid = len(RACY) // 2
    expected = offline(RACY)
    with ShardedEngine(n_shards=2) as engine:
        for event in RACY[:mid]:
            engine.submit(event)
        prefix_reports = {r for _, r in engine.barrier()}
        blobs = engine.checkpoint()
    resumed = [PartitionedGoldilocks.restore(blob) for blob in blobs]
    suffix_reports = set()
    for detector in resumed:
        for event in RACY[mid:]:
            suffix_reports.update(detector.process(event))
    assert prefix_reports | suffix_reports == set(expected)


@pytest.mark.parametrize(
    "control", ["export_group", "retire_group", "checkpoint", "reset"]
)
def test_a_control_call_leaves_the_races_it_flushes_for_the_next_poll(control):
    """A control call pushes the batch still filling before it acts; the
    race that batch completes waits for the next ``poll_reports()``."""
    with ShardedEngine(n_shards=1, batch_size=64) as engine:
        engine.submit_line("1 0 write 5 f")
        engine.submit_line("2 0 write 5 f")
        if control.endswith("_group"):
            getattr(engine, control)(0)
        else:
            getattr(engine, control)()
        races = [format_race(seq, report) for seq, report in engine.poll_reports()]
    assert races == ["race 5.f write:1:0:0 write:2:0:0 seq=1"]


def test_bad_config_is_rejected():
    with pytest.raises(ValueError):
        ShardedEngine(n_shards=0)

