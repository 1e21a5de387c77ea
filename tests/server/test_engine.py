"""Unit tests for the sharded detection engine."""

import pytest

from repro.core import LazyGoldilocks, Obj, Tid
from repro.core.actions import DataVar
from repro.server.engine import EngineConfig, ShardedEngine, shard_of
from repro.server.protocol import format_race
from repro.trace import RandomTraceGenerator, TraceBuilder
from tests.helpers import service_trace_text

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


def test_a_group_engine_ignores_foreign_variables():
    tb = TraceBuilder()
    tb.write(Tid(1), Obj(1), "data")
    tb.write(Tid(2), Obj(1), "data")  # a race on o1.data
    events = tb.build()
    var = DataVar(Obj(1), "data")
    n = 4
    owner = shard_of(var, n)
    for group in range(n):
        with ShardedEngine(EngineConfig(n_shards=n, groups=(group,))) as engine:
            for event in events:
                engine.submit(event)
            reports = [r for _, r in engine.barrier()]
            detector = engine.stats().shards[0].detector
        if group == owner:
            assert [r.var for r in reports] == [var]
        else:
            assert reports == []
            assert detector["accesses_checked"] == 0
            assert engine.foreign_dropped == 2


def test_a_commit_checks_only_hosted_footprint_vars():
    a, b = DataVar(Obj(1), "x"), DataVar(Obj(2), "y")
    n = 64  # large group count so the two vars land apart with certainty
    assert shard_of(a, n) != shard_of(b, n)
    tb = TraceBuilder()
    tb.commit(Tid(1), writes=[a, b])
    config = EngineConfig(n_shards=n, groups=(shard_of(a, n),))
    with ShardedEngine(config) as engine:
        for event in tb.build():
            engine.submit(event)
        engine.barrier()
        detector = engine.stats().shards[0].detector
    assert detector["accesses_checked"] == 1  # only `a`, not `b`
    assert detector["sync_events"] == 1  # the commit itself is enqueued


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
    # two groups, one kernel: every record is applied once
    assert stats.n_shards == 2 and len(stats.shards) == 1
    [kernel] = stats.shards
    assert kernel.events_processed == len(RACY)
    assert kernel.races == len(reports)
    assert 0.0 <= kernel.short_circuit_rate <= 1.0
    # each data access once, plus the commit footprints
    assert kernel.detector["accesses_checked"] >= stats.data_routed
    assert kernel.detector["sync_events"] <= stats.sync_broadcast
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
    with ShardedEngine(n_shards=2, checkpoints=blobs, seq_start=mid) as resumed:
        for event in RACY[mid:]:
            resumed.submit(event)
        suffix_reports = {r for _, r in resumed.barrier()}
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



# -- one kernel per process -------------------------------------------------

SERVICE_LINES = service_trace_text().splitlines()


@pytest.mark.parametrize("n_shards", [1, 2, 4])
def test_every_sync_record_is_applied_once_whatever_the_group_count(n_shards):
    """The shared service trace has 160 sync records: the process's one
    kernel applies each once, so summing ``shards[].detector`` gives the
    kernel's counters once at any group count."""
    with ShardedEngine(EngineConfig(n_shards=n_shards)) as engine:
        for line in SERVICE_LINES:
            engine.submit_line(line)
        assert len(engine.barrier()) == 42
        stats = engine.stats()
    assert sum(s.detector["sync_events"] for s in stats.shards) == 160
    assert sum(s.events_processed for s in stats.shards) == len(SERVICE_LINES)


COUNTERS = (
    "events_ingested",
    "sync_broadcast",
    "data_routed",
    "data_admitted",
    "data_filtered",
    "batches_flushed",
    "races_reported",
    "queue_bytes",
    "edge_allocs",
    "spans_sampled",
    "flightrec_dumps",
    "provenance_attached",
)


def counters(stats):
    """Every counter of a snapshot, the kernel's included, by name."""
    out = {name: getattr(stats, name) for name in COUNTERS}
    for shard in stats.shards:
        out[f"shard{shard.shard}.events_processed"] = shard.events_processed
        out[f"shard{shard.shard}.races"] = shard.races
        out[f"shard{shard.shard}.detector_work"] = shard.detector_work
        for key, value in shard.detector.items():
            out[f"shard{shard.shard}.{key}"] = value
    return out


def assert_never_decreases(snapshots):
    for step, (before, after) in enumerate(zip(snapshots, snapshots[1:])):
        fell = {k: (v, after[k]) for k, v in before.items() if after.get(k, v) < v}
        assert not fell, f"step {step}: {fell}"


def test_no_counter_goes_backwards_across_retire_adopt_and_reset():
    with ShardedEngine(EngineConfig(n_shards=4)) as engine:
        for line in SERVICE_LINES:
            engine.submit_line(line)
        engine.barrier()
        snapshots = [counters(engine.stats())]
        assert snapshots[0]["races_reported"] == 42
        blob = engine.export_group(3)
        engine.retire_group(3)
        snapshots.append(counters(engine.stats()))
        engine.adopt_group(3, blob)
        snapshots.append(counters(engine.stats()))
        engine.reset()
        snapshots.append(counters(engine.stats()))
        for line in SERVICE_LINES:
            engine.submit_line(line)
        assert len(engine.barrier()) == 42
        snapshots.append(counters(engine.stats()))
    assert_never_decreases(snapshots)
    assert snapshots[-1]["races_reported"] == 84


def test_an_adopting_engine_counts_only_the_races_it_finds():
    """A process counts what it did: the blob brings a group's state, not
    the exporter's counters."""
    cut = 1268
    source = ShardedEngine(EngineConfig(n_shards=4))
    target = ShardedEngine(EngineConfig(n_shards=4, groups=()))
    with source, target:
        for line in SERVICE_LINES[:cut]:
            source.submit_line(line)
            target.submit_line(line)
        before = source.barrier()
        assert target.barrier() == []
        blob = source.export_group(3)
        source.retire_group(3)
        target.adopt_group(3, blob)
        assert target.stats().races_reported == 0
        for line in SERVICE_LINES[cut:]:
            source.submit_line(line)
            target.submit_line(line)
        after = source.barrier() + target.barrier()
        found = target.stats().races_reported
        assert found == sum(1 for seq, _r in after if shard_of(_r.var, 4) == 3)
        assert found > 0, "group 3 must race after the cut for this to bite"
        assert source.stats().races_reported + found == len(before) + len(after) == 42
