"""Ingest throughput of the sharded streaming engine: 1 shard vs N.

The sharding claim is that hash-partitioning data accesses splits the
detection work while broadcast sync events keep every shard's verdicts
exact.  Two measurements back it:

* A deterministic **cost-model speedup**: the single-shard detector work
  divided by the busiest shard's work at N shards -- the critical path
  if the shards ran on separate cores (as the groups of a multi-node
  ``repro-cluster`` do).  This is what the suite asserts (>= 1.5x at 4
  shards on a sync-light trace); it is a cost model, not a wall-clock
  speedup, because the shards of one node share its process.
* **Wall-clock events/sec** through the engine, recorded by
  pytest-benchmark.

A "sync-light" trace is mostly data accesses: threads hammer their own
variable partitions and synchronize on a shared lock only occasionally.
Broadcast work (sync events, replayed on every shard) is the sharding
scheme's serial fraction, so the same harness also shows the Amdahl limit
on a sync-heavy trace.
"""

import random

import pytest

from repro.core import Obj, Tid
from repro.server import EngineConfig, ShardedEngine
from repro.trace import RandomTraceGenerator, TraceBuilder

SIZES = {"tiny": 300, "small": 1200, "full": 5000}


def sync_light_trace(accesses_per_thread, n_threads=8, sync_every=25, seed=42):
    """Mostly-private data accesses with occasional lock-protected sharing."""
    rng = random.Random(seed)
    tb = TraceBuilder()
    lock, main = Obj(9000), Tid(0)
    for t in range(1, n_threads + 1):
        tb.fork(main, Tid(t))
    schedule = [t for t in range(1, n_threads + 1) for _ in range(accesses_per_thread)]
    rng.shuffle(schedule)
    steps = {t: 0 for t in range(1, n_threads + 1)}
    for t in schedule:
        tid = Tid(t)
        steps[t] += 1
        if steps[t] % sync_every == 0:
            tb.acq(tid, lock)
            tb.write(tid, Obj(500), "shared")
            tb.rel(tid, lock)
        else:
            obj = Obj(1000 + t * 64 + rng.randrange(48))
            field = f"f{rng.randrange(4)}"
            if rng.random() < 0.6:
                tb.read(tid, obj, field)
            else:
                tb.write(tid, obj, field)
    return tb.build()


def run_engine(events, n_shards, batch_size=64):
    with ShardedEngine(
        EngineConfig(n_shards=n_shards, batch_size=batch_size)
    ) as engine:
        for event in events:
            engine.submit(event)
        reports = engine.barrier()
        stats = engine.stats()
    return reports, stats


def cost_model_speedup(events, n_shards):
    """serial work / critical path: the deterministic sharding speedup."""
    _, serial = run_engine(events, 1)
    _, sharded = run_engine(events, n_shards)
    critical_path = max(s.detector_work for s in sharded.shards)
    return serial.shards[0].detector_work / critical_path


@pytest.fixture(scope="module")
def trace(scale):
    return sync_light_trace(SIZES.get(scale, SIZES["tiny"]))


def test_cost_model_speedup_at_4_shards(trace):
    """The ISSUE's acceptance bar: >= 1.5x ingest throughput at 4 shards."""
    speedup = cost_model_speedup(trace, 4)
    assert speedup >= 1.5, f"4-shard cost-model speedup only {speedup:.2f}x"


def test_cost_model_speedup_grows_with_shards(trace):
    speedups = [cost_model_speedup(trace, n) for n in (2, 4, 8)]
    assert speedups == sorted(speedups), f"non-monotone scaling: {speedups}"
    assert speedups[0] > 1.0


def test_sync_heavy_trace_is_the_amdahl_limit(scale):
    """Broadcast sync is the serial fraction: a lock/volatile-heavy trace
    must shard worse than the sync-light one."""
    steps = max(40, SIZES.get(scale, SIZES["tiny"]) // 4)
    heavy = RandomTraceGenerator(
        max_threads=8, steps_per_thread=steps, p_discipline=0.9
    ).generate(seed=5)
    light = sync_light_trace(SIZES.get(scale, SIZES["tiny"]))
    assert cost_model_speedup(heavy, 4) < cost_model_speedup(light, 4)


@pytest.mark.parametrize("n_shards", [1, 4], ids=["1-shard", "4-shard"])
def test_ingest_throughput(benchmark, trace, n_shards):
    """Wall-clock events/sec through the inline engine (pytest-benchmark)."""
    benchmark.group = f"server-ingest:{len(trace)}-events"

    def ingest():
        return run_engine(trace, n_shards)

    reports, stats = benchmark(ingest)
    benchmark.extra_info["events"] = stats.events_ingested
    benchmark.extra_info["races"] = len(reports)
    benchmark.extra_info["sync_broadcast"] = stats.sync_broadcast

