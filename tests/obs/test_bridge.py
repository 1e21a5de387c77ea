"""stats -> registry bridging, and the naming contract CI enforces."""

import pytest

from repro.core import EagerGoldilocks, Obj, Tid
from repro.core.stats import SC_RUNGS
from repro.obs.bridge import REQUIRED_METRICS, registry_from_stats
from repro.obs.registry import _NAME_RE, MetricsRegistry, parse_exposition
from repro.obs.tracing import LifecycleTracer, ObsConfig
from repro.server.stats import ServiceStats, ShardStats
from repro.trace import TraceBuilder


def _stats_with_traffic():
    """A snapshot with two busy shards carrying real detector dicts."""
    detector = EagerGoldilocks()
    events = (
        TraceBuilder()
        .write(Tid(1), Obj(1), "data")
        .write(Tid(2), Obj(1), "data")
        .build()
    )
    detector.process_all(events)
    det = detector.stats.as_dict()
    return ServiceStats(
        uptime_sec=2.0,
        events_ingested=100,
        events_per_sec=50.0,
        races_reported=1,
        n_shards=2,
        shards=[
            ShardStats(shard=0, events_processed=60, detector=dict(det)),
            ShardStats(shard=1, events_processed=40, detector=dict(det)),
        ],
    )


def test_required_metrics_appear_in_a_rendered_scrape():
    stats = _stats_with_traffic()
    tracer = LifecycleTracer(ObsConfig())
    tracer.observe_elapsed("apply", 0.001)
    text = registry_from_stats(stats, tracer=tracer).render()
    samples = parse_exposition(text)
    for name in REQUIRED_METRICS:
        assert name in samples, name


def test_family_names_are_unique_and_snake_case():
    """The invariant the CI smoke job asserts: one name space, snake_case."""
    registry = registry_from_stats(_stats_with_traffic(), tracer=LifecycleTracer())
    names = registry.names()
    assert len(names) == len(set(names))
    for name in names:
        assert _NAME_RE.match(name), name


def test_shard_metrics_are_labeled_per_shard():
    samples = parse_exposition(registry_from_stats(_stats_with_traffic()).render())
    by_shard = {
        labels["shard"]: value
        for labels, value in samples["repro_shard_events_processed_total"]
    }
    assert by_shard == {"0": 60.0, "1": 40.0}


def test_kernel_rung_family_matches_the_detector_dicts():
    stats = _stats_with_traffic()
    samples = parse_exposition(registry_from_stats(stats).render())
    rungs = {
        labels["rung"]: value
        for labels, value in samples["repro_kernel_hb_queries_total"]
    }
    assert set(rungs) == set(SC_RUNGS) | {"full"}
    for rung in SC_RUNGS:
        expected = sum(s.detector.get(rung, 0) for s in stats.shards)
        assert rungs[rung] == expected, rung


def test_counters_are_set_not_incremented_across_scrapes():
    """Scrape semantics: re-bridging the same snapshot is idempotent."""
    stats = _stats_with_traffic()
    registry = registry_from_stats(stats)
    registry_from_stats(stats, registry=registry)
    samples = parse_exposition(registry.render())
    assert samples["repro_ingest_events_total"] == [({}, 100.0)]


def test_merging_a_colliding_tracer_family_raises():
    registry = MetricsRegistry()
    registry.counter("stage_events_total", "imposter", labels=("stage",))
    with pytest.raises(ValueError):
        registry_from_stats(
            ServiceStats(), tracer=LifecycleTracer(), registry=registry
        )


def test_idle_service_bridges_cleanly():
    samples = parse_exposition(registry_from_stats(ServiceStats()).render())
    assert samples["repro_short_circuit_rate"] == [({}, 1.0)]
    assert samples["repro_races_reported_total"] == [({}, 0.0)]


def test_the_synclist_gauge_reads_the_kernels_retained_list():
    """A stream with more sync events than one list segment, under a GC
    threshold below that count: ``repro_kernel_synclist_live`` and
    ``!stats``' ``synclist_live`` read the events the kernel's list still
    holds, below the sync events it applied."""
    import io

    from repro.server.service import RaceDetectionService, ServiceConfig

    lines = ["2 0 write 5 f"]
    for i in range(300):
        lines += [f"1 {2 * i} acq 10", f"1 {2 * i + 1} rel 10"]
    lines += ["2 1 write 5 f", "!stats"]
    out = io.StringIO()
    with RaceDetectionService(ServiceConfig(gc_threshold=100)) as service:
        service.handle_stream(io.StringIO("\n".join(lines) + "\n"), out)
        live = len(service.engine._kernel.events)
        samples = parse_exposition(service.render_metrics())
    (stats_line,) = [line for line in out.getvalue().splitlines() if line.startswith("stats ")]
    stats = ServiceStats.from_json(stats_line[len("stats ") :])
    sync_events = stats.detector["sync_events"]
    assert sync_events == 600 and stats.detector["cells_collected"] > 0
    assert samples["repro_kernel_synclist_live"] == [({}, float(live))]
    assert stats.synclist_live == live < sync_events
