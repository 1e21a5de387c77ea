"""Observability through the service surface: controls, rings, rates.

Also home to the stats-aggregation satellites: the query-weighted
``ServiceStats.short_circuit_rate`` and the uptime/rate derivation.
"""

import io
import json
import threading
from array import array

import pytest

from repro.core import Obj, Tid
from repro.core.encode import OP_ALLOC, EventEncoder, encode_frame
from repro.obs.bridge import REQUIRED_METRICS
from repro.obs.registry import parse_exposition
from repro.obs.tracing import ObsConfig, read_span_log
from repro.server import (
    RaceDetectionService,
    ServiceClient,
    ServiceConfig,
    serve_tcp,
)
from repro.server.protocol import FRAME_EVENTS, pack_frame, parse_response, parse_summary
from repro.server.stats import ServiceStats, ShardStats
from repro.trace import TraceBuilder
from tests.helpers import service_trace_text


def inline_service(**overrides):
    config = dict(n_shards=2)
    config.update(overrides)
    return RaceDetectionService(ServiceConfig(**config))


def run_stream(service, text):
    out = io.StringIO()
    service.handle_stream(io.StringIO(text), out)
    return out.getvalue().splitlines()


# -- control commands ----------------------------------------------------------


def test_metrics_control_returns_a_parseable_scrape():
    with inline_service() as service:
        lines = run_stream(service, "1 0 write 1 data\n!flush\n!metrics\n")
    ack = next(l for l in lines if "metrics" in l and parse_response(l)[0] == "ok")
    command, info = parse_summary(parse_response(ack)[1])
    assert command == "metrics"
    start = lines.index(ack) + 1
    exposition = "\n".join(lines[start : start + info["lines"]]) + "\n"
    samples = parse_exposition(exposition)
    for name in REQUIRED_METRICS:
        assert name in samples, name
    assert samples["repro_ingest_events_total"] == [({}, 1.0)]


def test_health_control_is_one_json_line():
    with inline_service() as service:
        lines = run_stream(service, "not an event\n!health\n")
    health_lines = [l for l in lines if parse_response(l)[0] == "health"]
    assert len(health_lines) == 1
    payload = json.loads(parse_response(health_lines[0])[1])
    assert payload["status"] == "ok"
    assert payload["parse_errors"] == 1
    assert payload["last_parse_errors"] == ["not an event"]
    assert payload["stats"]["n_shards"] == 2


def test_shard_apply_faults_join_the_parse_error_ring():
    """A record a shard's kernel rejects (an alloc naming a thread, which
    the wire edge would refuse, buffered past it) comes back as an apply
    fault and is folded into the parse-error accounting exactly once; the
    shard keeps applying later frames."""
    encoder = EventEncoder()
    records = array("q")
    racy = TraceBuilder().write(Tid(1), Obj(1), "x").write(Tid(2), Obj(1), "x")
    for seq, event in enumerate(racy.build()):
        op, tid_id, index, a, b, _extra = encoder.encode_event(event)
        records.extend((op, seq, tid_id, index, a, b))
    delta = encoder.interner.elements_since(1)
    good = encode_frame(1, delta, records, array("q"))
    wire = io.BytesIO(pack_frame(FRAME_EVENTS, good))
    out = io.StringIO()
    with inline_service(n_shards=1, batch_size=1) as service:
        engine = service.engine
        thread = engine._encoder.intern_element(Tid(1))
        with service._lock:
            engine._ingest_record(OP_ALLOC, thread, 0, thread, 0, None, None)
        service.handle_stream(iter(["!binary\n"]), out, binary=wire)
        stats = service.stats()
        health = service.health()
        assert service.engine.apply_errors == []  # drained, not re-counted
        assert service.stats().parse_errors == 1
    assert stats.parse_errors == 1
    assert any("not an object proxy" in line for line in health["last_parse_errors"])
    assert sum(line.startswith("race ") for line in out.getvalue().splitlines()) == 1


def test_parse_error_ring_keeps_only_the_last_eight():
    bad = [f"bad line number {i}" for i in range(12)]
    with inline_service() as service:
        for line in bad:
            assert service.submit_line(line) is None
        health = service.health()
        stats = service.stats()
    assert stats.parse_errors == 12  # the counter never forgets
    assert health["last_parse_errors"] == bad[-8:]  # the ring does


def test_client_metrics_and_health_over_tcp():
    with inline_service() as service:
        server = serve_tcp(service, "127.0.0.1", 0)
        port = server.server_address[1]
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            with ServiceClient.tcp("127.0.0.1", port) as client:
                client.send_line("1 0 write 1 data")
                client.flush()
                text = client.metrics()
                health = client.health()
            samples = parse_exposition(text)
            for name in REQUIRED_METRICS:
                assert name in samples, name
            assert health["status"] == "ok"
            assert health["events_ingested"] == 1
        finally:
            server.shutdown()
            server.server_close()


# -- rates and uptime ----------------------------------------------------------


def test_uptime_and_rate_come_from_the_monotonic_clock():
    with inline_service() as service:
        service.submit_line("1 0 write 1 data")
        first = service.stats()
        second = service.stats()
    assert first.uptime_sec > 0
    assert second.uptime_sec >= first.uptime_sec  # never goes backwards
    assert first.events_per_sec > 0


def test_derive_rates_guards_zero_uptime():
    stats = ServiceStats(events_ingested=100)
    stats.derive_rates(0.0)
    assert stats.uptime_sec > 0  # clamped, not divided by zero
    assert stats.events_per_sec > 0
    stats.derive_rates(-5.0)  # pathological input: same clamp
    assert stats.uptime_sec > 0


# -- span sampling through the service -----------------------------------------


def test_span_sampling_rides_the_service_pipeline(tmp_path):
    path = str(tmp_path / "spans.jsonl")
    obs = ObsConfig(span_sample=1, span_log=path)
    with inline_service(obs=obs) as service:
        run_stream(service, "1 0 write 1 data\n2 0 write 1 data\n!flush\n")
        stats = service.stats()
    assert stats.spans_sampled > 0
    spans = [r for r in read_span_log(path) if r["kind"] == "span"]
    assert len(spans) == stats.spans_sampled
    assert set(spans[0]["stage_sec"]) == {"route", "queue", "apply"}


def test_spans_work_with_counters_off(tmp_path):
    path = str(tmp_path / "spans.jsonl")
    obs = ObsConfig(counters=False, span_sample=1, span_log=path)
    with inline_service(obs=obs) as service:
        run_stream(service, "1 0 write 1 data\n!flush\n")
        assert service.tracer.stage_counts()["route"] == 0
    spans = [r for r in read_span_log(path) if r["kind"] == "span"]
    assert spans  # sampling does not depend on the counter switch


def test_no_obs_setting_changes_verdicts_or_detector_work(tmp_path):
    """The shared service trace through 4 groups under each observability
    setting: identical race lines (seq included) and kernel detector
    work, and only the span setting samples spans."""
    text = service_trace_text()
    settings = {
        "counters-off": ObsConfig(counters=False),
        "defaults": ObsConfig(),
        "spans": ObsConfig(span_sample=8, span_log=str(tmp_path / "spans.jsonl")),
        "provenance": ObsConfig(provenance=True),
        "trace": ObsConfig(trace=True, node="obs-test"),
    }
    runs = {}
    for name, obs in settings.items():
        with inline_service(n_shards=4, obs=obs) as service:
            lines = run_stream(service, text)
            stats = service.stats()
        races = sorted(line for line in lines if line.startswith("race "))
        work = {shard.shard: shard.detector_work for shard in stats.shards}
        runs[name] = (races, work, stats.spans_sampled)
    races, work, _spans = runs["defaults"]
    assert races and len(work) == 1  # one kernel for the four groups
    for name, (got_races, got_work, spans) in runs.items():
        assert (got_races, got_work) == (races, work), name
        assert (spans > 0) == (name == "spans"), name


# -- snapshot compatibility for the new fields ---------------------------------


def test_new_stats_fields_survive_the_json_round_trip():
    stats = ServiceStats(spans_sampled=4, flightrec_dumps=2)
    back = ServiceStats.from_json(stats.to_json())
    assert back.spans_sampled == 4
    assert back.flightrec_dumps == 2


def test_old_snapshots_without_the_new_fields_still_parse():
    data = ServiceStats().as_dict()
    del data["spans_sampled"]
    del data["flightrec_dumps"]
    snap = ServiceStats.from_dict(data)
    assert snap.spans_sampled == 0 and snap.flightrec_dumps == 0
    assert snap.unknown_fields == 0  # missing keys are not unknown keys


# -- the query-weighted aggregate short-circuit rate (satellite) ---------------


def _shard(shard, sc_epoch=0, full=0):
    detector = {}
    if sc_epoch or full:
        detector = {"sc_epoch": sc_epoch, "full_lockset_computations": full}
    return ShardStats(shard=shard, detector=detector)


class TestAggregateShortCircuitRate:
    def test_fully_idle_service_reports_one(self):
        stats = ServiceStats(shards=[_shard(0), _shard(1)])
        assert stats.short_circuit_rate == 1.0

    def test_no_shards_at_all_reports_one(self):
        assert ServiceStats().short_circuit_rate == 1.0

    def test_idle_shards_contribute_no_weight(self):
        # One busy shard at 75%, three idle ones: the aggregate must be
        # 0.75, not dragged toward 1.0 by the idle shards' perfect rate.
        stats = ServiceStats(
            shards=[_shard(0, sc_epoch=3, full=1), _shard(1), _shard(2), _shard(3)]
        )
        assert stats.short_circuit_rate == 0.75

    def test_weighting_is_by_query_count_not_by_shard(self):
        # 90 queries at 100% and 10 queries at 0%: weighted mean is 0.9,
        # the unweighted per-shard mean would be 0.5.
        stats = ServiceStats(
            shards=[_shard(0, sc_epoch=90), _shard(1, full=10)]
        )
        assert stats.short_circuit_rate == 0.9

    def test_empty_detector_dicts_are_skipped(self):
        stats = ServiceStats(
            shards=[ShardStats(shard=0, detector={}), _shard(1, sc_epoch=1, full=1)]
        )
        assert stats.short_circuit_rate == 0.5

    def test_mixed_kernel_snapshots_aggregate_across_rungs(self):
        # A lazy-kernel shard reports traversal rungs, an encoded shard
        # reports epoch hits; the aggregate sums over all SC_RUNGS.
        lazy = ShardStats(
            shard=0,
            detector={"sc_thread_restricted": 2, "full_lockset_computations": 2},
        )
        encoded = ShardStats(shard=1, detector={"sc_epoch": 4})
        stats = ServiceStats(shards=[lazy, encoded])
        assert stats.short_circuit_rate == 0.75  # 6 hits of 8 queries
