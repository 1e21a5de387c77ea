"""The SLO watchdog: p99 estimation, breach verdicts, exported gauges."""

from repro.obs.registry import MetricsRegistry, parse_exposition
from repro.obs.slo import (
    SloThresholds,
    SloWatchdog,
    p99_from_buckets,
)
from repro.obs.tracing import ObsConfig
from repro.server.service import RaceDetectionService, ServiceConfig


def test_p99_picks_smallest_covering_bucket():
    buckets = [(0.001, 90), (0.01, 99), (0.1, 100), (float("inf"), 100)]
    assert p99_from_buckets(buckets) == 0.01
    assert p99_from_buckets([]) == 0.0
    # everything in the overflow bucket -> the largest finite bound
    assert p99_from_buckets([(0.001, 0), (float("inf"), 5)]) == 0.001


def test_watchdog_flags_breaches():
    watchdog = SloWatchdog(
        SloThresholds(apply_p99_sec=0.01, parse_error_rate=1.0)
    )
    ok = watchdog.evaluate(
        apply_buckets=[(0.001, 100), (float("inf"), 100)],
        parse_errors=0,
        uptime_sec=10.0,
    )
    assert not ok.degraded
    slow = watchdog.evaluate(
        apply_buckets=[(0.001, 0), (1.0, 100), (float("inf"), 100)],
        parse_errors=0,
        uptime_sec=10.0,
    )
    assert slow.degraded and "apply_p99_sec" in slow.breaches
    noisy = watchdog.evaluate(
        apply_buckets=[], parse_errors=100, uptime_sec=10.0
    )
    assert noisy.degraded and "parse_error_rate" in noisy.breaches


def test_watchdog_exports_gauges():
    watchdog = SloWatchdog()
    verdict = watchdog.evaluate(
        apply_buckets=[(0.001, 100), (float("inf"), 100)],
        parse_errors=0,
        uptime_sec=10.0,
    )
    registry = MetricsRegistry()
    watchdog.export(registry, verdict)
    samples = parse_exposition(registry.render())
    assert samples["repro_slo_degraded"] == [({}, 0.0)]
    assert "repro_slo_apply_latency_p99_seconds" in samples
    assert "repro_slo_parse_error_rate" in samples


def test_service_health_degrades_on_parse_error_storm():
    service = RaceDetectionService(
        ServiceConfig(obs=ObsConfig(counters=True))
    )
    try:
        assert service.health()["status"] == "ok"
        # a burst of garbage right after startup: rate >> 5/s threshold
        for i in range(50):
            service.submit_line(f"garbage line {i}")
        health = service.health()
        assert health["status"] == "degraded"
        assert "parse_error_rate" in health["slo"]["breaches"]
        detail = health["parse_error_detail"]
        assert detail and detail[-1]["line"] == "garbage line 49"
        # the verdict rides into the exposition as gauges
        samples = parse_exposition(service.render_metrics())
        assert samples["repro_slo_degraded"] == [({}, 1.0)]
    finally:
        service.close()


def test_errors_cli_renders_detail(capsys):
    from repro.obs.cli import cmd_errors

    class _Args:
        url = None
        tcp = None
        unix = None

    service = RaceDetectionService(
        ServiceConfig()
    )
    try:
        service.submit_line("definitely not an event")
        payload = service.health()
    finally:
        service.close()

    # exercise the renderer directly on the health payload shape
    import repro.obs.cli as obs_cli

    original = obs_cli._health_from_args
    obs_cli._health_from_args = lambda args: payload
    try:
        assert cmd_errors(_Args()) == 0
    finally:
        obs_cli._health_from_args = original
    out = capsys.readouterr().out
    assert "definitely not an event" in out
    assert "parse errors: 1" in out
