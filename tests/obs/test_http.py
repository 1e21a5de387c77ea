"""The HTTP observability endpoint: /metrics, /healthz, and 404s."""

import json
import urllib.error
import urllib.request

import pytest

from repro.obs.bridge import REQUIRED_METRICS
from repro.obs.httpd import start_metrics_server
from repro.obs.registry import parse_exposition
from repro.server import RaceDetectionService, ServiceConfig


@pytest.fixture()
def served():
    with RaceDetectionService(
        ServiceConfig(n_shards=2, flush_interval=0.0)
    ) as service:
        server = start_metrics_server(service, port=0)
        host, port = server.address
        try:
            yield service, f"http://{host}:{port}"
        finally:
            server.close()


def _get(url):
    with urllib.request.urlopen(url, timeout=10.0) as resp:
        return resp.headers.get("Content-Type"), resp.read().decode("utf-8")


def test_metrics_endpoint_serves_parseable_exposition(served):
    service, base = served
    service.submit_line("1 0 write 1 data")
    service.barrier()
    content_type, body = _get(base + "/metrics")
    assert content_type == "text/plain; version=0.0.4; charset=utf-8"
    samples = parse_exposition(body)
    for name in REQUIRED_METRICS:
        assert name in samples, name
    assert samples["repro_ingest_events_total"] == [({}, 1.0)]


def test_healthz_reports_status_and_embeds_stats(served):
    service, base = served
    service.submit_line("not parseable at all")
    content_type, body = _get(base + "/healthz")
    assert content_type == "application/json"
    payload = json.loads(body)
    assert payload["status"] == "ok"
    assert payload["parse_errors"] == 1
    assert payload["last_parse_errors"] == ["not parseable at all"]
    assert payload["uptime_sec"] > 0
    assert payload["stats"]["n_shards"] == 2  # full snapshot rides along
    # /health is an alias
    assert json.loads(_get(base + "/health")[1])["status"] == "ok"


def test_unknown_paths_are_404(served):
    _service, base = served
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        _get(base + "/nope")
    assert excinfo.value.code == 404


def test_repro_obs_tail_renders_over_http(served, capsys):
    from repro.obs.cli import main as obs_main

    service, base = served
    service.submit_line("1 0 write 1 data")
    service.barrier()
    assert obs_main(["tail", "--url", base, "--once"]) == 0
    out = capsys.readouterr().out
    assert "shard" in out and "events" in out
