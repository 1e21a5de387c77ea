"""The metrics HTTP server under load: concurrent scrapes, consistency.

The companion ``test_http.py`` covers the endpoint surface (routes,
payload shape).  This module stresses the *server*: many simultaneous
scrapes, the exposition content type, and the invariant that a scrape
taken while counters advance still parses as a complete, internally
consistent snapshot -- never a torn half-write.
"""

import json
import threading
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.obs.httpd import start_metrics_server
from repro.obs.registry import parse_exposition
from repro.server import RaceDetectionService, ServiceConfig

EXPOSITION_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


@pytest.fixture()
def served():
    with RaceDetectionService(
        ServiceConfig(n_shards=2)
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


def test_exposition_content_type_is_prometheus_text(served):
    _service, base = served
    content_type, _body = _get(base + "/metrics")
    assert content_type == EXPOSITION_CONTENT_TYPE


def test_concurrent_scrapes_all_parse(served):
    service, base = served
    service.submit_line("1 0 write 1 data")
    service.barrier()
    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(lambda _: _get(base + "/metrics"), range(32)))
    for content_type, body in results:
        assert content_type == EXPOSITION_CONTENT_TYPE
        samples = parse_exposition(body)
        assert samples["repro_ingest_events_total"] == [({}, 1.0)]


def test_scrapes_stay_consistent_while_counters_advance(served):
    """Scrape in parallel with ingestion: every snapshot parses and the
    event counter only moves forward across successive scrapes."""
    service, base = served
    stop = threading.Event()
    ingest_errors = []

    def ingest():
        tid, index = 1, 0
        while not stop.is_set():
            try:
                service.submit_line(f"{tid} {index} write 1 data")
            except Exception as exc:  # pragma: no cover - diagnostic only
                ingest_errors.append(exc)
                return
            index += 1

    writer = threading.Thread(target=ingest)
    writer.start()
    try:
        seen = []
        for _ in range(25):
            _content_type, body = _get(base + "/metrics")
            samples = parse_exposition(body)
            assert "repro_ingest_events_total" in samples
            ((_labels, value),) = samples["repro_ingest_events_total"]
            seen.append(value)
    finally:
        stop.set()
        writer.join(timeout=10.0)
    assert not ingest_errors
    assert seen == sorted(seen), "ingest counter went backwards across scrapes"
    assert seen[-1] > 0


def test_concurrent_health_and_metrics(served):
    service, base = served
    service.submit_line("1 0 write 1 data")
    service.barrier()

    def fetch(i):
        path = "/healthz" if i % 2 else "/metrics"
        return path, _get(base + path)

    with ThreadPoolExecutor(max_workers=6) as pool:
        for path, (content_type, body) in pool.map(fetch, range(24)):
            if path == "/healthz":
                assert content_type == "application/json"
                assert json.loads(body)["status"] in ("ok", "degraded")
            else:
                assert content_type == EXPOSITION_CONTENT_TYPE
                parse_exposition(body)
