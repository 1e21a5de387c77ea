"""``/metrics`` and ``/healthz`` over HTTP for ``repro-serve --metrics-port``.

Stdlib-only: a :class:`http.server.ThreadingHTTPServer` on its own daemon
thread, sharing the :class:`~repro.server.service.RaceDetectionService`
object with the socket transports.  Scrapes are read-only snapshots, so a
Prometheus server (or ``curl``) polling ``/metrics`` never blocks the
ingestion path beyond the service's usual stats lock.

Routes:

* ``GET /metrics``  -- Prometheus text exposition
  (:func:`repro.obs.bridge.registry_from_stats` over a fresh snapshot);
* ``GET /healthz``  -- one JSON object: ``status`` ("ok"), uptime,
  ingest/race totals, parse-error count plus the ring of recent faults,
  and the hosted groups -- the same payload as the ``!health`` control
  command;
* anything else     -- 404.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Tuple


class _ObsHandler(BaseHTTPRequestHandler):
    server_version = "repro-obs/1"

    def do_GET(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        service = self.server.service  # type: ignore[attr-defined]
        path = self.path.split("?", 1)[0]
        if path == "/metrics":
            body = service.render_metrics().encode("utf-8")
            self._reply(200, "text/plain; version=0.0.4; charset=utf-8", body)
        elif path in ("/healthz", "/health"):
            body = (
                json.dumps(service.health(), sort_keys=True) + "\n"
            ).encode("utf-8")
            self._reply(200, "application/json", body)
        else:
            self._reply(404, "text/plain; charset=utf-8", b"not found\n")

    def _reply(self, status: int, content_type: str, body: bytes) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass  # scrapes are high-frequency; stay quiet


class MetricsServer:
    """A started metrics endpoint; ``address`` is the actual bound pair."""

    def __init__(self, service, host: str, port: int) -> None:
        self._httpd = ThreadingHTTPServer((host, port), _ObsHandler)
        self._httpd.daemon_threads = True
        self._httpd.service = service  # type: ignore[attr-defined]
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="repro-obs-metrics",
            daemon=True,
        )
        self._thread.start()

    @property
    def address(self) -> Tuple[str, int]:
        return self._httpd.server_address[:2]

    def close(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        self._thread.join(timeout=2.0)

    def __enter__(self) -> "MetricsServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def start_metrics_server(
    service, port: int, host: str = "127.0.0.1"
) -> MetricsServer:
    """Bind and start serving; ``port=0`` picks a free port (tests)."""
    return MetricsServer(service, host, port)
