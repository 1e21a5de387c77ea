"""``repro.obs``: observability for the streaming race-detection service.

The service already accumulates rich *deterministic* counters
(:class:`~repro.core.stats.DetectorStats`,
:class:`~repro.server.stats.ServiceStats`); this package turns them into an
operable surface:

* :mod:`repro.obs.registry` -- a dependency-free metrics registry
  (counters, gauges, fixed-bucket histograms) with Prometheus text
  exposition and a JSON snapshot format;
* :mod:`repro.obs.bridge` -- auto-populates a registry from
  ``ServiceStats``/``ShardStats``/``DetectorStats`` snapshots, so the
  existing ad-hoc dicts become named, typed metrics;
* :mod:`repro.obs.tracing` -- event-lifecycle stage counters and latency
  histograms (ingest / route / queue / apply / report) plus an opt-in
  sampled span log (1-in-N batches, JSONL);
* :mod:`repro.obs.flightrec` -- the race flight recorder: a bounded ring
  of the last K applied packed records per shard, dumped to a
  self-contained ``.flightrec`` file the moment a race is reported and
  replayable offline (``repro-race replay-flightrec``);
* :mod:`repro.obs.httpd` -- a ``/metrics`` + ``/healthz`` HTTP endpoint
  for ``repro-serve --metrics-port``;
* :mod:`repro.obs.cli` -- ``repro-obs tail``, a live terminal view.

Everything here is stdlib-only, counter-based and deterministic where
possible, default-on for counters and default-off for span sampling; no
setting changes a race line or the kernel's deterministic counters
(``tests/server/test_obs_integration.py``).
"""

from .bridge import REQUIRED_METRICS, registry_from_stats
from .flightrec import (
    FlightRecorder,
    FlightRecording,
    load_flightrec,
    replay_flightrec,
)
from .registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    parse_exposition,
)
from .tracing import STAGES, LifecycleTracer, ObsConfig

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "parse_exposition",
    "registry_from_stats",
    "REQUIRED_METRICS",
    "LifecycleTracer",
    "ObsConfig",
    "STAGES",
    "FlightRecorder",
    "FlightRecording",
    "load_flightrec",
    "replay_flightrec",
]
