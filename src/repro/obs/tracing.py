"""Event-lifecycle tracing: stage counters, latency histograms, span log.

An event's life in the service crosses five stages::

    ingest -> route -> queue -> apply -> report

* **ingest**: wire text to packed records (service edge; one
  observation per run of event lines, counting the run's events);
* **route**: batch framing at the push boundary (buffer -> frame bytes);
* **queue**: a batch's span from push to acknowledgment (includes the
  shard's apply time -- the queueing share is ``queue - apply``);
* **apply**: kernel work on one batch;
* **report**: turning completed reports into wire ``race`` lines.

The tracer keeps, per stage, an event/batch **counter** (deterministic)
and a fixed-bucket **latency histogram** (wall-clock; per *batch* for
route/queue/apply and per *run* of text lines for ingest, so the
default-on cost is two clock reads per batch or run, not per event).
Span sampling is **off by default**: with ``span_sample=N`` every Nth
batch (deterministically, by batch ordinal -- no RNG) is written as one
JSONL object to ``span_log``, schema::

    {"kind": "span", "batch": int, "shard": int, "events": int,
     "stage_sec": {"route": float, "queue": float, "apply": float},
     "ts_sec": float}          # monotonic seconds since tracer start

Faults -- unparseable lines, frames refused at the wire edge or by a
shard -- ride the same log as ``{"kind": "parse_error", "line": str,
"fault": {...}, "ts_sec": float}``, ``fault`` holding the other fields of
:func:`fault_record`, so malformed-producer debugging has a structured
trail.

Everything degrades to no-ops when disabled: ``LifecycleTracer.disabled``
short-circuits every hook.  No setting changes a verdict or the kernel's
deterministic counters (``tests/server/test_obs_integration.py``).
"""

from __future__ import annotations

import io
import json
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, Optional

from .registry import LATENCY_BUCKETS, MetricsRegistry

#: lifecycle stages, in pipeline order
STAGES = ("ingest", "route", "queue", "apply", "report")


def fault_record(
    line: str,
    error: Optional[BaseException] = None,
    shard: Optional[int] = None,
) -> Dict[str, Any]:
    """The one record of input the service could not ingest.

    ``line`` is the input (at most 512 characters) or a ``<...>`` note on a
    binary frame; ``kind``/``record``/``applied`` come from a typed
    :class:`~repro.core.encode.FrameFormatError` (else None), and ``shard``
    is 0 when the process's kernel refused the record.
    """
    fault: Dict[str, Any] = {
        "line": line[:512],
        "message": str(error) if error is not None else None,
        "kind": getattr(error, "kind", None),
        "record": getattr(error, "record", None),
        "applied": getattr(error, "applied", None),
    }
    if shard is not None:
        fault["shard"] = shard
    return fault


@dataclass
class ObsConfig:
    """Observability tunables, embedded in the engine/service configs.

    counters:
        Stage counters and per-batch latency histograms (default on).
    span_sample:
        Sample 1-in-N batches into the span log; 0 disables (default).
    span_log:
        Path for the JSONL span/parse-error log (``-`` for stderr).
    flightrec_dir:
        Directory for ``.flightrec`` dumps; None records but never writes
        (the flight ring is always kept: one adopted buffer per batch).
    flightrec_capacity:
        Packed records the process's flight ring retains per hosted group.
    flightrec_max_dumps:
        Bound on files written per process (disk-flood guard).
    trace:
        Trace-context propagation (default off): stamp each batch with a
        compact trace id at the encoder edge, honor trace envelopes on
        incoming wire frames, and tag sampled spans with
        ``trace_id``/``node`` so cross-node spans stitch into one
        end-to-end lifecycle.
    node:
        Label naming this process in spans and trace ids (the high half
        of a minted trace id is ``crc32(node)``).
    provenance:
        Race provenance (default off): kernels attach the bounded
        lockset-transfer chain behind each verdict to its
        :class:`~repro.core.report.RaceReport`.  Pure side-channel -- race
        lines and deterministic counters are identical either way.
    """

    counters: bool = True
    span_sample: int = 0
    span_log: Optional[str] = None
    flightrec_dir: Optional[str] = None
    flightrec_capacity: int = 4096
    flightrec_max_dumps: int = 16
    trace: bool = False
    node: str = ""
    provenance: bool = False

    @property
    def enabled(self) -> bool:
        return self.counters or self.span_sample > 0 or self.trace


class _SpanLog:
    """A line-buffered JSONL sink with its own lock."""

    def __init__(self, path: str) -> None:
        self.path = path
        self._lock = threading.Lock()
        if path == "-":
            import sys

            self._fh = sys.stderr
            self._owned = False
        else:
            self._fh = open(path, "a", encoding="utf-8")
            self._owned = True

    def write(self, record: Dict[str, object]) -> None:
        line = json.dumps(record, sort_keys=True)
        with self._lock:
            try:
                self._fh.write(line + "\n")
                self._fh.flush()
            except ValueError:  # pragma: no cover - closed underneath us
                pass

    def close(self) -> None:
        if self._owned:
            try:
                self._fh.close()
            except OSError:  # pragma: no cover
                pass


class LifecycleTracer:
    """Per-service lifecycle instrumentation; every hook is cheap or a no-op.

    The tracer owns its :class:`MetricsRegistry` families so the bridge
    can merge them into a scrape without copying, and the service can keep
    exactly one tracer across snapshots (histograms accumulate for the
    process lifetime, like any Prometheus instrument).
    """

    def __init__(self, config: Optional[ObsConfig] = None) -> None:
        self.config = config or ObsConfig()
        self.disabled = not self.config.enabled
        self.started = time.monotonic()
        self.registry = MetricsRegistry()
        self._counts = {stage: 0 for stage in STAGES}
        self._stage_events = self.registry.counter(
            "stage_events_total",
            "events or batches that completed each lifecycle stage",
            labels=("stage",),
        )
        self._stage_latency = self.registry.histogram(
            "stage_latency_seconds",
            "wall-clock latency per lifecycle stage (per batch for "
            "route/queue/apply, per run of text lines for ingest, per drain "
            "for report)",
            buckets=LATENCY_BUCKETS,
            labels=("stage",),
        )
        self._spans_sampled = self.registry.counter(
            "spans_sampled_total", "batches written to the span log"
        )
        self.spans_written = 0
        self.parse_errors_logged = 0
        self._span_log: Optional[_SpanLog] = None
        if self.config.span_sample > 0 and self.config.span_log:
            self._span_log = _SpanLog(self.config.span_log)

    # -- counter/histogram hooks (called from service and engine) --------------

    def clock(self) -> float:
        """A monotonic timestamp, or 0.0 when tracing is off (no syscall)."""
        if self.disabled:
            return 0.0
        return time.perf_counter()

    def observe(self, stage: str, started: float, n: int = 1) -> None:
        """Close one stage measurement opened with :meth:`clock`."""
        if self.disabled or not self.config.counters:
            return
        self.observe_elapsed(stage, time.perf_counter() - started, n)

    def observe_elapsed(self, stage: str, elapsed: float, n: int = 1) -> None:
        """Record an already-computed stage duration (engine batch paths)."""
        if self.disabled or not self.config.counters:
            return
        self._counts[stage] += n
        self._stage_events.labels(stage).inc(n)
        self._stage_latency.labels(stage).observe(elapsed)

    def count(self, stage: str, n: int = 1) -> None:
        """Bump a stage counter without timing (deterministic-only hook)."""
        if self.disabled or not self.config.counters:
            return
        self._counts[stage] += n
        self._stage_events.labels(stage).inc(n)

    def stage_counts(self) -> Dict[str, int]:
        return dict(self._counts)

    # -- span sampling ---------------------------------------------------------

    def should_sample(self, batch_ordinal: int) -> bool:
        """Deterministic 1-in-N selection by batch ordinal (no RNG)."""
        n = self.config.span_sample
        return n > 0 and batch_ordinal % n == 0

    def emit_span(
        self,
        batch: int,
        shard: int,
        events: int,
        stage_sec: Dict[str, float],
        trace_id: Optional[str] = None,
        node: Optional[str] = None,
    ) -> None:
        self.spans_written += 1
        self._spans_sampled.inc()
        if self._span_log is None:
            return
        record: Dict[str, object] = {
            "kind": "span",
            "batch": batch,
            "shard": shard,
            "events": events,
            "stage_sec": {k: round(v, 9) for k, v in stage_sec.items()},
            "ts_sec": round(time.monotonic() - self.started, 9),
        }
        if trace_id is not None:
            record["trace_id"] = trace_id
        if node is not None:
            record["node"] = node
        self._span_log.write(record)

    def log_parse_error(self, fault: Dict[str, Any]) -> None:
        """Structured trail for one :func:`fault_record` (the service also
        keeps the last few in its fault ring)."""
        self.parse_errors_logged += 1
        if self._span_log is not None:
            self._span_log.write(
                {
                    "kind": "parse_error",
                    "line": fault["line"],
                    "fault": {k: v for k, v in fault.items() if k != "line"},
                    "ts_sec": round(time.monotonic() - self.started, 9),
                }
            )

    def close(self) -> None:
        if self._span_log is not None:
            self._span_log.close()


def read_span_log(path_or_file) -> list:
    """Parse a span JSONL log back into dicts (offline analysis, tests)."""
    if isinstance(path_or_file, (str, bytes)):
        with open(path_or_file, "r", encoding="utf-8") as fh:
            return [json.loads(line) for line in fh if line.strip()]
    if isinstance(path_or_file, io.TextIOBase):
        return [json.loads(line) for line in path_or_file if line.strip()]
    raise TypeError(f"cannot read spans from {path_or_file!r}")
