"""The long-lived streaming race-detection service.

:class:`RaceDetectionService` wraps a :class:`~repro.server.engine.ShardedEngine`
with the ingestion layer: line framing, per-connection sequencing (one
global ingestion lock assigns monotone sequence numbers across every
connection, so all clients feed a single coherent execution), a
time-driven flusher thread that pushes half-full batches after
``flush_interval`` seconds of slack, and the control commands of
:mod:`repro.server.protocol`.

Transports, all sharing one service (and therefore one detection domain):

* :meth:`handle_stream` -- any ``(reader, writer)`` text-stream pair; used
  directly for stdin mode and by every socket connection;
* :func:`serve_tcp` / :func:`serve_unix` -- threaded socket servers;
* :meth:`tail_file` -- incremental ingestion of a growing trace file
  (:func:`repro.trace.io.follow_trace`).

Race reports are streamed back on whichever connection drains them (with a
single client: exactly that client).  ``!flush`` is the synchronization
point: after its ``ok`` line, every race completed by previously sent
events has been written.
"""

from __future__ import annotations

import base64
import json
import socketserver
import threading
import time
from collections import deque
from dataclasses import dataclass, replace
from typing import Any, BinaryIO, Deque, Dict, Iterable, List, Optional, TextIO, Tuple

from ..core.actions import Event
from ..obs.bridge import registry_from_stats
from ..obs.slo import SloVerdict, SloWatchdog, apply_buckets_from_tracer
from ..obs.tracing import ObsConfig, fault_record
from ..trace.io import follow_trace
from .engine import EngineConfig, SeqReport, ShardedEngine, WireIngest
from .protocol import (
    FRAME_CONTROL,
    FRAME_EVENTS,
    FRAME_TEXT,
    format_race,
    is_control,
    parse_control,
    read_frame,
    summary_line,
)
from .stats import ServiceStats


@dataclass
class ServiceConfig:
    """Tunables for the service; engine knobs are forwarded verbatim."""

    n_shards: int = 1
    batch_size: int = 64
    commit_sync: str = "footprint"
    gc_threshold: Optional[int] = 50_000
    #: seconds of ingestion slack after which pending batches are flushed
    #: anyway (keeps report latency bounded on slow streams); <= 0 disables
    #: the background flusher
    flush_interval: float = 0.05
    #: observability tunables (stage counters, span sampling, flight
    #: recorder); None means the defaults of :class:`~repro.obs.tracing.
    #: ObsConfig` -- counters on, sampling off, no dump directory
    obs: Optional[ObsConfig] = None
    #: static admission filter (:class:`repro.analysis.admission.
    #: AdmissionFilter`) dropping provably race-free data accesses at the
    #: edge; None admits everything.  Also settable at runtime via the
    #: ``!admit`` control verb.
    admit: Optional[object] = None
    #: retired: shards always run in the service process.  Only "inline"
    #: is accepted, for callers written when process workers existed.
    workers: str = "inline"

    def __post_init__(self) -> None:
        if self.workers != "inline":
            raise ValueError(
                f"workers={self.workers!r}: shards run in the service process "
                "only; run one repro-serve per core behind repro-cluster instead"
            )

    def engine_config(self) -> EngineConfig:
        return EngineConfig(
            n_shards=self.n_shards,
            batch_size=self.batch_size,
            commit_sync=self.commit_sync,
            gc_threshold=self.gc_threshold,
            obs=self.obs,
            admit=self.admit,
        )


class RaceDetectionService:
    """Shared ingestion front-end over one sharded detection engine."""

    def __init__(self, config: Optional[ServiceConfig] = None, **kwargs) -> None:
        self.config = config or ServiceConfig(**kwargs)
        self.engine = ShardedEngine(self.config.engine_config())
        self._lock = threading.Lock()
        self._started = time.monotonic()
        self._parse_errors = 0
        #: the last few faults behind the parse_errors counter, as
        #: :func:`~repro.obs.tracing.fault_record` dicts -- surfaced by
        #: ``!health`` and ``repro-obs errors`` so a misbehaving producer
        #: can be diagnosed without replaying its stream
        self._faults: Deque[Dict[str, Any]] = deque(maxlen=8)
        #: SLO watchdog: flips ``!health`` to "degraded" and exports
        #: ``repro_slo_*`` gauges on every metrics render
        self.slo = SloWatchdog()
        self.tracer = self.engine.tracer
        self._races_seen = 0
        self._shutdown = threading.Event()
        self._flusher: Optional[threading.Thread] = None
        if self.config.flush_interval > 0:
            self._flusher = threading.Thread(
                target=self._flush_loop, name="repro-serve-flusher", daemon=True
            )
            self._flusher.start()

    # -- ingestion primitives (all engine access goes through the lock) --------

    def submit_event(self, event: Event) -> int:
        with self._lock:
            return self.engine.submit(event)

    def submit_line(self, line: str) -> Optional[int]:
        """Submit one event line; None (and a count) on bad input.

        The engine encodes the line straight into an integer record -- the
        text is parsed exactly once, service-side ``Event`` objects are
        never built.
        """
        t0 = self.tracer.clock()
        try:
            with self._lock:
                seq = self.engine.submit_line(line)
        except Exception as exc:
            self._note_bad_input(line, error=exc)
            return None
        self.tracer.observe("ingest", t0)
        return seq

    def _note_bad_input(
        self, line: str, error: Optional[BaseException] = None
    ) -> None:
        """Count one input the edge refused and remember it as a fault."""
        with self._lock:
            self._note_fault(fault_record(line, error))

    def _note_fault(self, fault: Dict[str, Any]) -> None:
        """Count, ring-buffer and log one fault; caller holds the lock."""
        self._parse_errors += 1
        self._faults.append(fault)
        self.tracer.log_parse_error(fault)

    def poll_reports(self) -> List[SeqReport]:
        with self._lock:
            reports = self.engine.poll_reports()
            self._races_seen += len(reports)
            return reports

    def barrier(self) -> List[SeqReport]:
        """Flush and fully drain; returns the newly completed reports."""
        with self._lock:
            reports = self.engine.barrier()
            self._races_seen += len(reports)
            return reports

    def _drain_apply_errors(self) -> None:
        """Move the faults of frames a shard rejected (an alloc naming a
        thread, a stale id) into the one fault ring; caller holds the lock."""
        for fault in self.engine.apply_errors:
            self._note_fault(fault)
        self.engine.apply_errors.clear()

    def stats(self) -> ServiceStats:
        with self._lock:
            self._drain_apply_errors()
            snapshot = self.engine.stats()
        # Re-derive the rates against the *service* start time (monotonic,
        # so the published uptime never goes backwards across snapshots).
        snapshot.derive_rates(time.monotonic() - self._started)
        snapshot.parse_errors = self._parse_errors
        return snapshot

    def _slo_verdict(self, snapshot: ServiceStats) -> SloVerdict:
        """Evaluate the SLO objectives against one stats snapshot."""
        return self.slo.evaluate(
            apply_buckets=apply_buckets_from_tracer(self.tracer),
            parse_errors=snapshot.parse_errors,
            uptime_sec=snapshot.uptime_sec,
        )

    def render_metrics(self) -> str:
        """The Prometheus text exposition for this service, freshly built."""
        snapshot = self.stats()
        registry = registry_from_stats(snapshot, tracer=self.tracer)
        self.slo.export(registry, self._slo_verdict(snapshot))
        return registry.render()

    def health(self) -> Dict[str, Any]:
        """The ``!health`` / ``GET /healthz`` payload: one JSON-able dict."""
        snapshot = self.stats()
        verdict = self._slo_verdict(snapshot)
        with self._lock:
            faults = list(self._faults)
            cluster = {
                "n_groups": self.engine.config.n_shards,
                "hosted_groups": self.engine.hosted_groups(),
                "interner_version": self.engine.interner_version(),
                "foreign_dropped": self.engine.foreign_dropped,
            }
        admit = self.engine.config.admit
        payload = {
            "status": "degraded" if verdict.degraded else "ok",
            "uptime_sec": snapshot.uptime_sec,
            "events_ingested": snapshot.events_ingested,
            "events_per_sec": snapshot.events_per_sec,
            "races_reported": snapshot.races_reported,
            "parse_errors": snapshot.parse_errors,
            "last_parse_errors": [fault["line"] for fault in faults],
            "parse_error_detail": faults,
            "n_shards": snapshot.n_shards,
            "spans_sampled": snapshot.spans_sampled,
            "flightrec_dumps": snapshot.flightrec_dumps,
            "provenance_attached": snapshot.provenance_attached,
            "slo": verdict.as_dict(),
            "stats": snapshot.as_dict(),
            "cluster": cluster,
        }
        if admit is not None:
            payload["admit"] = {
                "policy": snapshot.admit,
                "workload": getattr(admit, "workload", "?"),
                "race_free_fields": len(getattr(admit, "race_free", ())),
                "data_admitted": snapshot.data_admitted,
                "data_filtered": snapshot.data_filtered,
                "prefilter_hits": snapshot.admit_prefilter_hits,
                "prefilter_misses": snapshot.admit_prefilter_misses,
                "filtered_vars": len(getattr(admit, "filtered_summary", ())),
            }
        return payload

    def dump_flight_recorders(self, reason: str = "signal") -> List[str]:
        """Write every shard's flight ring to disk (SIGTERM/crash path).

        The lock acquire is best-effort with a timeout: a SIGTERM handler
        runs on the main thread, which may already hold the ingestion lock
        -- on the death path a possibly-torn last frame beats a deadlock.
        """
        recorder = self.engine.recorder
        if recorder is None:
            return []
        locked = self._lock.acquire(timeout=1.0)
        try:
            return recorder.dump_all(reason)
        finally:
            if locked:
                self._lock.release()

    def _flush_loop(self) -> None:
        interval = self.config.flush_interval
        while not self._shutdown.wait(interval):
            with self._lock:
                try:
                    self.engine.flush()
                except Exception:  # pragma: no cover - engine already closed
                    return

    # -- the stream protocol ----------------------------------------------------

    def handle_stream(
        self,
        reader: Iterable[str],
        writer: TextIO,
        binary: Optional[BinaryIO] = None,
    ) -> int:
        """Serve one connection until EOF or ``!shutdown``; returns its race count.

        ``reader`` yields lines (a file object works); responses and race
        lines are written to ``writer``.  The final drain happens on EOF, so
        piping a complete trace in gives exactly the offline verdict.

        ``binary`` is the connection's underlying byte stream, if it has
        one.  A ``!binary`` control line switches the client->server
        direction to length-prefixed frames read from it (replies stay
        text); on a purely textual transport (stdin) the request is
        answered with an ``error`` line and the stream continues as text.
        """
        races = 0
        events = 0
        state = WireIngest()
        for raw in reader:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if is_control(line):
                command, args = parse_control(line)
                if command == "binary":
                    if binary is None:
                        writer.write("error binary mode needs a byte stream\n")
                        writer.flush()
                        continue
                    writer.write("ok binary\n")
                    writer.flush()
                    frame_events, frame_races, stop = self._binary_loop(
                        binary, writer, state
                    )
                    events += frame_events
                    races += frame_races
                    if stop:
                        return races
                    break  # binary EOF ends the connection: drain below
                stop, delta = self._control(command, args, writer, races, state)
                races += delta
                writer.flush()
                if stop:
                    return races
                continue
            seq = self.submit_line(line)
            if seq is None:
                writer.write(f"error unparseable event line: {line}\n")
                writer.flush()
                continue
            events += 1
            races += self._write_races(writer, self.poll_reports())
        reports = self.barrier()
        races += self._write_races(writer, reports)
        writer.write(summary_line("eof", events=events, races=races) + "\n")
        writer.flush()
        return races

    def _control(
        self,
        command: str,
        args: str,
        writer: TextIO,
        races: int,
        state: WireIngest,
    ) -> Tuple[bool, int]:
        """Run one control command; returns ``(stop stream?, races written)``.

        ``state`` is the connection's wire ingest state: ``!cluster`` marks
        it as the coordinator's, and ``!replay`` scopes its targeting to
        exactly that connection.
        """
        if command in ("cluster", "adopt", "retire", "checkpoint", "replay"):
            try:
                self._cluster_control(command, args, writer, state)
            except Exception as exc:
                writer.write(f"error {command}: {exc}\n")
            return False, 0
        if command == "ping":
            writer.write("ok pong\n")
            return False, 0
        if command == "admit":
            try:
                self._admit_control(args, writer)
            except Exception as exc:
                writer.write(f"error admit: {exc}\n")
            return False, 0
        if command == "flush":
            reports = self.barrier()
            written = self._write_races(writer, reports)
            writer.write(summary_line("flush", races=len(reports)) + "\n")
            return False, written
        if command == "stats":
            writer.write("stats " + self.stats().to_json() + "\n")
            return False, 0
        if command == "metrics":
            # The exposition is multi-line; the ok line announces how many
            # lines follow so clients can read the block without sniffing.
            lines = self.render_metrics().splitlines()
            writer.write(summary_line("metrics", lines=len(lines)) + "\n")
            for text_line in lines:
                writer.write(text_line + "\n")
            return False, 0
        if command == "health":
            writer.write(
                "health " + json.dumps(self.health(), sort_keys=True) + "\n"
            )
            return False, 0
        if command == "reset":
            with self._lock:
                self.engine.reset()
            writer.write("ok reset\n")
            return False, 0
        if command == "shutdown":
            reports = self.barrier()
            written = self._write_races(writer, reports)
            writer.write(summary_line("shutdown", races=races + written) + "\n")
            writer.flush()
            self.request_shutdown()
            return True, written
        writer.write(f"error unknown control command {command!r}\n")
        return False, 0

    def _admit_control(self, args: str, writer: TextIO) -> None:
        """The ``!admit`` verb: install, clear, or report the admission filter.

        * ``!admit`` (no args) -- status: policy in force and counters;
        * ``!admit off`` -- clear the filter;
        * ``!admit <base64 JSON>`` -- install a filter (as written by
          :meth:`repro.analysis.admission.AdmissionFilter.to_json`).
        """
        args = args.strip()
        if args and args != "off":
            from ..analysis.admission import AdmissionFilter

            blob = base64.b64decode(args.encode("ascii"))
            filt = AdmissionFilter.from_json(blob.decode("utf-8"))
            with self._lock:
                self.engine.set_admission(filt)
            writer.write(
                summary_line(
                    "admit",
                    policy=filt.policy,
                    workload=filt.workload,
                    race_free=len(filt.race_free),
                )
                + "\n"
            )
            return
        if args == "off":
            with self._lock:
                self.engine.set_admission(None)
            writer.write(summary_line("admit", policy="off") + "\n")
            return
        snapshot = self.stats()
        writer.write(
            summary_line(
                "admit",
                policy=snapshot.admit,
                admitted=snapshot.data_admitted,
                filtered=snapshot.data_filtered,
                prefilter_hits=snapshot.admit_prefilter_hits,
                prefilter_misses=snapshot.admit_prefilter_misses,
            )
            + "\n"
        )

    # -- cluster verbs (coordinator -> node; docs/CLUSTER.md) -------------------

    def _cluster_control(
        self,
        command: str,
        args: str,
        writer: TextIO,
        state: WireIngest,
    ) -> None:
        """The ``!cluster``/``!adopt``/``!retire``/``!checkpoint``/``!replay``
        verbs.  Raises on bad input; the caller turns that into one
        ``error`` line."""
        if command == "cluster":
            n_groups = int(args)
            self._repartition(n_groups)
            state.keep_ids = True
            writer.write(summary_line("cluster", n_groups=n_groups) + "\n")
            return
        if command == "replay":
            if args == "done":
                state.replay_group = None
                writer.write("ok replay done\n")
                return
            group = int(args)
            with self._lock:
                if group not in self.engine.hosted_groups():
                    raise ValueError(f"group {group} is not hosted here")
            state.replay_group = group
            writer.write(summary_line("replay", group=group) + "\n")
            return
        # the remaining verbs name one group
        word, _, blob_text = args.partition(" ")
        group = int(word)
        if command == "checkpoint":
            with self._lock:
                blob = self.engine.export_group(group)
            encoded = base64.b64encode(blob).decode("ascii")
            writer.write(f"checkpoint {group} {encoded}\n")
            return
        if command == "adopt":
            blob = (
                base64.b64decode(blob_text.encode("ascii")) if blob_text else None
            )
            with self._lock:
                self.engine.adopt_group(group, blob)
            writer.write(summary_line("adopt", group=group) + "\n")
            return
        if command == "retire":
            with self._lock:
                self.engine.retire_group(group)
            writer.write(summary_line("retire", group=group) + "\n")
            return
        raise ValueError(f"unhandled cluster verb {command!r}")

    def _repartition(self, n_groups: int) -> None:
        """Swap the engine for one of ``n_groups`` partitions, none hosted.

        The coordinator drafts a plain ``repro-serve`` instance with
        ``!cluster <n_groups>`` before switching to binary frames; hosted
        groups then arrive through ``!adopt``.  Any detection state of the
        old engine is discarded -- nodes are drafted fresh -- but its
        settings carry over, a runtime-installed admission filter included,
        and so does the recorder's dump count: a later session on the node
        never overwrites an earlier one's dumps or resets the dump budget.
        """
        with self._lock:
            old = self.engine
            self.engine = ShardedEngine(
                replace(old.config, n_shards=n_groups, groups=())
            )
            if old.recorder is not None:
                self.engine.recorder.dumps_written = old.recorder.dumps_written
                self.engine.recorder.dumps_suppressed = old.recorder.dumps_suppressed
            old.close()
            self.tracer = self.engine.tracer

    def _binary_loop(
        self, binary: BinaryIO, writer: TextIO, state: WireIngest
    ) -> Tuple[int, int, bool]:
        """Consume binary frames until EOF; returns (events, races, stop?)."""
        events = 0
        races = 0
        while True:
            try:
                frame = read_frame(binary)
            except ValueError as exc:
                self._note_bad_input(f"<torn wire frame: {exc}>")
                writer.write(f"error {exc}\n")
                writer.flush()
                return events, races, False
            if frame is None:
                return events, races, False
            frame_type, payload = frame
            if frame_type == FRAME_EVENTS:
                try:
                    with self._lock:
                        count = self.engine.submit_wire_frame(payload, state)
                except Exception as exc:
                    # the records ahead of a bad one were ingested
                    events += getattr(exc, "applied", None) or 0
                    self._note_bad_input(
                        f"<binary frame of {len(payload)}B: {exc}>", error=exc
                    )
                    writer.write(f"error bad event frame: {exc}\n")
                    writer.flush()
                    continue
                events += count
                races += self._write_races(writer, self.poll_reports())
            elif frame_type == FRAME_CONTROL:
                line = payload.decode("utf-8", "replace").strip()
                if is_control(line):
                    command, args = parse_control(line)
                else:
                    command, args = line, ""
                if command == "binary":  # already negotiated; idempotent
                    writer.write("ok binary\n")
                    writer.flush()
                    continue
                stop, delta = self._control(command, args, writer, races, state)
                races += delta
                writer.flush()
                if stop:
                    return events, races, True
            elif frame_type == FRAME_TEXT:
                for raw in payload.decode("utf-8", "replace").splitlines():
                    line = raw.strip()
                    if not line or line.startswith("#"):
                        continue
                    seq = self.submit_line(line)
                    if seq is None:
                        writer.write(f"error unparseable event line: {line}\n")
                        writer.flush()
                        continue
                    events += 1
                    races += self._write_races(writer, self.poll_reports())
            else:
                writer.write(f"error unknown frame type {frame_type}\n")
                writer.flush()

    def _write_races(self, writer: TextIO, reports: List[SeqReport]) -> int:
        if not reports:
            return 0
        t0 = self.tracer.clock()
        for seq, report in reports:
            writer.write(format_race(seq, report) + "\n")
        writer.flush()
        self.tracer.observe("report", t0, n=len(reports))
        return len(reports)

    def tail_file(
        self,
        path: str,
        writer: TextIO,
        follow: bool = False,
        poll_interval: float = 0.05,
    ) -> int:
        """Ingest a trace file incrementally; returns the race count.

        With ``follow=True`` the file is tailed until :meth:`request_shutdown`
        is called (the ``tail -f`` deployment: a recorder appends, the
        service detects behind it).
        """
        stop = (lambda: self._shutdown.is_set()) if follow else None
        races = 0
        events = 0

        def drain_idle() -> None:
            # Keep reporting while the file is quiet: the interval flusher
            # pushes partial batches, and their races should not wait for
            # the next appended event to be surfaced.
            nonlocal races
            races += self._write_races(writer, self.poll_reports())

        try:
            for event in follow_trace(
                path, poll_interval=poll_interval, stop=stop, on_idle=drain_idle
            ):
                self.submit_event(event)
                events += 1
                races += self._write_races(writer, self.poll_reports())
        except KeyboardInterrupt:
            # Ctrl-C on a followed file acts like a shutdown request: fall
            # through to the drain below so pending races and the summary
            # still reach the writer.
            self._shutdown.set()
        races += self._write_races(writer, self.barrier())
        writer.write(summary_line("eof", events=events, races=races) + "\n")
        writer.flush()
        return races

    # -- lifecycle ---------------------------------------------------------------

    def graceful_drain(
        self, writer: Optional[TextIO] = None, timeout: float = 30.0
    ) -> str:
        """SIGTERM path: final barrier, flight-recorder flush, terminal stats.

        Drains every in-flight batch so races completed by already-accepted
        events are reported instead of dropped, dumps the flight rings (when
        a dump directory is configured), and returns one terminal ``ok
        drain ...`` summary line (also written to ``writer`` when given).
        Ends by signalling shutdown; safe to call more than once.
        """
        # The lock acquire is best-effort with a timeout: a signal handler
        # runs on the main thread, which may itself hold the (non-reentrant)
        # ingestion lock -- a partial drain beats a deadlock on the way out.
        reports: List[SeqReport] = []
        locked = self._lock.acquire(timeout=timeout)
        try:
            if locked:
                reports = self.engine.barrier()
                self._races_seen += len(reports)
        except Exception:
            pass  # a torn drain still reports whatever it managed to collect
        finally:
            if locked:
                self._lock.release()
        if writer is not None and reports:
            self._write_races(writer, reports)
        dumps = self.dump_flight_recorders("drain")
        # Counters are read without the lock on purpose (see above); they are
        # monotonic ints, so the worst case is a slightly stale terminal line.
        line = summary_line(
            "drain",
            drained=int(locked),
            events=self.engine.events_ingested,
            races=self._races_seen,
            flightrec_dumps=len(dumps),
        )
        if writer is not None:
            writer.write(line + "\n")
            writer.flush()
        self.request_shutdown()
        return line

    def request_shutdown(self) -> None:
        """Signal every follow/flush loop (and a hosting server) to stop."""
        self._shutdown.set()
        callback = getattr(self, "on_shutdown", None)
        if callback is not None:
            callback()

    @property
    def shutdown_requested(self) -> bool:
        return self._shutdown.is_set()

    def close(self) -> None:
        self._shutdown.set()
        if self._flusher is not None:
            self._flusher.join(timeout=2.0)
        with self._lock:
            self.engine.close()

    def __enter__(self) -> "RaceDetectionService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# -- socket transports ---------------------------------------------------------


class _StreamHandler(socketserver.StreamRequestHandler):
    def handle(self) -> None:  # pragma: no cover - exercised via sockets in tests
        reader = (raw.decode("utf-8", "replace") for raw in self.rfile)
        writer = _TextOverBinary(self.wfile)
        try:
            # rfile is a BufferedReader: readline/read can be mixed safely,
            # so the same stream serves text lines and binary frames.
            self.server.service.handle_stream(reader, writer, binary=self.rfile)
        except (BrokenPipeError, ConnectionResetError):
            pass


class _TextOverBinary:
    """Minimal text adapter over a binary socket file (write/flush only)."""

    def __init__(self, binary) -> None:
        self._binary = binary

    def write(self, text: str) -> int:
        self._binary.write(text.encode("utf-8"))
        return len(text)

    def flush(self) -> None:
        self._binary.flush()


class _ThreadedTCPServer(socketserver.ThreadingMixIn, socketserver.TCPServer):
    allow_reuse_address = True
    daemon_threads = True


def serve_tcp(service: RaceDetectionService, host: str, port: int):
    """A threaded TCP server bound to the service; caller runs serve_forever()."""
    server = _ThreadedTCPServer((host, port), _StreamHandler)
    server.service = service
    service.on_shutdown = lambda: threading.Thread(
        target=server.shutdown, daemon=True
    ).start()
    return server


if hasattr(socketserver, "UnixStreamServer"):

    class _ThreadedUnixServer(
        socketserver.ThreadingMixIn, socketserver.UnixStreamServer
    ):
        daemon_threads = True

    def serve_unix(service: RaceDetectionService, path: str):
        """A threaded Unix-socket server bound to the service."""
        server = _ThreadedUnixServer(path, _StreamHandler)
        server.service = service
        service.on_shutdown = lambda: threading.Thread(
            target=server.shutdown, daemon=True
        ).start()
        return server

else:  # pragma: no cover - Windows

    def serve_unix(service: RaceDetectionService, path: str):
        raise OSError("Unix domain sockets are not available on this platform")
