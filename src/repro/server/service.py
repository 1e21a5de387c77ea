"""The long-lived streaming race-detection service.

:class:`RaceDetectionService` wraps a :class:`~repro.server.engine.ShardedEngine`
with the ingestion layer: line framing, per-connection sequencing (one
global ingestion lock assigns monotone sequence numbers across every
connection, so all clients feed a single coherent execution), and the
control commands of :mod:`repro.server.protocol`.

Transports, all sharing one service (and therefore one detection domain):

* :meth:`handle_stream` -- a ``(reader, writer)`` pair: a byte stream (or
  text lines) in, text out; used directly for stdin mode and by every
  socket connection.  A *run* is what one read of the transport delivered:
  its lines go to the engine in one ingestion call, unscanned, so locking,
  timing, report polling and the kernel's apply cost once per read, not
  per line;
* :func:`serve_tcp` / :func:`serve_unix` -- threaded socket servers;
* :meth:`tail_file` -- incremental ingestion of a growing trace file
  (:func:`repro.trace.io.follow_lines`), through the same text edge.

Every ingestion call -- a run of text lines, a binary event frame, one
:meth:`RaceDetectionService.submit_line` -- is applied before it returns:
the engine pushes its records to the kernel in one array at its end, so
no record stays buffered between calls, and the reports it takes, in
``seq`` order, are exactly the races its own events completed.  A stream
-- a connection, stdin, a tailed file -- writes them at once, so every
race goes to the stream whose event completed it, and ``!flush``,
``!shutdown`` and EOF only write their ``ok`` lines.
"""

from __future__ import annotations

import base64
import contextlib
import json
import os
import socketserver
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import (
    Any,
    BinaryIO,
    Deque,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    TextIO,
    Tuple,
    Union,
)

from ..obs.bridge import registry_from_stats
from ..obs.slo import SloVerdict, SloWatchdog, apply_buckets_from_tracer
from ..obs.tracing import ObsConfig, fault_record
from ..trace.io import follow_lines
from .engine import EngineConfig, SeqReport, ShardedEngine, WireIngest
from .protocol import (
    CONTROL_PREFIX,
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
    commit_sync: str = "footprint"
    gc_threshold: Optional[int] = 50_000
    #: observability tunables (stage counters, span sampling, flight
    #: recorder); None means the defaults of :class:`~repro.obs.tracing.
    #: ObsConfig` -- counters on, sampling off, no dump directory
    obs: Optional[ObsConfig] = None
    #: static admission filter (:class:`repro.analysis.admission.
    #: AdmissionFilter`) dropping provably race-free data accesses at the
    #: edge; None admits everything.  Also settable at runtime via the
    #: ``!admit`` control verb.
    admit: Optional[object] = None
    #: retired: the kernel always runs in the service process.  Only "inline"
    #: is accepted, for callers written when process workers existed.
    workers: str = "inline"

    def __post_init__(self) -> None:
        if self.workers != "inline":
            raise ValueError(
                f"workers={self.workers!r}: the kernel runs in the service process "
                "only; run one repro-serve per core behind repro-cluster instead"
            )

    def engine_config(self) -> EngineConfig:
        return EngineConfig(
            n_shards=self.n_shards,
            commit_sync=self.commit_sync,
            gc_threshold=self.gc_threshold,
            obs=self.obs,
            admit=self.admit,
        )


class RaceDetectionService:
    """Shared ingestion front-end over one detection engine."""

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
        #: the reports of :meth:`submit_line`'s events, until
        #: :meth:`poll_reports` takes them
        self._reports: List[SeqReport] = []
        self._shutdown = threading.Event()

    # -- ingestion primitives (all engine access goes through the lock) --------

    def submit_line(self, line: str) -> Optional[int]:
        """Submit one event line; None (and a count) on bad input.

        The engine encodes the line straight into an integer record -- the
        text is parsed exactly once, service-side ``Event`` objects are
        never built.  The event is applied before the call returns; the
        races it completes wait for :meth:`poll_reports`.
        """
        t0 = self.tracer.clock()
        try:
            with self._lock:
                seq = self.engine.submit_line(line)
                self._reports.extend(self._applied())
        except Exception as exc:
            self._note_bad_input(line, error=exc)
            return None
        self.tracer.observe("ingest", t0)
        return seq

    def submit_lines(self, lines: Sequence[str]) -> Tuple[int, List[SeqReport]]:
        """Submit a run of event lines; returns ``(ingested, reports)``.

        The run is one engine call (:meth:`ShardedEngine.submit_lines`):
        one lock acquisition, two clock reads, one ``ingest`` observation
        and one kernel call, however long it is.  It is applied before the
        call returns; ``reports`` are the races its events completed, in
        ``seq`` order.  Lines are ingested up to the first one the edge
        refuses: that line is counted as a fault, and it and the lines
        after it are left to the caller (``lines[ingested]``).
        """
        ingested, error, reports = self._submit_run(lines)
        if error is not None:
            self._note_bad_input(lines[ingested], error)
        return ingested, reports

    def _submit_run(
        self, lines: Sequence[str]
    ) -> Tuple[int, Optional[ValueError], List[SeqReport]]:
        """:meth:`submit_lines` without the fault: ``(ingested, error,
        reports)``, for the text edge to judge the refused line itself."""
        t0 = self.tracer.clock()
        with self._lock:
            ingested, error = self.engine.submit_lines(lines)
            reports = self._applied()
        if ingested:
            self.tracer.observe("ingest", t0, n=ingested)
        return ingested, error, reports

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
        """The races of :meth:`submit_line`'s events not yet returned, in
        ``seq`` order (a stream's own races go to that stream)."""
        with self._lock:
            out, self._reports = self._reports, []
        return out

    def barrier(self) -> List[SeqReport]:
        """:meth:`poll_reports`: every event is applied before the call
        that submitted it returns, so nothing is left to flush."""
        return self.poll_reports()

    def _applied(self) -> List[SeqReport]:
        """Take the engine's reports, in ``seq`` order; caller holds the
        lock."""
        reports = self.engine.barrier()
        self._races_seen += len(reports)
        return reports

    def _drain_apply_errors(self) -> None:
        """Move the faults of records the kernel refused (an alloc naming a
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
                "filtered_vars": len(getattr(admit, "refused", ())),
            }
        return payload

    def dump_flight_recorders(self, reason: str = "signal") -> List[str]:
        """Write every group's flight window to disk (SIGTERM/crash path).

        The lock acquire is best-effort with a timeout: a SIGTERM handler
        runs on the main thread, which may already hold the ingestion lock
        -- on the death path a possibly-torn last frame beats a deadlock.
        """
        recorder = self.engine.recorder
        locked = self._lock.acquire(timeout=1.0)
        try:
            return recorder.dump_all(reason)
        finally:
            if locked:
                self._lock.release()

    # -- the stream protocol ----------------------------------------------------

    def handle_stream(
        self,
        reader: Union[BinaryIO, Iterable[str]],
        writer: TextIO,
        binary: Optional[BinaryIO] = None,
    ) -> int:
        """Serve one connection until EOF or ``!shutdown``; returns its race count.

        ``reader`` is the connection's input: a byte stream with ``read1``
        (a socket file, stdin's buffer), or text lines (a file object
        works).  Responses and race lines are written to ``writer``.  The
        final drain happens on EOF, so piping a complete trace in gives
        exactly the offline verdict.

        Each read of the transport is one run (:meth:`_submit_text`): its
        raw lines go to the engine in one ingestion call, ended early only
        by a line the encoder refuses, so every reply keeps its place in
        the stream and a run never waits for more input.  A run's races
        are written as soon as it is applied, before the next read: the
        connection writes the races its own events complete, and no others.

        ``binary`` is the connection's underlying byte stream, if it has
        one.  A ``!binary`` control line switches the client->server
        direction to length-prefixed frames read from it, starting with
        any bytes the read that held ``!binary`` took past it (replies
        stay text); on a purely textual transport (stdin) the request is
        answered with an ``error`` line and the stream continues as text.
        """
        tally = _Tally()
        state = WireIngest()
        reads = _TextReads(reader)
        for lines in reads:
            k = self._submit_text(lines, writer, tally, controls=True)
            while k < len(lines):
                command, args = parse_control(lines[k].strip())
                if command == "binary" and binary is not None:
                    writer.write("ok binary\n")
                    writer.flush()
                    frames = _Prefixed(reads.rest(k), binary)
                    if self._binary_loop(frames, writer, state, tally):
                        return tally.races
                    # binary EOF ends the connection: drain
                    return self._end_stream(writer, tally)
                stop = self._control(command, args, writer, state, tally)
                writer.flush()
                if stop:
                    return tally.races
                k = self._submit_text(lines, writer, tally, k + 1, controls=True)
        return self._end_stream(writer, tally)

    def _end_stream(self, writer: TextIO, tally: _Tally) -> int:
        """Write a stream's ``ok eof`` line; its races are written already."""
        writer.write(summary_line("eof", events=tally.events, races=tally.races) + "\n")
        writer.flush()
        return tally.races

    def _submit_text(
        self,
        lines: Sequence[str],
        writer: TextIO,
        tally: _Tally,
        start: int = 0,
        controls: bool = False,
    ) -> int:
        """Ingest raw lines from ``start`` on; returns the index of the
        control line that stopped it, or ``len(lines)``.

        An ingestion call takes lines up to the first one the encoder
        refuses, and only that line is looked at, stripped: a blank or
        ``#`` one is skipped, with the blank and ``#`` lines right after
        it, a ``!`` one is a control line if ``controls`` (a text frame or
        a tailed file has none), and any other is a fault, answered with
        one ``error`` line after the call's races.
        """
        end = len(lines)
        while start < end:
            ingested, error, reports = self._submit_run(
                lines[start:] if start else lines
            )
            tally.events += ingested
            tally.races += self._write_races(writer, reports)
            start += ingested
            if error is None:
                break
            line = lines[start].strip()
            if controls and line[:1] == CONTROL_PREFIX:
                return start
            start += 1
            if line and line[0] != "#":
                self._note_bad_input(line, error)
                writer.write(f"error unparseable event line: {line}\n")
                writer.flush()
            # a block of blank or comment lines costs no call per line
            while start < end and lines[start].strip()[:1] in ("", "#"):
                start += 1
        return end

    def _control(
        self,
        command: str,
        args: str,
        writer: TextIO,
        state: WireIngest,
        tally: _Tally,
    ) -> bool:
        """Run one control command; returns whether the stream stops.

        ``state`` is the connection's wire ingest state: ``!cluster`` marks
        it as the coordinator's.  Race lines written count in ``tally``.
        """
        if command in ("cluster", "adopt", "retire", "checkpoint"):
            try:
                self._cluster_control(command, args, writer, state)
            except Exception as exc:
                writer.write(f"error {command}: {exc}\n")
            return False
        if command == "ping":
            writer.write("ok pong\n")
            return False
        if command == "binary":  # a text stream with no byte stream under it
            writer.write("error binary mode needs a byte stream\n")
            return False
        if command == "admit":
            try:
                self._admit_control(args, writer)
            except Exception as exc:
                writer.write(f"error admit: {exc}\n")
            return False
        if command == "flush":
            # the stream's races are written already: count them
            flushed, tally.flushed = tally.races - tally.flushed, tally.races
            writer.write(summary_line("flush", races=flushed) + "\n")
            return False
        if command == "stats":
            writer.write("stats " + self.stats().to_json() + "\n")
            return False
        if command == "metrics":
            # The exposition is multi-line; the ok line announces how many
            # lines follow so clients can read the block without sniffing.
            lines = self.render_metrics().splitlines()
            writer.write(summary_line("metrics", lines=len(lines)) + "\n")
            for text_line in lines:
                writer.write(text_line + "\n")
            return False
        if command == "health":
            writer.write(
                "health " + json.dumps(self.health(), sort_keys=True) + "\n"
            )
            return False
        if command == "reset":
            with self._lock:
                self.engine.reset()
            writer.write("ok reset\n")
            return False
        if command == "shutdown":
            writer.write(summary_line("shutdown", races=tally.races) + "\n")
            writer.flush()
            self.request_shutdown()
            return True
        writer.write(f"error unknown control command {command!r}\n")
        return False

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
        """The ``!cluster``/``!adopt``/``!retire``/``!checkpoint`` verbs.
        Raises on bad input; the caller turns that into one ``error``
        line."""
        if command == "cluster":
            n_groups = int(args)
            with self._lock:
                self.engine.repartition(n_groups)
            state.keep_ids = True
            writer.write(summary_line("cluster", n_groups=n_groups) + "\n")
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

    def _binary_loop(
        self, binary: BinaryIO, writer: TextIO, state: WireIngest, tally: _Tally
    ) -> bool:
        """Consume binary frames until EOF or ``!shutdown``; True on the latter."""
        while True:
            try:
                frame = read_frame(binary)
            except ValueError as exc:
                self._note_bad_input(f"<torn wire frame: {exc}>")
                writer.write(f"error {exc}\n")
                writer.flush()
                return False
            if frame is None:
                return False
            frame_type, payload = frame
            if frame_type == FRAME_EVENTS:
                self._submit_frame(payload, writer, state, tally)
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
                stop = self._control(command, args, writer, state, tally)
                writer.flush()
                if stop:
                    return True
            elif frame_type == FRAME_TEXT:
                # every line of the payload is an event line, "!..." too
                text = payload.decode("utf-8", "replace")
                self._submit_text(text.splitlines(), writer, tally)
            else:
                writer.write(f"error unknown frame type {frame_type}\n")
                writer.flush()

    def _submit_frame(
        self, payload: bytes, writer: TextIO, state: WireIngest, tally: _Tally
    ) -> None:
        """Ingest one binary event frame and write the races it completed.

        A refused record is answered with one ``error`` line, after the
        races of the records ahead of it, which were applied.
        """
        error: Optional[Exception] = None
        with self._lock:
            try:
                count = self.engine.submit_wire_frame(payload, state)
            except Exception as exc:
                count = getattr(exc, "applied", None) or 0
                error = exc
                self._note_fault(
                    fault_record(f"<binary frame of {len(payload)}B: {exc}>", exc)
                )
            reports = self._applied()
        tally.events += count
        tally.races += self._write_races(writer, reports)
        if error is not None:
            writer.write(f"error bad event frame: {error}\n")
            writer.flush()

    def _write_races(self, writer: TextIO, reports: List[SeqReport]) -> int:
        if not reports:
            return 0
        t0 = self.tracer.clock()
        lines = [format_race(seq, report) for seq, report in reports]
        writer.write("\n".join(lines) + "\n")
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

        Each read of the file (at most 64 KiB) is one run through the text
        edge, as a connection's read is: every non-blank, non-comment line
        is an event line, ``!...`` too, a refused one is answered with an
        ``error`` line and counted, and the output is what ``--stdin``
        writes for the same file.  With
        ``follow=True`` the file is tailed until :meth:`request_shutdown`
        is called (the ``tail -f`` deployment: a recorder appends, the
        service detects behind it).
        """
        stop = (lambda: self._shutdown.is_set()) if follow else None
        tally = _Tally()
        try:
            for lines in follow_lines(path, poll_interval=poll_interval, stop=stop):
                self._submit_text(lines, writer, tally)
        except KeyboardInterrupt:
            # Ctrl-C on a followed file acts like a shutdown request.  A run
            # it cut short is applied here, so its races and the summary
            # still reach the writer.
            self._shutdown.set()
            with self._lock:
                reports = self._applied()
            tally.races += self._write_races(writer, reports)
        return self._end_stream(writer, tally)

    # -- lifecycle ---------------------------------------------------------------

    def graceful_drain(
        self, writer: Optional[TextIO] = None, timeout: float = 30.0
    ) -> str:
        """SIGTERM path: untaken reports, flight-recorder flush, terminal stats.

        Every accepted event is applied already; the races of
        :meth:`submit_line`'s events that :meth:`poll_reports` has not
        taken are written instead of dropped.  Then the flight ring is
        dumped (when a dump directory is configured), and one terminal
        ``ok drain ...`` summary line is returned (also written to
        ``writer`` when given).  Ends by signalling shutdown; safe to call
        more than once.
        """
        # The lock acquire is best-effort with a timeout: a signal handler
        # runs on the main thread, which may itself hold the (non-reentrant)
        # ingestion lock -- a partial drain beats a deadlock on the way out.
        reports: List[SeqReport] = []
        locked = self._lock.acquire(timeout=timeout)
        if locked:
            reports, self._reports = self._reports, []
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
        """Signal a followed tail (and a hosting server) to stop."""
        self._shutdown.set()
        callback = getattr(self, "on_shutdown", None)
        if callback is not None:
            callback()

    @property
    def shutdown_requested(self) -> bool:
        return self._shutdown.is_set()

    def close(self) -> None:
        self._shutdown.set()
        with self._lock:
            self.engine.close()

    def __enter__(self) -> "RaceDetectionService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# -- a connection's tally and the text edge's reads -----------------------------


class _Tally:
    """One stream's counts: the events and race lines of its ``ok eof``
    line, and its race lines as of its previous ``!flush``."""

    __slots__ = ("events", "races", "flushed")

    def __init__(self) -> None:
        self.events = 0
        self.races = 0
        self.flushed = 0


#: bytes one read takes from a byte stream: one transport buffer
READ_SIZE = 8192


class _TextReads:
    """A connection's input as a series of reads, each a sequence of lines.

    A byte stream is read with ``read1``, at most :data:`READ_SIZE` bytes
    at a time: a read returns what the transport already holds and waits
    only when it holds nothing.  The complete lines of a read are one
    read here (split at ``\\n``, decoded leniently); a partial last line
    waits for the next read, or for EOF.  A list or tuple of lines is
    one read, and any other iterable of lines gives one read per line.
    """

    def __init__(self, reader: Union[BinaryIO, Iterable[str]]) -> None:
        self._reader = reader
        #: the current read's bytes (its complete lines, then the rest)
        self._data = b""

    def __iter__(self) -> Iterator[Sequence[str]]:
        reader = self._reader
        if isinstance(reader, (list, tuple)):
            yield reader
            return
        read1 = getattr(reader, "read1", None)
        if read1 is None:
            for line in reader:
                yield (line,)
            return
        tail = b""
        while True:
            data = read1(READ_SIZE)
            if not data:
                break
            data = tail + data
            cut = data.rfind(b"\n")
            if cut < 0:
                tail = data
                continue
            self._data, tail = data, data[cut + 1 :]
            yield data[:cut].decode("utf-8", "replace").split("\n")
        if tail:
            self._data = b""
            yield (tail.decode("utf-8", "replace"),)

    def rest(self, k: int) -> bytes:
        """The bytes the current read holds past its line ``k``."""
        data, pos = self._data, 0
        for _ in range(k + 1):
            pos = data.find(b"\n", pos) + 1
            if not pos:
                return b""
        return data[pos:]


class _Prefixed:
    """A byte stream that yields ``prefix`` before reading on in ``stream``."""

    def __init__(self, prefix: bytes, stream: BinaryIO) -> None:
        self._prefix = prefix
        self._stream = stream

    def read(self, n: int) -> bytes:
        if self._prefix:
            out, self._prefix = self._prefix[:n], self._prefix[n:]
            return out
        return self._stream.read(n)


# -- socket transports ---------------------------------------------------------


class _StreamHandler(socketserver.StreamRequestHandler):
    def handle(self) -> None:  # pragma: no cover - exercised via sockets in tests
        writer = _TextOverBinary(self.wfile)
        try:
            # rfile is a BufferedReader: read1 serves the text edge, and
            # whatever a read took past ``!binary`` leads the frame reader
            # on the same stream.
            self.server.service.handle_stream(self.rfile, writer, binary=self.rfile)
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
        #: the socket file this server bound; closing the server removes it
        #: (a failed bind leaves None, so a live server's file is kept)
        _bound: Optional[str] = None

        def server_bind(self) -> None:
            super().server_bind()
            self._bound = self.server_address

        def server_close(self) -> None:
            super().server_close()
            path, self._bound = self._bound, None
            if path is not None:
                with contextlib.suppress(FileNotFoundError):
                    os.unlink(path)

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
