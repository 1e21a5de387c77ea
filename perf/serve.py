"""``serve-text``: ``repro-serve`` over a Unix socket, fed text lines.

One benchmark process, two threads (sender and reader), one connection.
The server runs with default flags -- 1 shard, 1 process worker, packed
transport, encoded kernel, obs counters on -- so with the benchmark that
is 3 processes.  The server's processes share one CPU and the benchmark
takes the others (:func:`perf.procs.cpu_split`).

* **Phase A** is an open loop: 32-line chunks are due on a fixed schedule
  (10,000 events/s) whether or not the server keeps up.  A race line's
  latency is the time it is received minus the due time of the chunk
  carrying the event whose ``seq`` the line names.  ``!flush`` closes the
  phase, which also warms the server up.
* **Phase B** sends the next events in bursts of :data:`BURST` events.  A
  burst goes out as fast as socket backpressure allows, closed by
  ``!flush``, and lasts from its first byte to its ``ok flush``.  Each
  burst is paired with the no-detector replay of its own lines
  (:mod:`perf.replay`, in the benchmark process on the server's CPU while
  the server idles); the two alternate which runs first.  EOF follows the
  last burst.

``slowdown`` is the summed burst time over the summed replay time, so
host drift cancels; it comes from phase B alone.

The open-loop generator is checked: when it ran more than
:data:`LAG_LIMIT_MS` late at p99 or achieved under 98 % of its rate, phase
A is invalid -- its latencies measure the benchmark, not the server -- and
the run is marked invalid, so ``--repeat`` leaves its latencies out.  The
end-to-end metrics do not come from phase A, so they still count.
"""

from __future__ import annotations

import io
import json
import queue
import socket
import statistics
import subprocess
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from . import WORK, gen
from .layers import SpanRecorder, kernel_counter_metrics, traced_pass
from .outcome import Outcome
from .procs import (
    Children,
    connect_unix,
    cpu_split,
    pinned,
    python_argv,
    relative_socket_path,
    tree_peak_rss_mib,
)
from .reference import trace_races
from .replay import replay_seconds
from .stats import percentile

#: phase-A open-loop rate (events/s).  The server on its one CPU absorbs
#: about 25,000 events/s, and host speed swings by up to 2x, so at this rate
#: it keeps up even in a slow spell and latency measures the service, not a
#: growing backlog.
RATE = 10_000
#: events per open-loop chunk
CHUNK = 32
#: phase-B events per burst, and bursts per second of ``--seconds``
BURST = 25_000
BURSTS_PER_SECOND = 0.4
#: replay passes per burst (their median is the burst's no-detector time)
REPLAY_PASSES = 5
#: phase-A events per second of ``--seconds`` (0.2 s of open loop each)
PHASE_A_PER_SECOND = RATE // 5
#: validity guard on the open-loop generator.  It normally runs 0.1-1 ms
#: late at p99; when the shared host stalls it runs ~10 ms late, and the
#: server's latency is inflated alike.
LAG_LIMIT_MS = 5.0
RATE_FLOOR = 0.98
#: server start-ups timed per run (setup_s is their median)
SETUP_SAMPLES = 11
SOCKET = "serve.sock"


def sizes(seconds: int, smoke: bool) -> Tuple[int, int, int]:
    """``(phase-A events, bursts, events per burst)``; smoke runs are 1/50 size."""
    div = 50 if smoke else 1
    bursts = max(2, round(BURSTS_PER_SECOND * seconds))
    return PHASE_A_PER_SECOND * seconds // div, bursts, BURST // div


@dataclass
class Wire:
    """The exact bytes the client sends, built before any timing starts."""

    #: phase A, one entry per open-loop chunk
    chunks: List[bytes]
    #: phase B, one entry per burst, each ending in ``!flush``
    bursts: List[bytes]
    #: each burst's lines, for its no-detector replay
    replays: List[Sequence[str]]

    def stream(self) -> bytes:
        """Everything the client sends, as one byte string."""
        return b"".join(self.chunks + [FLUSH] + self.bursts)


FLUSH = b"!flush\n"


def build_wire(lines: Sequence[str], na: int, bursts: int, burst: int) -> Wire:
    """Phase-A chunks and the phase-B bursts, as text lines."""
    def text(part: Sequence[str]) -> str:
        return "\n".join(part) + "\n"

    chunks = [text(lines[i : min(i + CHUNK, na)]).encode() for i in range(0, na, CHUNK)]
    replays = [lines[na + k * burst : na + (k + 1) * burst] for k in range(bursts)]
    return Wire(chunks, [text(r).encode() + FLUSH for r in replays], replays)


class _Reader(threading.Thread):
    """Receives server lines and stamps each with its arrival time."""

    def __init__(self, sock: socket.socket) -> None:
        super().__init__(name="perf-reader", daemon=True)
        self.sock = sock
        self.races: List[Tuple[float, str]] = []
        self.errors: List[str] = []
        #: arrival time of each ``ok flush``
        self.flushes: "queue.Queue[float]" = queue.Queue()
        self.eof_at: Optional[float] = None
        self.eof_events = 0
        self.done = threading.Event()

    def run(self) -> None:
        pending = b""
        try:
            while True:
                data = self.sock.recv(1 << 16)
                if not data:
                    break
                now = time.perf_counter()
                pending += data
                *complete, pending = pending.split(b"\n")
                for raw in complete:
                    self._line(now, raw.decode("utf-8", "replace"))
        except OSError as exc:
            self.errors.append(f"error connection: {exc}")
        finally:
            self.done.set()

    def _line(self, now: float, line: str) -> None:
        if line.startswith("race "):
            self.races.append((now, line))
        elif line.startswith("ok flush"):
            self.flushes.put(now)
        elif line.startswith("ok eof"):
            self.eof_at = now
            self.eof_events = int(line.split("events=")[1].split()[0])
        elif line.startswith("error"):
            self.errors.append(line)

    def flushed(self) -> float:
        """Wait for the next ``ok flush``; returns its arrival time."""
        try:
            return self.flushes.get(timeout=120)
        except queue.Empty:
            raise RuntimeError("no 'ok flush' within 120 s") from None


def _recv_until(sock: socket.socket, marker: bytes, deadline: float) -> None:
    got = b""
    sock.settimeout(max(0.1, deadline - time.monotonic()))
    try:
        while marker not in got:
            data = sock.recv(4096)
            if not data:
                raise RuntimeError(f"server closed before {marker!r}")
            got += data
    finally:
        sock.settimeout(None)


def _start_server(
    children: Children, cpus: Set[int]
) -> Tuple[subprocess.Popen, float, socket.socket]:
    """Spawn ``repro-serve --unix`` on ``cpus``; returns (process, spawn->pong s, socket)."""
    path = WORK / SOCKET
    if path.exists():
        path.unlink()
    with (WORK / "serve.log").open("ab") as log, pinned(cpus):
        start = time.perf_counter()
        proc = children.spawn(
            python_argv("-m", "repro.server.cli", "--unix", SOCKET),
            cwd=str(WORK),
            stdout=subprocess.DEVNULL,
            stderr=log,
        )
    deadline = time.monotonic() + 60
    sock = connect_unix(relative_socket_path(path), deadline)
    sock.sendall(b"!ping\n")
    _recv_until(sock, b"ok pong\n", deadline)
    return proc, time.perf_counter() - start, sock


def _stop_server(proc: subprocess.Popen, sock: socket.socket) -> None:
    """``!shutdown`` on ``sock``, then wait for the server to exit."""
    sock.sendall(b"!shutdown\n")
    _recv_until(sock, b"ok shutdown", time.monotonic() + 60)
    sock.close()
    proc.wait(timeout=30)


def _scrape(sock: socket.socket) -> Tuple[dict, List[str]]:
    """``!stats`` and ``!metrics`` on a fresh connection."""
    handle = sock.makefile("rb")
    try:
        sock.sendall(b"!stats\n!metrics\n")
        stats = json.loads(handle.readline().decode().partition(" ")[2])
        header = handle.readline().decode()
        count = int(header.split("lines=")[1])
        exposition = [handle.readline().decode() for _ in range(count)]
    finally:
        handle.close()
    return stats, exposition


def stage_seconds(exposition: Sequence[str]) -> Dict[str, float]:
    """Per-stage busy seconds from the ``stage_latency_seconds`` histograms."""
    sums: Dict[str, float] = {}
    for line in exposition:
        if "stage_latency_seconds_sum{" in line:
            stage = line.split('stage="', 1)[1].split('"', 1)[0]
            sums[stage] = float(line.rsplit(" ", 1)[1])
    return {
        "obs.stage.ingest_s": sums.get("ingest", 0.0),
        "obs.stage.route_s": sums.get("route", 0.0),
        "obs.stage.queue_wait_s": sums.get("queue", 0.0) - sums.get("apply", 0.0),
        "obs.stage.apply_s": sums.get("apply", 0.0),
        "obs.stage.report_s": sums.get("report", 0.0),
    }


def scraped_layers(stats: dict, exposition: Sequence[str]) -> Dict[str, float]:
    """The per-layer counters an operator would scrape after ``ok eof``."""
    detector: Dict[str, int] = {}
    for shard in stats.get("shards", ()):
        for key, value in shard.get("detector", {}).items():
            detector[key] = detector.get(key, 0) + value
    layers: Dict[str, float] = {
        "server.service.parse_errors": stats.get("parse_errors", 0),
        "server.engine.batches_flushed": stats.get("batches_flushed", 0),
        "server.engine.backpressure_stalls": stats.get("backpressure_stalls", 0),
        "server.engine.queue_bytes": stats.get("queue_bytes", 0),
    }
    layers.update(stage_seconds(exposition))
    layers.update(kernel_counter_metrics(detector))
    return layers


def check(
    received: List[str], reference: List[str], eof_events: int, sent: int, errors: int
) -> Tuple[bool, int]:
    """``(correct, failed operations)`` for one served stream.

    Correct means the sorted race lines equal the reference and every sent
    event was acknowledged by ``ok eof events=N`` without an ``error``
    line; each error line and each missing event is a failed operation.
    """
    missing = max(0, sent - eof_events)
    return received == reference and missing == 0 and errors == 0, errors + missing


def _e2e(wire: Wire, na: int, sent: int, reference: List[str]) -> Outcome:
    period = CHUNK / RATE
    sut, client = cpu_split()
    with Children() as children, pinned(client):
        setup: List[float] = []
        for _ in range(SETUP_SAMPLES - 1):
            proc, elapsed, sock = _start_server(children, sut)
            setup.append(elapsed)
            _stop_server(proc, sock)
        proc, elapsed, sock = _start_server(children, sut)
        setup.append(elapsed)
        reader = _Reader(sock)
        reader.start()

        # Phase A: open loop.
        lags: List[float] = []
        t0 = time.perf_counter() + 0.005
        sent_last = t0
        for j, chunk in enumerate(wire.chunks):
            due = t0 + j * period
            now = time.perf_counter()
            if now < due:
                time.sleep(due - now)
                now = time.perf_counter()
            lags.append(now - due)
            sent_last = now
            sock.sendall(chunk)
        sock.sendall(FLUSH)
        reader.flushed()

        # Phase B: bursts at the maximum rate, each paired with its replay.
        burst_s: List[float] = []
        replay_s: List[float] = []

        def replay(lines: Sequence[str]) -> None:
            with pinned(sut):
                replay_s.append(replay_seconds(lines, REPLAY_PASSES))

        for k, (burst, lines) in enumerate(zip(wire.bursts, wire.replays)):
            if k % 2:
                replay(lines)
            start = time.perf_counter()
            sock.sendall(burst)
            burst_s.append(reader.flushed() - start)
            if not k % 2:
                replay(lines)
        sock.shutdown(socket.SHUT_WR)
        if not reader.done.wait(150) or reader.eof_at is None:
            raise RuntimeError("no 'ok eof' after phase B")
        sock.close()

        scrape_sock = connect_unix(relative_socket_path(WORK / SOCKET), time.monotonic() + 30)
        stats, exposition = _scrape(scrape_sock)
        rss = tree_peak_rss_mib(proc.pid)
        _stop_server(proc, scrape_sock)

    latencies = []
    for received, line in reader.races:
        seq = int(line.rsplit("seq=", 1)[1])
        if seq < na:
            latencies.append(1000.0 * (received - (t0 + (seq // CHUNK) * period)))
    if not latencies:
        raise RuntimeError("phase A produced no race lines to time")
    last_due = (len(wire.chunks) - 1) * period
    rate_achieved = last_due / (sent_last - t0) if sent_last > t0 else 1.0
    lag_p99 = 1000.0 * percentile(lags, 99)
    valid = lag_p99 <= LAG_LIMIT_MS and rate_achieved >= RATE_FLOOR
    layers = scraped_layers(stats, exposition)
    layers.update(
        {
            "gen.race_lat_p50_ms": percentile(latencies, 50),
            "gen.race_lat_p95_ms": percentile(latencies, 95),
            "gen.race_samples": len(latencies),
            "gen.lag_p99_ms": lag_p99,
            "gen.rate_achieved": rate_achieved,
        }
    )
    received = sorted(line for _, line in reader.races)
    correct, failed = check(received, reference, reader.eof_events, sent, len(reader.errors))
    burst_events = sent - na
    notes = [f"serve: {len(latencies)} phase-A race samples, {len(received)} races, "
             f"{len(burst_s)} bursts of {burst_events // len(burst_s)} events at "
             f"{burst_events / sum(burst_s):.0f} events/s"]
    if not correct:
        notes.append(
            f"output differs from the reference: {len(received)} vs {len(reference)} "
            f"races, {reader.eof_events} of {sent} events acknowledged, "
            f"{len(reader.errors)} error lines"
        )
    if not valid:
        notes.append(
            f"invalid phase A: generator lag p99 {lag_p99:.2f} ms, "
            f"rate {100 * rate_achieved:.1f} % of target"
        )
    return Outcome(
        metrics={
            "slowdown": sum(burst_s) / sum(replay_s),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": rss,
        },
        layers=layers,
        attempted=sent,
        failed=failed,
        correct=correct,
        valid=valid,
        notes=notes,
    )


def _traced(wire: Wire, reference: List[str], tag: str):
    """The same wire bytes through an in-process service with inline workers."""
    from repro.server.service import RaceDetectionService, ServiceConfig

    lines = wire.stream().decode().splitlines()

    def one_pass(recorder: Optional[SpanRecorder]) -> Tuple[float, List[str]]:
        service = RaceDetectionService(ServiceConfig(workers="inline"))
        out = io.StringIO()
        try:
            start = time.perf_counter()
            if recorder is None:
                service.handle_stream(lines, out)
            else:
                recorder.root(service.handle_stream, lines, out)
            elapsed = time.perf_counter() - start
        finally:
            service.close()
        races = sorted(l for l in out.getvalue().splitlines() if l.startswith("race "))
        return elapsed, races

    layers, races, missing = traced_pass(one_pass, tag)
    return layers, all(r == reference for r in races), missing


def run(seed: int, seconds: int, trace: bool, smoke: bool, use_cache: bool) -> Outcome:
    na, bursts, burst = sizes(seconds, smoke)
    sent = na + bursts * burst
    lines = gen.service_mix(seed, sent)
    reference = trace_races("service-mix", seed, lines, use_cache)
    wire = build_wire(lines, na, bursts, burst)
    WORK.mkdir(parents=True, exist_ok=True)
    outcome = _e2e(wire, na, sent, reference)
    if trace:
        layers, correct, missing = _traced(wire, reference, f"serve-text-s{seed}")
        outcome.layers.update(layers)
        outcome.correct = outcome.correct and correct
        outcome.notes.extend(f"missing {m}" for m in missing)
    return outcome
