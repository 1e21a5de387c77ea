"""A small client for the streaming race-detection service.

Speaks the line protocol of :mod:`repro.server.protocol` over a TCP or
Unix-domain socket.  Race lines can arrive interleaved with command
replies (the server streams them as soon as batches complete), so every
read loop collects them into :attr:`races` as a side effect; callers
either inspect :attr:`races` at the end or use the per-call return values.

Example::

    with ServiceClient.tcp("127.0.0.1", 7914) as client:
        for event in events:
            client.send_event(event)
        client.flush()              # sync point: all races for sent events are in
        print(client.stats().races_reported, client.races)

After :meth:`enable_binary` the client ships events as packed integer
frames (:mod:`repro.core.encode`) instead of text lines -- the encode-once
wire mode.  Replies stay text, so every read path below works unchanged;
if the server is too old for ``!binary`` the call returns ``False`` and
the connection simply continues in text mode.
"""

from __future__ import annotations

import json
import socket
from array import array
from typing import Iterable, List, Optional

from ..core.actions import Event
from ..core.encode import EventEncoder, encode_frame
from ..trace.io import format_event
from .protocol import (
    FRAME_CONTROL,
    FRAME_EVENTS,
    FRAME_TEXT,
    RaceLine,
    pack_frame,
    parse_race,
    parse_response,
    parse_summary,
)
from .stats import ServiceStats


class ServiceClient:
    """One connection to a running service."""

    #: events packed into one binary frame before it is shipped
    FRAME_EVENTS_BATCH = 512

    def __init__(self, sock: socket.socket) -> None:
        self._sock = sock
        self._reader = sock.makefile("r", encoding="utf-8", newline="\n")
        self._writer = sock.makefile("w", encoding="utf-8", newline="\n")
        #: every race line received so far, in arrival order
        self.races: List[RaceLine] = []
        self._binary = False
        self._encoder: Optional[EventEncoder] = None
        self._cursor = 1  # the server-side replica starts with just TL
        self._records = array("q")
        self._extras = array("q")
        self._pending = 0
        self._local_seq = 0

    @classmethod
    def tcp(cls, host: str, port: int, timeout: float = 10.0) -> "ServiceClient":
        sock = socket.create_connection((host, port), timeout=timeout)
        return cls(sock)

    @classmethod
    def unix(cls, path: str, timeout: float = 10.0) -> "ServiceClient":
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(timeout)
        sock.connect(path)
        return cls(sock)

    # -- binary mode -----------------------------------------------------------

    @property
    def binary(self) -> bool:
        """True once this connection ships events as packed frames."""
        return self._binary

    def enable_binary(self) -> bool:
        """Negotiate the packed binary wire mode; False if unsupported.

        Sends ``!binary`` and switches on ``ok binary``.  An ``error``
        reply (a pre-binary server) leaves the connection in text mode, so
        callers can attempt the upgrade unconditionally.
        """
        if self._binary:
            return True
        self._writer.write("!binary\n")
        self._writer.flush()
        while True:
            line = self._reader.readline()
            if not line:
                raise ConnectionError("server closed during !binary")
            kind, payload = parse_response(line.strip())
            if kind == "race":
                self.races.append(parse_race(line.strip()))
            elif kind == "ok" and payload == "binary":
                self._binary = True
                self._encoder = EventEncoder()
                return True
            elif kind == "error":
                return False

    def send_frame(self, frame_type: int, payload: bytes) -> int:
        """Ship one frame after :meth:`enable_binary`; returns the bytes
        written, header included.

        For callers that pack their own event frames: the cluster
        coordinator ships records in its own id space and ``seq``.
        """
        frame = pack_frame(frame_type, payload)
        self._sock.sendall(frame)
        return len(frame)

    def _flush_events(self) -> None:
        """Ship the pending packed records as one FRAME_EVENTS frame."""
        if not self._pending:
            return
        encoder = self._encoder
        payload = encode_frame(
            self._cursor,
            encoder.interner.elements_since(self._cursor),
            self._records,
            self._extras,
        )
        self._cursor = len(encoder.interner)
        self._records = array("q")
        self._extras = array("q")
        self._pending = 0
        self.send_frame(FRAME_EVENTS, payload)

    # -- sending ---------------------------------------------------------------

    def send_line(self, line: str) -> None:
        if self._binary:
            self._flush_events()
            self.send_frame(FRAME_TEXT, (line + "\n").encode("utf-8"))
            return
        self._writer.write(line + "\n")

    def send_event(self, event: Event) -> None:
        if self._binary:
            op, tid_id, index, a, b, extras = self._encoder.encode_event(event)
            if extras is not None:
                a = len(self._extras)
                self._extras.extend(extras)
            # seq is a placeholder: the server assigns the real one
            self._records.extend((op, self._local_seq, tid_id, index, a, b))
            self._local_seq += 1
            self._pending += 1
            if self._pending >= self.FRAME_EVENTS_BATCH:
                self._flush_events()
            return
        self.send_line(format_event(event))

    def stream(self, events: Iterable[Event]) -> None:
        """Send a batch of events (no flush; pipelined)."""
        if self._binary:
            for event in events:
                self.send_event(event)
            self._flush_events()
            return
        for event in events:
            self._writer.write(format_event(event) + "\n")
        self._writer.flush()

    # -- request/response ------------------------------------------------------

    def _command(self, command: str, reply_kind: str) -> str:
        """Send a control command, collect races until its reply arrives."""
        if self._binary:
            self._flush_events()
            self.send_frame(FRAME_CONTROL, f"!{command}".encode("utf-8"))
        else:
            self.send_line(f"!{command}")
            self._writer.flush()
        while True:
            line = self._reader.readline()
            if not line:
                raise ConnectionError(f"server closed during !{command}")
            kind, payload = parse_response(line.strip())
            if kind == "race":
                self.races.append(parse_race(line.strip()))
            elif kind == reply_kind:
                return payload
            elif kind == "error":
                raise RuntimeError(f"server error: {payload}")
            # "other": skip forward-compatibly

    def ping(self) -> bool:
        return self._command("ping", "ok") == "pong"

    def flush(self) -> int:
        """Sync point: every race completed by sent events is now in ``races``.

        The server writes each race as soon as the run or frame holding
        its completing access is applied, ahead of any later reply.
        Returns the server's ``ok flush races=N``: the race lines this
        connection got since its previous flush, also those already read
        while waiting for other replies.
        """
        payload = self._command("flush", "ok")
        _, info = parse_summary(payload)
        return int(info.get("races", 0))

    def stats(self) -> ServiceStats:
        return ServiceStats.from_json(self._command("stats", "stats"))

    def metrics(self) -> str:
        """The server's Prometheus text exposition (``!metrics``).

        The ``ok metrics lines=<n>`` acknowledgment announces the block
        length, so the exposition is read verbatim -- no per-line sniffing
        that could mistake a metric for a protocol reply.
        """
        payload = self._command("metrics", "ok")
        command, info = parse_summary(payload)
        if command != "metrics":
            raise RuntimeError(f"unexpected !metrics acknowledgment: {payload!r}")
        n_lines = int(info.get("lines", 0))
        lines = []
        for _ in range(n_lines):
            line = self._reader.readline()
            if not line:
                raise ConnectionError("server closed mid-exposition")
            lines.append(line.rstrip("\n"))
        return "\n".join(lines) + ("\n" if lines else "")

    def health(self) -> dict:
        """The server's ``!health`` snapshot as a dict."""
        return json.loads(self._command("health", "health"))

    def reset(self) -> None:
        self._command("reset", "ok")

    def shutdown(self) -> int:
        """Drain, stop the whole service; returns this connection's race count."""
        payload = self._command("shutdown", "ok")
        _, info = parse_summary(payload)
        return int(info.get("races", 0))

    def drain_eof(self) -> dict:
        """Half-close the send side, read until the server's ``ok eof`` line."""
        if self._binary:
            self._flush_events()
        else:
            self._writer.flush()
        self._sock.shutdown(socket.SHUT_WR)
        while True:
            line = self._reader.readline()
            if not line:
                return {}
            kind, payload = parse_response(line.strip())
            if kind == "race":
                self.races.append(parse_race(line.strip()))
            elif kind == "ok":
                command, details = parse_summary(payload)
                if command == "eof":
                    return details

    # -- lifecycle -------------------------------------------------------------

    def close(self) -> None:
        for stream in (self._writer, self._reader):
            try:
                stream.close()
            except OSError:
                pass
        try:
            self._sock.close()
        except OSError:
            pass

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def detect_over_socket(
    events: Iterable[Event],
    host: Optional[str] = None,
    port: Optional[int] = None,
    unix_path: Optional[str] = None,
    binary: bool = False,
) -> List[RaceLine]:
    """One-shot convenience: stream a trace, flush, return the race lines."""
    if unix_path is not None:
        client = ServiceClient.unix(unix_path)
    else:
        client = ServiceClient.tcp(host or "127.0.0.1", port or 7914)
    with client:
        if binary:
            client.enable_binary()
        client.stream(events)
        client.flush()
        return list(client.races)
