"""The streaming service's wire protocol.

Everything is line-oriented UTF-8, deliberately the same framing as the
trace format of :mod:`repro.trace.io` so any recorded trace *is* a valid
client stream (``cat trace.txt | repro-serve`` just works).

Client -> server, one line each:

* **event lines** -- exactly :func:`repro.trace.io.format_event` output:
  ``<tid> <index> <kind> <args...>``;
* blank lines and ``#`` comments, ignored;
* **control lines**, marked by a leading ``!``::

      !ping        liveness probe
      !flush       force the current batch through the kernel
      !stats       snapshot ServiceStats as one JSON line
      !metrics     the Prometheus text exposition: an ``ok metrics
                   lines=<n>`` line followed by exactly n exposition lines
      !health      one ``health <json>`` line: status, uptime, rates,
                   the fault ring, hosted groups
      !reset       restart detection from an empty execution
      !binary      switch this connection's client->server direction to
                   length-prefixed binary frames (see below)
      !shutdown    drain, acknowledge, and stop the service

  and the cluster verbs a coordinator uses to drive a node
  (``docs/CLUSTER.md``)::

      !cluster <n_groups>      re-partition into n_groups groups, none
                               hosted; this connection's frames keep their
                               interner ids and seq from then on
      !adopt <g> [b64]         host group g, fresh or from a checkpoint blob
      !retire <g>              stop hosting group g (drains it first)
      !checkpoint <g>          export group g; reply ``checkpoint <g> <b64>``

Server -> client, one line each:

* ``race <obj>.<field> <kind>:<tid>:<index>:<xact> <kind>:<tid>:<index>:<xact> seq=<n>``
  -- one detected race, streamed as soon as the batch containing its second
  access is processed (``seq`` is the ingestion sequence number of that
  access);
* ``stats <json>`` -- the ``!stats`` reply;
* ``health <json>`` -- the ``!health`` reply (older clients classify it as
  ``other`` and skip it, so the command is forward compatible);
* ``ok <command> [key=value ...]`` -- success acknowledgments;
* ``error <message>`` -- malformed event or control lines (the stream keeps
  going; errors are counted in :class:`~repro.server.stats.ServiceStats`).

**Binary mode** (opt-in; text stays the default).  A client sends the text
line ``!binary``; the server acknowledges with ``ok binary`` and from that
point on reads length-prefixed frames on the same connection::

    u8 frame-type, u32 payload-length (little-endian), payload bytes

with frame types

* ``FRAME_EVENTS`` (1) -- a packed event frame
  (:func:`repro.core.encode.encode_frame`): interner delta + int records;
* ``FRAME_CONTROL`` (2) -- one UTF-8 control line (``!flush`` etc.);
* ``FRAME_TEXT`` (3) -- UTF-8 event lines (escape hatch for mixed streams).

Server -> client traffic stays line-oriented text in both modes, so one
client implementation parses races and acknowledgments identically either
way.  Compatibility: a server that predates binary mode answers ``!binary``
with an ``error`` line and the connection simply continues in text mode.
"""

from __future__ import annotations

import struct
from typing import BinaryIO, NamedTuple, Optional, Tuple

from ..core.actions import DataVar, Obj, Tid
from ..core.encode import FrameFormatError
from ..core.report import AccessRef, RaceReport

__all__ = [
    "CONTROL_COMMANDS",
    "CONTROL_PREFIX",
    "FRAME_CONTROL",
    "FRAME_EVENTS",
    "FRAME_TEXT",
    #: the protocol's frame-decode error type (truncated data or an
    #: unknown kind byte; carries the offending byte as ``.kind``)
    "FrameFormatError",
    "format_race",
    "pack_frame",
    "parse_race",
    "parse_response",
    "parse_summary",
    "read_frame",
    "summary_line",
]

CONTROL_PREFIX = "!"
CONTROL_COMMANDS = (
    "ping",
    "flush",
    "stats",
    "metrics",
    "health",
    "reset",
    "binary",
    "shutdown",
    # static admission control (install/clear/report the edge filter)
    "admit",
    # cluster node verbs (coordinator -> node; see docs/CLUSTER.md)
    "cluster",
    "adopt",
    "retire",
    "checkpoint",
)

# -- binary framing (client -> server after `!binary` negotiation) -------------

#: payload is one packed event frame (repro.core.encode.encode_frame)
FRAME_EVENTS = 1
#: payload is one UTF-8 control line
FRAME_CONTROL = 2
#: payload is UTF-8 event lines (newline separated)
FRAME_TEXT = 3

_FRAME_HEADER = struct.Struct("<BI")
#: refuse absurd frames rather than allocating unboundedly
MAX_FRAME_LEN = 64 * 1024 * 1024


def pack_frame(frame_type: int, payload: bytes) -> bytes:
    """Wrap a payload in the ``u8 type + u32 length`` wire header."""
    return _FRAME_HEADER.pack(frame_type, len(payload)) + payload


def read_frame(stream: BinaryIO) -> Optional[Tuple[int, bytes]]:
    """Read one frame; ``None`` on clean EOF, ``ValueError`` on a torn one."""
    header = _read_exactly(stream, _FRAME_HEADER.size, allow_eof=True)
    if header is None:
        return None
    frame_type, length = _FRAME_HEADER.unpack(header)
    if length > MAX_FRAME_LEN:
        raise ValueError(f"frame of {length} bytes exceeds the {MAX_FRAME_LEN} cap")
    payload = _read_exactly(stream, length, allow_eof=False)
    return frame_type, payload


def _read_exactly(stream: BinaryIO, n: int, allow_eof: bool) -> Optional[bytes]:
    chunks = []
    remaining = n
    while remaining:
        chunk = stream.read(remaining)
        if not chunk:
            if allow_eof and remaining == n:
                return None
            raise ValueError("connection closed mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks) if chunks else b""


class RaceLine(NamedTuple):
    """A parsed ``race`` line -- the client-side mirror of a RaceReport."""

    var: DataVar
    first: AccessRef
    second: AccessRef
    seq: int

    def __str__(self) -> str:
        return (
            f"race on {self.var!r}: {self.first!r} is unordered with "
            f"{self.second!r} (seq {self.seq})"
        )


def is_control(line: str) -> bool:
    return line.startswith(CONTROL_PREFIX)


def parse_control(line: str) -> Tuple[str, str]:
    """Split ``!cmd args`` into ``(cmd, args)``; cmd is lowercased."""
    body = line[len(CONTROL_PREFIX) :].strip()
    cmd, _, args = body.partition(" ")
    return cmd.lower(), args.strip()


def _fmt_ref(ref: AccessRef) -> str:
    return f"{ref.kind}:{ref.tid.value}:{ref.index}:{int(ref.xact)}"


def _parse_ref(text: str) -> AccessRef:
    kind, tid, index, xact = text.split(":")
    return AccessRef(Tid(int(tid)), int(index), kind, bool(int(xact)))


def format_race(seq: int, report: RaceReport) -> str:
    """One-line rendering of a race report (inverse of :func:`parse_race`)."""
    var = report.var
    return (
        f"race {var.obj.value}.{var.field} "
        f"{_fmt_ref(report.first)} {_fmt_ref(report.second)} seq={seq}"
    )


def parse_race(line: str) -> RaceLine:
    """Parse a ``race`` line produced by :func:`format_race`."""
    parts = line.split()
    if len(parts) != 5 or parts[0] != "race":
        raise ValueError(f"malformed race line: {line!r}")
    obj_part, _, field = parts[1].partition(".")
    var = DataVar(Obj(int(obj_part)), field)
    seq = int(parts[4].partition("=")[2])
    return RaceLine(var, _parse_ref(parts[2]), _parse_ref(parts[3]), seq)


def parse_response(line: str) -> Tuple[str, str]:
    """Classify a server line into ``(kind, payload)``.

    ``kind`` is one of ``race``, ``stats``, ``health``, ``checkpoint``,
    ``ok``, ``error``, or ``other`` (unrecognized lines --
    forward-compatible clients skip them).
    """
    word, _, rest = line.partition(" ")
    if word in ("race", "stats", "health", "checkpoint", "ok", "error"):
        return word, rest
    return "other", line


def race_to_report(race: RaceLine, detector: str = "goldilocks") -> RaceReport:
    """Reconstitute a RaceReport (minus seq) from a parsed race line."""
    return RaceReport(
        var=race.var, first=race.first, second=race.second, detector=detector
    )


def summary_line(command: str, **info: object) -> str:
    """An ``ok`` acknowledgment line with sorted ``key=value`` details."""
    parts = [f"{key}={info[key]}" for key in sorted(info)]
    return " ".join(["ok", command] + parts)


def coerce_scalar(value: str):
    """An int only when the round trip is exact, otherwise the string.

    ``summary_line`` renders ints with ``str``, so anything that does not
    survive ``str(int(value)) == value`` -- ``"09"``, ``"+5"``, ``"--5"``,
    ``"1_0"`` -- was never an int it wrote and must stay textual (the old
    ``isdigit`` heuristic silently rewrote ``"09"`` to ``9`` and crashed on
    ``"--5"``).
    """
    try:
        number = int(value)
    except ValueError:
        return value
    return number if str(number) == value else value


def parse_summary(payload: str) -> Tuple[str, dict]:
    """Parse the payload of an ``ok`` line into (command, info dict)."""
    parts = payload.split()
    command = parts[0] if parts else ""
    info = {}
    for part in parts[1:]:
        key, _, value = part.partition("=")
        info[key] = coerce_scalar(value)
    return command, info
