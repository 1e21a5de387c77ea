"""A plain-text serialization for traces.

One event per line::

    <tid> <index> <kind> <args...>

where ``kind`` and ``args`` are:

* ``alloc <obj>``
* ``read <obj> <field>`` / ``write <obj> <field>``
* ``vread <obj> <field>`` / ``vwrite <obj> <field>``
* ``acq <obj>`` / ``rel <obj>``
* ``fork <tid>`` / ``join <tid>``
* ``commit R <obj>.<field> ... W <obj>.<field> ...``

Lines starting with ``#`` and blank lines are ignored.  The format exists so
recorded executions can be stored as fixtures, diffed in code review, and
replayed against any detector from the command line.

Paths ending in ``.gz`` are compressed transparently on both ends, so large
recorded streams (e.g. the service benchmark's workload traces) can live
in-repo at a fraction of the size.  :func:`iter_trace` parses lazily for
streaming consumers, and :func:`follow_lines` / :func:`follow_trace` tail a
growing file incrementally, ``tail -f`` style (``repro-serve --tail``).

:func:`iter_records` is the fast path from trace text to the kernel: it
encodes blocks of lines straight into packed integer records, one loop per
block (:mod:`repro.core.encode`), without ever constructing ``Event``
objects.
``repro-race analyze`` hands its arrays to the kernel, and
:func:`iter_packed_frames` wraps them in wire frames, so a gzipped trace
can be replayed against a binary-mode service at frame granularity.

Both grammars -- :func:`parse_event` and
:meth:`~repro.core.encode.EventEncoder.encode_lines` -- refuse exactly the
same lines; read from a file, a bad line raises
:class:`TraceFormatError`, which names its line number.
"""

from __future__ import annotations

import gzip
import time
from array import array
from contextlib import contextmanager
from itertools import islice
from typing import (
    TYPE_CHECKING,
    Callable,
    Iterable,
    Iterator,
    List,
    Optional,
    TextIO,
    Tuple,
    Union,
)

from ..core.actions import (
    Acquire,
    Alloc,
    Commit,
    DataVar,
    Event,
    Fork,
    Join,
    Obj,
    Read,
    Release,
    Tid,
    VolatileRead,
    VolatileVar,
    VolatileWrite,
    Write,
)

if TYPE_CHECKING:  # pragma: no cover - typing only; imported lazily at use
    from ..core.encode import EventEncoder


class TraceFormatError(ValueError):
    """A trace line that does not parse; ``lineno`` counts from 1."""

    def __init__(self, lineno: int, problem: Exception) -> None:
        super().__init__(f"line {lineno}: {problem}")
        self.lineno = lineno


def _fmt_var(var: DataVar) -> str:
    return f"{var.obj.value}.{var.field}"


def _parse_var(text: str) -> DataVar:
    obj_part, dot, field = text.partition(".")
    if not dot:
        raise ValueError(f"malformed variable token {text!r}")
    return DataVar(Obj(int(obj_part)), field)


def format_event(event: Event) -> str:
    """One-line rendering of an event (inverse of :func:`parse_event`)."""
    tid, index, action = event.tid.value, event.index, event.action
    prefix = f"{tid} {index}"
    if isinstance(action, Alloc):
        return f"{prefix} alloc {action.obj.value}"
    if isinstance(action, Read):
        return f"{prefix} read {action.var.obj.value} {action.var.field}"
    if isinstance(action, Write):
        return f"{prefix} write {action.var.obj.value} {action.var.field}"
    if isinstance(action, VolatileRead):
        return f"{prefix} vread {action.var.obj.value} {action.var.field}"
    if isinstance(action, VolatileWrite):
        return f"{prefix} vwrite {action.var.obj.value} {action.var.field}"
    if isinstance(action, Acquire):
        return f"{prefix} acq {action.obj.value}"
    if isinstance(action, Release):
        return f"{prefix} rel {action.obj.value}"
    if isinstance(action, Fork):
        return f"{prefix} fork {action.child.value}"
    if isinstance(action, Join):
        return f"{prefix} join {action.child.value}"
    if isinstance(action, Commit):
        reads = " ".join(sorted(_fmt_var(v) for v in action.reads))
        writes = " ".join(sorted(_fmt_var(v) for v in action.writes))
        return f"{prefix} commit R {reads} W {writes}".rstrip()
    raise TypeError(f"unknown action: {action!r}")


def parse_event(line: str) -> Event:
    """Parse one line produced by :func:`format_event`.

    A malformed line raises ``ValueError``; it is the line
    :meth:`~repro.core.encode.EventEncoder.encode_lines` refuses too, and
    tokens past the ones a kind takes are ignored by both.
    """
    parts = line.split()
    try:
        return _parse_parts(parts)
    except IndexError:
        raise ValueError(f"too few fields in event line {line!r}") from None


def _parse_parts(parts: List[str]) -> Event:
    tid, index, kind = Tid(int(parts[0])), int(parts[1]), parts[2]
    args = parts[3:]
    if kind == "alloc":
        return Event(tid, index, Alloc(Obj(int(args[0]))))
    if kind in ("read", "write"):
        var = DataVar(Obj(int(args[0])), args[1])
        return Event(tid, index, Read(var) if kind == "read" else Write(var))
    if kind in ("vread", "vwrite"):
        vvar = VolatileVar(Obj(int(args[0])), args[1])
        action = VolatileRead(vvar) if kind == "vread" else VolatileWrite(vvar)
        return Event(tid, index, action)
    if kind == "acq":
        return Event(tid, index, Acquire(Obj(int(args[0]))))
    if kind == "rel":
        return Event(tid, index, Release(Obj(int(args[0]))))
    if kind == "fork":
        return Event(tid, index, Fork(Tid(int(args[0]))))
    if kind == "join":
        return Event(tid, index, Join(Tid(int(args[0]))))
    if kind == "commit":
        # args look like: R v1 v2 ... W v3 v4 ...
        if not args or args[0] != "R":
            raise ValueError(f"malformed commit: {' '.join(parts)!r}")
        w_at = args.index("W")  # ValueError when absent, like encode_lines
        reads = frozenset(_parse_var(a) for a in args[1:w_at])
        writes = frozenset(_parse_var(a) for a in args[w_at + 1 :])
        return Event(tid, index, Commit(reads, writes))
    raise ValueError(f"unknown event kind {kind!r}")


def _open_path(path: str, mode: str) -> TextIO:
    """Open a trace path for text I/O, gunzipping ``.gz`` transparently."""
    if path.endswith(".gz"):
        return gzip.open(path, mode + "t", encoding="utf-8")
    return open(path, mode, encoding="utf-8")


def dump_trace(events: Iterable[Event], dest: Union[TextIO, str]) -> None:
    """Write a trace to a file object or path (``.gz`` paths are compressed)."""
    lines = "\n".join(format_event(e) for e in events) + "\n"
    if isinstance(dest, str):
        with _open_path(dest, "w") as handle:
            handle.write(lines)
    else:
        dest.write(lines)


def load_trace(source: Union[TextIO, str]) -> List[Event]:
    """Read a whole trace from a file object or path (``.gz`` supported)."""
    return list(iter_trace(source))


def iter_trace(source: Union[TextIO, str]) -> Iterator[Event]:
    """Parse a trace lazily, one event at a time.

    Unlike :func:`load_trace` this never materializes the text, so it works
    on streams much larger than memory and on pipes that produce events
    incrementally.
    """
    with open_lines(source) as handle:
        yield from _iter_lines(handle)


@contextmanager
def open_lines(source: Union[Iterable[str], str]) -> Iterator[Iterable[str]]:
    """The lines of a path (``.gz`` supported) or of an open text source."""
    if isinstance(source, str):
        with _open_path(source, "r") as handle:
            yield handle
    else:
        yield source


def _iter_lines(handle: Iterable[str]) -> Iterator[Event]:
    for lineno, line in enumerate(handle, 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            event = parse_event(line)
        except ValueError as exc:
            raise TraceFormatError(lineno, exc) from exc
        yield event


def iter_records(
    source: Union[Iterable[str], str],
    encoder: "EventEncoder",
    events_per_chunk: int = 512,
) -> Iterator[Tuple[array, array]]:
    """Encode trace text into ``(records, extras)`` arrays, chunk by chunk.

    Each chunk holds up to ``events_per_chunk`` packed records (see
    :mod:`repro.core.encode`) and the extras their commits point into, in
    ``encoder``'s id space.  The lines are read in blocks, and each
    block's event lines are encoded in one loop by
    :meth:`~repro.core.encode.EventEncoder.encode_lines`, the run method
    the service's edge uses, so no ``Event`` object exists on this path.
    A chunk is yielded as soon as it fills, with every id it names already
    interned: a kernel that shares the encoder's interner can apply it at
    once.

    The ``seq`` column holds a running count of the events read.  A data
    access the encoder's admission filter drops takes its ``seq`` but no
    record, as at the service's edge.  A malformed line raises
    :class:`TraceFormatError` with its line number.
    """
    records = array("q")
    extras = array("q")
    seq = 0
    lineno = 0  # lines read before the current block
    with open_lines(source) as handle:
        unread = iter(handle)  # a list is read on, not again from its start
        while True:
            # a block of at most ``room`` lines cannot overfill the chunk
            room = events_per_chunk - len(records) // 6
            block = list(islice(unread, room))
            if not block:
                break
            lines = [line for line in map(str.strip, block) if line and line[0] != "#"]
            taken, _data, _filtered, _foreign, error = encoder.encode_lines(
                lines, records, extras, seq
            )
            seq += taken
            if error is not None:
                raise TraceFormatError(lineno + _block_lineno(block, taken), error) from error
            lineno += len(block)
            if len(records) >= 6 * events_per_chunk:
                yield records, extras
                records = array("q")
                extras = array("q")
    if records:
        yield records, extras


def _block_lineno(block: List[str], k: int) -> int:
    """The 1-based line number in ``block`` of its ``k``-th event line."""
    numbers = [n for n, line in enumerate(block, 1) if line.strip()[:1] not in ("", "#")]
    return numbers[k]


def iter_packed_frames(
    source: Union[Iterable[str], str],
    events_per_frame: int = 512,
    encoder: Optional["EventEncoder"] = None,
) -> Iterator[bytes]:
    """Read a text trace straight into packed wire frames.

    Each yielded ``bytes`` value is one :func:`repro.core.encode.encode_frame`
    payload carrying one :func:`iter_records` chunk of up to
    ``events_per_frame`` events plus the interner delta the receiver needs
    -- exactly what a binary-mode client ships in a ``FRAME_EVENTS``
    frame.  ``.gz`` paths decompress transparently.

    Receivers that assign their own sequence numbers (the service does)
    ignore the ``seq`` column.  Pass a shared ``encoder`` to keep one id
    space across several files; the caller then owns cursor bookkeeping
    for any *additional* receivers.
    """
    from ..core.encode import EventEncoder, encode_frame

    if encoder is None:
        encoder = EventEncoder()
    cursor = len(encoder.interner)
    for records, extras in iter_records(source, encoder, events_per_frame):
        frame = encode_frame(
            cursor, encoder.interner.elements_since(cursor), records, extras
        )
        cursor = len(encoder.interner)
        yield frame


def follow_lines(
    path: str,
    poll_interval: float = 0.05,
    stop: Optional[Callable[[], bool]] = None,
) -> Iterator[List[str]]:
    """Tail a growing trace file, yielding the complete lines of each read.

    Reads through the current end of file, then polls every
    ``poll_interval`` seconds for more data (``tail -f``).  Each read's
    complete lines come out as one list, unstripped and unfiltered.  A
    partially written last line is held back until its newline arrives,
    so a writer mid-``write()`` never produces a torn line.  Iteration ends
    when ``stop()`` returns true and the file is exhausted; with no
    ``stop`` callback a plain end-of-file ends it (one pass, no waiting).

    Compressed traces are read through but cannot be followed: gzip has no
    well-defined "current end" to poll past.
    """
    if path.endswith(".gz") and stop is not None:
        raise ValueError("cannot follow a .gz trace; decompress it first")
    buffer = ""
    with _open_path(path, "r") as handle:
        while True:
            chunk = handle.read(65536)
            if chunk:
                buffer += chunk
                *complete, buffer = buffer.split("\n")
                if complete:
                    yield complete
                continue
            if stop is None or stop():
                break
            time.sleep(poll_interval)
    if buffer:
        yield [buffer]


def follow_trace(
    path: str,
    poll_interval: float = 0.05,
    stop: Optional[Callable[[], bool]] = None,
) -> Iterator[Event]:
    """Tail a growing trace file, yielding events as lines are appended.

    :func:`follow_lines`, parsed: blank and ``#`` lines are skipped, and a
    malformed line raises :class:`TraceFormatError`.
    """
    batches = follow_lines(path, poll_interval, stop)
    yield from _iter_lines(line for lines in batches for line in lines)
