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

:func:`iter_packed_frames` is the fast path from a stored trace to the
binary wire: it encodes text lines straight into packed integer frames
(:mod:`repro.core.encode`) without ever constructing ``Event`` objects, so
a gzipped trace can be replayed against a binary-mode service at frame
granularity.
"""

from __future__ import annotations

import gzip
import time
from array import array
from typing import Callable, Iterable, Iterator, List, Optional, TextIO, Union

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


def _fmt_var(var: DataVar) -> str:
    return f"{var.obj.value}.{var.field}"


def _parse_var(text: str) -> DataVar:
    obj_part, _, field = text.partition(".")
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
    """Parse one line produced by :func:`format_event`."""
    parts = line.split()
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
        assert args and args[0] == "R", f"malformed commit line: {line!r}"
        w_at = args.index("W")
        reads = frozenset(_parse_var(a) for a in args[1:w_at])
        writes = frozenset(_parse_var(a) for a in args[w_at + 1 :])
        return Event(tid, index, Commit(reads, writes))
    raise ValueError(f"unknown event kind {kind!r} in line {line!r}")


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
    incrementally (``repro-race analyze -`` reading from a shell pipeline).
    """
    if isinstance(source, str):
        with _open_path(source, "r") as handle:
            yield from _iter_lines(handle)
    else:
        yield from _iter_lines(source)


def _iter_lines(handle: Iterable[str]) -> Iterator[Event]:
    for line in handle:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        yield parse_event(line)


def iter_packed_frames(
    source: Union[TextIO, str],
    events_per_frame: int = 512,
    encoder: Optional["EventEncoder"] = None,
) -> Iterator[bytes]:
    """Read a text trace straight into packed wire frames.

    Each yielded ``bytes`` value is one :func:`repro.core.encode.encode_frame`
    payload carrying up to ``events_per_frame`` events plus the interner
    delta the receiver needs -- exactly what a binary-mode client ships in a
    ``FRAME_EVENTS`` frame.  Lines are encoded via
    :meth:`~repro.core.encode.EventEncoder.encode_line`, so no ``Event``
    objects exist on this path; ``.gz`` paths decompress transparently.

    The ``seq`` column holds a local running count -- receivers that assign
    their own sequence numbers (the service does) ignore it.  Pass a shared
    ``encoder`` to keep one id space across several files; the caller then
    owns cursor bookkeeping for any *additional* receivers.
    """
    from ..core.encode import EventEncoder, encode_frame

    if encoder is None:
        encoder = EventEncoder()
    cursor = len(encoder.interner)
    records = array("q")
    extras = array("q")
    pending = 0
    seq = 0

    def _frame() -> bytes:
        nonlocal cursor
        frame = encode_frame(
            cursor, encoder.interner.elements_since(cursor), records, extras
        )
        cursor = len(encoder.interner)
        return frame

    if isinstance(source, str):
        handle_cm = _open_path(source, "r")
    else:
        handle_cm = None
    handle = handle_cm if handle_cm is not None else source
    try:
        for line in handle:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            op, tid_id, index, a, b, extra_ints = encoder.encode_line(line)
            if extra_ints is not None:
                a = len(extras)
                extras.extend(extra_ints)
            records.extend((op, seq, tid_id, index, a, b))
            seq += 1
            pending += 1
            if pending >= events_per_frame:
                yield _frame()
                records = array("q")
                extras = array("q")
                pending = 0
        if pending:
            yield _frame()
    finally:
        if handle_cm is not None:
            handle_cm.close()


def follow_lines(
    path: str,
    poll_interval: float = 0.05,
    stop: Optional[Callable[[], bool]] = None,
    on_idle: Optional[Callable[[], None]] = None,
) -> Iterator[List[str]]:
    """Tail a growing trace file, yielding the complete lines of each read.

    Reads through the current end of file, then polls every
    ``poll_interval`` seconds for more data (``tail -f``).  Each read's
    complete lines come out as one list, unstripped and unfiltered.  A
    partially written last line is held back until its newline arrives,
    so a writer mid-``write()`` never produces a torn line.  Iteration ends
    when ``stop()`` returns true and the file is exhausted; with no
    ``stop`` callback a plain end-of-file ends it (one pass, no waiting).

    ``on_idle`` is invoked once per empty poll cycle, before sleeping.  A
    consumer that does background work (the streaming service draining
    detection results) hooks it to stay responsive while the file is quiet
    -- the generator otherwise blocks inside ``next()`` and would give it
    no chance to run.

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
            if on_idle is not None:
                on_idle()
            time.sleep(poll_interval)
    if buffer:
        yield [buffer]


def follow_trace(
    path: str,
    poll_interval: float = 0.05,
    stop: Optional[Callable[[], bool]] = None,
    on_idle: Optional[Callable[[], None]] = None,
) -> Iterator[Event]:
    """Tail a growing trace file, yielding events as lines are appended.

    :func:`follow_lines`, parsed: blank and ``#`` lines are skipped, and a
    malformed line raises ``ValueError``.
    """
    for lines in follow_lines(path, poll_interval, stop, on_idle):
        yield from _iter_lines(lines)
