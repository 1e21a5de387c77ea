"""Encode-once event packing: the canonical integer record and frame format.

The ingestion edge translates every event exactly once into the kernel's
packed integer form; the router, the engine and the kernel itself then
operate on flat ``array('q')`` frames instead of Python objects.

A **record** is six signed 64-bit integers::

    [op, seq, tid_id, index, a, b]

``op`` extends the sync opcode space of :mod:`repro.core.actions` with
``OP_READ``/``OP_WRITE``/``OP_ALLOC`` so one column describes any event.
``tid_id`` and the ``(a, b)`` payload are interned element ids
(:class:`~repro.core.lockset.Interner`); for simple sync opcodes ``(a, b)``
is exactly the ``(key, gain)`` pair the kernel enqueues, so
:class:`~repro.core.kernel.EncodedGoldilocks` appends them verbatim --
zero per-event sync decoding.  Commits store in ``a`` an offset into the
frame's *extras* array, which holds the footprint as
``[n, var_id, is_write, var_id, is_write, ...]`` in the kernel's canonical
check order.  Allocs store the interned ``LockVar(obj)`` id as a proxy for
the object (``Obj`` itself is not a lockset element).

A **frame** is one immutable ``bytes`` value carrying an interner *delta*
(the elements the receiver has not seen yet, in id order) followed by the
records and extras::

    u8  version (=1)
    u32 base          -- receiver must hold exactly ``base`` elements
    u32 n_elements    -- delta entries, each:
                           u8 etype, payload (ints little-endian):
                           TID      i64 value
                           LOCK     i64 obj
                           VVAR     i64 obj, u16 len, utf-8 field
                           DVAR     i64 obj, u16 len, utf-8 field
    u32 n_record_ints -- little-endian i64 array (6 per record)
    u32 n_extra_ints  -- little-endian i64 array

Senders keep one master :class:`~repro.core.lockset.Interner` plus a cursor
per receiver; each frame ships only the ids minted since that receiver's
last frame (the per-frame interner delta), so every receiver's interner is
a prefix of the sender's and the id space stays consistent end to end.

Text is encoded in runs: :meth:`EventEncoder.encode_lines` turns a run of
trace lines into records in one loop, straight into the caller's record
and extras arrays, and stops at the first line it refuses.  It holds the
text grammar; the service's engine, ``repro-race analyze``
(:func:`~repro.trace.io.iter_records`) and, through
:meth:`~EventEncoder.encode_line` (a run of one line), the cluster
coordinator all encode through it.
"""

from __future__ import annotations

import struct
import sys
import zlib
from array import array
from typing import Container, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .actions import (
    OP_ACQUIRE,
    OP_ALLOC,
    OP_COMMIT,
    OP_FORK,
    OP_JOIN,
    OP_READ,
    OP_RELEASE,
    OP_VREAD,
    OP_VWRITE,
    OP_WRITE,
    Acquire,
    Alloc,
    Commit,
    DataVar,
    Event,
    Fork,
    Join,
    LockVar,
    LocksetElement,
    Obj,
    Read,
    Release,
    Tid,
    VolatileRead,
    VolatileVar,
    VolatileWrite,
    Write,
)
from .lockset import Interner

#: ints per packed record
RECORD_WIDTH = 6
#: frame format version (bump on any layout change)
FRAME_VERSION = 1

# element type tags in a frame's interner-delta section
_ET_TID = 1
_ET_LOCK = 2
_ET_VVAR = 3
_ET_DVAR = 4

_HEADER = struct.Struct("<BI")
_U32 = struct.Struct("<I")
_I64 = struct.Struct("<q")
_U16 = struct.Struct("<H")

#: the last opcode that is a *simple* sync record (``(a, b) == (key, gain)``)
_LAST_SIMPLE_SYNC = OP_JOIN

_BIG_ENDIAN = sys.byteorder == "big"

#: sentinel variable id marking an admission-filtered data access; the
#: record still consumes its sequence number (race-line parity) but is
#: shipped nowhere and skipped by the kernel.
FILTERED_VAR = -1


class FrameFormatError(ValueError):
    """A packed frame failed to decode.

    Raised instead of a bare ``struct.error`` on truncated frames and
    instead of a generic ``ValueError`` on unknown kind bytes, so wire
    consumers can report *which* byte was bad.  ``kind`` holds the
    offending kind byte -- the element type tag, opcode, or frame
    version -- or ``None`` when the data ended before one was read.
    Subclasses :class:`ValueError`, so existing handlers keep working.

    When the kernel rejects a frame mid-application, ``record`` is the
    0-based index of the faulting record, ``applied`` the number of
    records fully applied before the fault and ``reports`` the ``(seq,
    report)`` races those records completed, so callers can account for
    the partially-consumed frame ("atomic-or-reported").
    """

    def __init__(
        self,
        message: str,
        kind: Optional[int] = None,
        record: Optional[int] = None,
        applied: Optional[int] = None,
    ) -> None:
        super().__init__(message)
        self.kind = kind
        self.record = record
        self.applied = applied
        self.reports: list = []


def _q_to_bytes(ints: array) -> bytes:
    if _BIG_ENDIAN:  # pragma: no cover - little-endian CI
        ints = array("q", ints)
        ints.byteswap()
    return ints.tobytes()


def _q_from_bytes(data: bytes) -> array:
    ints = array("q")
    ints.frombytes(data)
    if _BIG_ENDIAN:  # pragma: no cover - little-endian CI
        ints.byteswap()
    return ints


# -- interner-delta serialization ----------------------------------------------


def encode_elements(elements: Iterable[LocksetElement]) -> Tuple[bytes, int]:
    """Serialize interner elements in id order; returns (payload, count)."""
    parts: List[bytes] = []
    count = 0
    for element in elements:
        count += 1
        if isinstance(element, Tid):
            parts.append(bytes((_ET_TID,)) + _I64.pack(element.value))
        elif isinstance(element, LockVar):
            parts.append(bytes((_ET_LOCK,)) + _I64.pack(element.obj.value))
        elif isinstance(element, VolatileVar):
            field = element.field.encode("utf-8")
            parts.append(
                bytes((_ET_VVAR,))
                + _I64.pack(element.obj.value)
                + _U16.pack(len(field))
                + field
            )
        elif isinstance(element, DataVar):
            field = element.field.encode("utf-8")
            parts.append(
                bytes((_ET_DVAR,))
                + _I64.pack(element.obj.value)
                + _U16.pack(len(field))
                + field
            )
        else:  # TL is pinned at id 0 and never travels in a delta
            raise TypeError(f"element not serializable in a frame: {element!r}")
    return b"".join(parts), count


def decode_elements(
    data: bytes, offset: int, count: int
) -> Tuple[List[LocksetElement], int]:
    """Inverse of :func:`encode_elements`; returns (elements, new offset).

    Truncated input and unknown tags raise :class:`FrameFormatError`
    carrying the offending element type byte.
    """
    elements: List[LocksetElement] = []
    etype: Optional[int] = None
    try:
        for _ in range(count):
            etype = data[offset]
            offset += 1
            (value,) = _I64.unpack_from(data, offset)
            offset += 8
            if etype == _ET_TID:
                elements.append(Tid(value))
                continue
            if etype == _ET_LOCK:
                elements.append(LockVar(Obj(value)))
                continue
            (length,) = _U16.unpack_from(data, offset)
            offset += 2
            field = data[offset : offset + length].decode("utf-8")
            offset += length
            if etype == _ET_VVAR:
                elements.append(VolatileVar(Obj(value), field))
            elif etype == _ET_DVAR:
                elements.append(DataVar(Obj(value), field))
            else:
                raise FrameFormatError(
                    f"unknown element type tag {etype}", kind=etype
                )
    except (struct.error, IndexError) as exc:
        raise FrameFormatError(
            f"truncated element delta at byte {offset}: {exc}", kind=etype
        ) from exc
    return elements, offset


# -- frame pack / unpack -------------------------------------------------------


def encode_frame(
    base: int,
    delta: Iterable[LocksetElement],
    records: array,
    extras: array,
) -> bytes:
    """Pack an interner delta plus records/extras into one immutable buffer."""
    element_bytes, n_elements = encode_elements(delta)
    record_bytes = _q_to_bytes(records)
    extra_bytes = _q_to_bytes(extras)
    return b"".join(
        (
            _HEADER.pack(FRAME_VERSION, base),
            _U32.pack(n_elements),
            element_bytes,
            _U32.pack(len(records)),
            record_bytes,
            _U32.pack(len(extras)),
            extra_bytes,
        )
    )


def decode_frame(data: bytes) -> Tuple[int, List[LocksetElement], array, array]:
    """Unpack a frame; returns ``(base, delta elements, records, extras)``.

    Truncation and unknown kind bytes raise :class:`FrameFormatError`
    (a :class:`ValueError`) instead of leaking a bare ``struct.error``.
    """
    try:
        version, base = _HEADER.unpack_from(data, 0)
    except struct.error as exc:
        raise FrameFormatError(
            f"truncated frame header: {exc}",
            kind=data[0] if data else None,
        ) from exc
    if version != FRAME_VERSION:
        raise FrameFormatError(f"unsupported frame version {version}", kind=version)
    offset = _HEADER.size
    try:
        (n_elements,) = _U32.unpack_from(data, offset)
        offset += 4
        elements, offset = decode_elements(data, offset, n_elements)
        (n_record_ints,) = _U32.unpack_from(data, offset)
        offset += 4
        records = _q_from_bytes(data[offset : offset + 8 * n_record_ints])
        offset += 8 * n_record_ints
        (n_extra_ints,) = _U32.unpack_from(data, offset)
        offset += 4
        extras = _q_from_bytes(data[offset : offset + 8 * n_extra_ints])
    except FrameFormatError:
        raise
    except (struct.error, ValueError) as exc:
        # ValueError covers a record/extra section cut mid-int64
        # (array.frombytes rejects partial items)
        raise FrameFormatError(
            f"truncated frame body at byte {offset}: {exc}", kind=version
        ) from exc
    if len(records) % RECORD_WIDTH:
        raise FrameFormatError(
            "record section is not a whole number of records", kind=version
        )
    return base, elements, records, extras


# -- trace-context envelope (frame v2 = u8 version + u64 trace id + v1) --------

#: version byte of a trace-stamped frame; the envelope wraps an unmodified
#: v1 frame so every downstream consumer keeps operating on v1 bytes
TRACE_VERSION = 2
_TRACE_HEADER = struct.Struct("<BQ")


def make_trace_id(node: str, ordinal: int) -> int:
    """A compact 64-bit trace id: crc32(node) high half, batch ordinal low.

    The node half keeps ids minted independently on different edges from
    colliding; the ordinal half makes ids monotone per edge, so a stitched
    timeline sorts naturally.
    """
    return ((zlib.crc32(node.encode("utf-8")) & 0xFFFFFFFF) << 32) | (
        ordinal & 0xFFFFFFFF
    )


def format_trace_id(trace_id: int) -> str:
    """Canonical textual form (16 hex digits) used in spans and CLIs."""
    return f"{trace_id & 0xFFFFFFFFFFFFFFFF:016x}"


def parse_trace_id(text: str) -> int:
    """Inverse of :func:`format_trace_id`; also accepts plain decimal."""
    text = text.strip()
    if len(text) == 16:
        return int(text, 16)
    try:
        return int(text)
    except ValueError:
        return int(text, 16)


def stamp_trace(trace_id: int, frame: bytes) -> bytes:
    """Wrap a v1 frame in the v2 trace envelope."""
    return _TRACE_HEADER.pack(TRACE_VERSION, trace_id & 0xFFFFFFFFFFFFFFFF) + frame


def split_trace(data: bytes) -> Tuple[Optional[int], bytes]:
    """Strip a v2 trace envelope; plain v1 frames pass through unchanged.

    Call this *before* :func:`decode_frame` on any wire payload: the
    decoder hard-rejects version bytes other than 1, which is what keeps
    the envelope from silently leaking into flight recordings, replay, or
    parity comparisons.
    """
    if data and data[0] == TRACE_VERSION:
        try:
            _version, trace_id = _TRACE_HEADER.unpack_from(data, 0)
        except struct.error as exc:
            raise FrameFormatError(
                f"truncated trace envelope: {exc}", kind=TRACE_VERSION
            ) from exc
        return trace_id, data[_TRACE_HEADER.size :]
    return None, data


def extend_interner(
    interner: Interner, base: int, delta: Sequence[LocksetElement]
) -> None:
    """Apply a frame's delta to a replica interner (idempotent on overlap).

    ``delta[i]`` is element ``base + i``.  An id the replica already holds
    (a replayed frame) must name the same element, and a new element must
    not be held under another id.  Otherwise the frame comes from another
    id space, which raises :class:`FrameFormatError` and leaves the
    replica unchanged.
    """
    have = len(interner)
    if have < base:
        raise FrameFormatError(
            f"frame assumes {base} interned elements, replica has {have}"
        )
    for eid, element in enumerate(delta[: have - base], base):
        known = interner.resolve(eid)
        if known != element:
            raise FrameFormatError(
                f"interner diverged: element {eid} is {known!r} here, "
                f"{element!r} in the frame"
            )
    fresh = delta[have - base :]
    if len(set(fresh)) < len(fresh) or any(element in interner for element in fresh):
        raise FrameFormatError(
            "interner diverged: the frame announces as new an element it "
            "repeats or the replica already holds"
        )
    for element in fresh:
        interner.intern(element)


# -- the ingestion-edge encoder ------------------------------------------------


class EventEncoder:
    """Translates events (or raw text lines) into packed records, once.

    Holds the master :class:`Interner` and integer-keyed caches so that in
    steady state encoding a text line constructs *no* dataclasses at all:
    thread, lock, and variable ids come straight out of dicts keyed by the
    parsed integers/strings.  ``cache_misses`` counts the slow paths (one
    per newly seen element); the service reports it as ``edge_allocs``.

    ``admit`` is an optional static admission filter (any object with
    ``admit(obj_value, field) -> bool``, i.e.
    :class:`repro.analysis.admission.AdmissionFilter`).  Data accesses it
    rejects encode to the :data:`FILTERED_VAR` sentinel instead of an
    interned variable id -- they never intern, never route, never reach a
    kernel.  Sync events, allocs, and commit footprints always pass, so
    the shared happens-before state stays exact.  The filter is asked
    once per variable and its verdict cached: in steady state a filtered
    access costs one dict hit.
    """

    def __init__(self, n_shards: int = 1, admit=None) -> None:
        self.interner = Interner()
        self.n_shards = n_shards
        self.admit = admit
        self.cache_misses = 0
        self.events_encoded = 0
        self._tid_ids: Dict[int, int] = {}
        #: the ids that name threads, locks and volatiles (the wire edge's
        #: class checks)
        self.thread_ids: Set[int] = set()
        self.lock_ids: Set[int] = set()
        self.volatile_ids: Set[int] = set()
        self._lock_ids: Dict[int, int] = {}
        self._vvar_ids: Dict[Tuple[int, str], int] = {}
        self._dvar_ids: Dict[Tuple[int, str], int] = {}
        #: data-variable id -> its group (crc32 partition, cached)
        self.var_shard: Dict[int, int] = {}
        #: (obj, field) -> var id or FILTERED_VAR (admission decision cache)
        self._access_ids: Dict[Tuple[int, str], int] = {}
        #: already-interned var id -> admission verdict (wire ingest cache)
        self._admit_ids: Dict[int, bool] = {}

    # -- element id lookups (cached; misses intern and count) ------------------

    def _tid_id(self, value: int) -> int:
        eid = self._tid_ids.get(value)
        if eid is None:
            self.cache_misses += 1
            eid = self._tid_ids[value] = self.interner.intern(Tid(value))
            self.thread_ids.add(eid)
        return eid

    def _lock_id(self, obj_value: int) -> int:
        eid = self._lock_ids.get(obj_value)
        if eid is None:
            self.cache_misses += 1
            eid = self._lock_ids[obj_value] = self.interner.intern(
                LockVar(Obj(obj_value))
            )
            self.lock_ids.add(eid)
        return eid

    def _vvar_id(self, obj_value: int, field: str) -> int:
        key = (obj_value, field)
        eid = self._vvar_ids.get(key)
        if eid is None:
            self.cache_misses += 1
            eid = self._vvar_ids[key] = self.interner.intern(
                VolatileVar(Obj(obj_value), field)
            )
            self.volatile_ids.add(eid)
        return eid

    def _dvar_id(self, obj_value: int, field: str) -> int:
        key = (obj_value, field)
        eid = self._dvar_ids.get(key)
        if eid is None:
            self.cache_misses += 1
            eid = self._dvar_ids[key] = self.interner.intern(
                DataVar(Obj(obj_value), field)
            )
            self.var_shard[eid] = (
                zlib.crc32(f"{obj_value}.{field}".encode("utf-8")) % self.n_shards
            )
        return eid

    def _data_var_id(self, obj_value: int, field: str) -> int:
        """Admission-aware variable id for one data access.

        Returns :data:`FILTERED_VAR` when the admission filter proves the
        variable race-free -- the variable is then never interned, so it
        also never travels in an interner delta.  Without a filter this
        is exactly :meth:`_dvar_id`.
        """
        admit = self.admit
        if admit is None:
            return self._dvar_id(obj_value, field)
        key = (obj_value, field)
        eid = self._access_ids.get(key)
        if eid is None:
            if admit.admit(obj_value, field):
                eid = self._dvar_id(obj_value, field)
            else:
                eid = FILTERED_VAR
            self._access_ids[key] = eid
        return eid

    def admit_var_id(self, var_id: int) -> bool:
        """Admission verdict for an already-interned data variable.

        The wire ingest path receives interned ids rather than
        ``(obj, field)`` pairs; this resolves the variable once and
        caches the verdict, like :meth:`_data_var_id`.
        """
        admit = self.admit
        if admit is None:
            return True
        verdict = self._admit_ids.get(var_id)
        if verdict is None:
            var = self.interner.resolve(var_id)
            verdict = admit.admit(var.obj.value, var.field)
            self._admit_ids[var_id] = verdict
        return verdict

    def set_admission(self, admit) -> None:
        """Install (or clear) the admission filter mid-stream.

        Cached per-variable decisions are discarded; variables already
        interned stay interned (harmless -- their accesses simply start
        or stop being dropped from the next event on).
        """
        self.admit = admit
        self._access_ids.clear()
        self._admit_ids.clear()

    def intern_element(self, element: LocksetElement) -> int:
        """Intern a foreign element (wire ingest), keeping caches coherent."""
        if isinstance(element, Tid):
            return self._tid_id(element.value)
        if isinstance(element, LockVar):
            return self._lock_id(element.obj.value)
        if isinstance(element, VolatileVar):
            return self._vvar_id(element.obj.value, element.field)
        if isinstance(element, DataVar):
            return self._dvar_id(element.obj.value, element.field)
        raise TypeError(f"cannot intern {element!r}")

    def extend(self, base: int, elements: Sequence[LocksetElement]) -> None:
        """Adopt ids from a shared id space: ``elements[i]`` is ``base + i``.

        For a cluster coordinator's frame delta or a restored checkpoint's
        interner.  A known id must name the same element and a new element
        must land on exactly its id; otherwise the id spaces diverged, which
        raises :class:`ValueError` rather than remapping around it.
        """
        have = len(self.interner)
        if have < base:
            raise ValueError(
                f"frame assumes {base} interned elements, node has {have}"
            )
        for i, element in enumerate(elements):
            eid = base + i
            if eid < len(self.interner):
                known = self.interner.resolve(eid)
                if known != element:
                    raise ValueError(
                        f"node interner diverged: element {eid} is {known!r} "
                        f"here, {element!r} at the sender"
                    )
                continue
            got = self.intern_element(element)
            if got != eid:
                raise ValueError(
                    f"node interner diverged: element {eid} interned as {got}"
                )

    # -- encoding ----------------------------------------------------------------

    def encode_event(
        self, event: Event
    ) -> Tuple[int, int, int, int, int, Optional[List[int]]]:
        """One event -> ``(op, tid_id, index, a, b, extras-or-None)``."""
        action = event.action
        tid_id = self._tid_id(event.tid.value)
        self.events_encoded += 1
        if isinstance(action, Read):
            return OP_READ, tid_id, event.index, self._data_var_id(
                action.var.obj.value, action.var.field
            ), 0, None
        if isinstance(action, Write):
            return OP_WRITE, tid_id, event.index, self._data_var_id(
                action.var.obj.value, action.var.field
            ), 0, None
        if isinstance(action, Acquire):
            lock_id = self._lock_id(action.obj.value)
            return OP_ACQUIRE, tid_id, event.index, lock_id, tid_id, None
        if isinstance(action, Release):
            lock_id = self._lock_id(action.obj.value)
            return OP_RELEASE, tid_id, event.index, tid_id, lock_id, None
        if isinstance(action, VolatileRead):
            vid = self._vvar_id(action.var.obj.value, action.var.field)
            return OP_VREAD, tid_id, event.index, vid, tid_id, None
        if isinstance(action, VolatileWrite):
            vid = self._vvar_id(action.var.obj.value, action.var.field)
            return OP_VWRITE, tid_id, event.index, tid_id, vid, None
        if isinstance(action, Fork):
            return OP_FORK, tid_id, event.index, tid_id, self._tid_id(
                action.child.value
            ), None
        if isinstance(action, Join):
            return OP_JOIN, tid_id, event.index, self._tid_id(
                action.child.value
            ), tid_id, None
        if isinstance(action, Alloc):
            return OP_ALLOC, tid_id, event.index, self._lock_id(
                action.obj.value
            ), 0, None
        if isinstance(action, Commit):
            footprint = {
                (v.obj.value, v.field): 0 for v in action.reads
            }
            for v in action.writes:
                footprint[(v.obj.value, v.field)] = 1
            extras = self._commit_extras(footprint)
            return OP_COMMIT, tid_id, event.index, 0, 0, extras
        raise TypeError(f"cannot encode action {action!r}")

    def encode_lines(
        self,
        lines: Sequence[str],
        records: array,
        extras: array,
        seq: int,
        hosted: Optional[Container[int]] = None,
    ) -> Tuple[int, int, int, int, Optional[ValueError]]:
        """Encode a run of trace text lines into the caller's arrays, in one loop.

        Line ``i`` of the run takes sequence number ``seq + i`` and becomes
        one record appended to ``records``; a commit's footprint is
        appended to ``extras`` and its record's ``a`` is the offset.  A
        data access the admission filter drops, or -- given a ``hosted``
        set of groups -- one whose group is not in it, takes its ``seq``
        but no record.

        Returns ``(taken, data, filtered, foreign, error)``: the lines
        encoded, the data accesses among them past the filter (``foreign``
        of which are of groups not hosted) and the filtered ones.  The run
        stops at the first line it refuses: ``error`` is then the
        ``ValueError`` that says why and ``lines[taken]`` the line, else
        ``error`` is None and every line was taken.

        The grammar is :func:`repro.trace.io.parse_event`'s, with its
        laxness (positional tokens, trailing ones ignored): both refuse
        exactly the same lines.  Elements are interned in
        :meth:`encode_event`'s order, the thread first, so either entry
        point assigns the same ids.  A line with a bad index or an unknown
        kind interns nothing; a line refused later can leave its thread
        interned, which is harmless (an unreferenced id merely rides along
        in the next delta).  ``read``, ``write``, ``acq`` and ``rel`` are
        parsed inline through the int-keyed caches; in steady state no line
        constructs a dataclass.
        """
        tid_ids = self._tid_ids
        lock_ids = self._lock_ids
        var_ids = self._dvar_ids if self.admit is None else self._access_ids
        var_shard = self.var_shard
        extend = records.extend
        start = seq
        data = filtered = foreign = 0
        try:
            # ids are never 0 (TL's), so ``get(...) or`` falls back on a miss
            for line in lines:
                parts = line.split()
                kind = parts[2]
                tid_value = int(parts[0])
                index = int(parts[1])
                if kind == "read" or kind == "write":
                    tid_id = tid_ids.get(tid_value) or self._tid_id(tid_value)
                    obj_value = int(parts[3])
                    field = parts[4]
                    var_id = var_ids.get((obj_value, field)) or self._data_var_id(
                        obj_value, field
                    )
                    if var_id < 0:  # FILTERED_VAR
                        filtered += 1
                    else:
                        data += 1
                        if hosted is not None and var_shard[var_id] not in hosted:
                            foreign += 1
                        else:
                            op = OP_READ if kind == "read" else OP_WRITE
                            extend((op, seq, tid_id, index, var_id, 0))
                elif kind == "acq":
                    tid_id = tid_ids.get(tid_value) or self._tid_id(tid_value)
                    obj_value = int(parts[3])
                    lock_id = lock_ids.get(obj_value) or self._lock_id(obj_value)
                    extend((OP_ACQUIRE, seq, tid_id, index, lock_id, tid_id))
                elif kind == "rel":
                    tid_id = tid_ids.get(tid_value) or self._tid_id(tid_value)
                    obj_value = int(parts[3])
                    lock_id = lock_ids.get(obj_value) or self._lock_id(obj_value)
                    extend((OP_RELEASE, seq, tid_id, index, tid_id, lock_id))
                else:
                    op, tid_id, a, b, footprint = self._encode_other(
                        kind, tid_value, parts
                    )
                    if footprint is not None:
                        a = len(extras)
                        extras.extend(footprint)
                    extend((op, seq, tid_id, index, a, b))
                seq += 1
        except IndexError:  # a token the kind takes is missing
            error: Optional[ValueError] = ValueError(
                f"too few fields in event line {line!r}"
            )
        except ValueError as exc:
            error = exc
        else:
            error = None
        self.events_encoded += seq - start
        return seq - start, data, filtered, foreign, error

    def _encode_other(
        self, kind: str, tid_value: int, parts: List[str]
    ) -> Tuple[int, int, int, int, Optional[List[int]]]:
        """The kinds :meth:`encode_lines` does not parse inline:
        ``(op, tid_id, a, b, footprint-or-None)``."""
        if kind not in _OTHER_KINDS:
            raise ValueError(f"unknown event kind {kind!r}")
        tid_id = self._tid_id(tid_value)
        if kind == "vread":
            return OP_VREAD, tid_id, self._vvar_id(int(parts[3]), parts[4]), tid_id, None
        if kind == "vwrite":
            return OP_VWRITE, tid_id, tid_id, self._vvar_id(int(parts[3]), parts[4]), None
        if kind == "fork":
            return OP_FORK, tid_id, tid_id, self._tid_id(int(parts[3])), None
        if kind == "join":
            return OP_JOIN, tid_id, self._tid_id(int(parts[3])), tid_id, None
        if kind == "alloc":
            return OP_ALLOC, tid_id, self._lock_id(int(parts[3])), 0, None
        # commit R <obj>.<field> ... W <obj>.<field> ...
        args = parts[3:]
        if not args or args[0] != "R":
            raise ValueError("malformed commit line")
        w_at = args.index("W")  # ValueError when absent, like parse_event
        footprint: Dict[Tuple[int, str], int] = {}
        for mode, token in [(0, t) for t in args[1:w_at]] + [
            (1, t) for t in args[w_at + 1 :]
        ]:
            obj_text, dot, field = token.partition(".")
            if not dot:
                raise ValueError(f"malformed variable token {token!r}")
            key = (int(obj_text), field)
            footprint[key] = max(footprint.get(key, 0), mode)
        return OP_COMMIT, tid_id, 0, 0, self._commit_extras(footprint)

    def encode_line(
        self, line: str
    ) -> Tuple[int, int, int, int, int, Optional[List[int]]]:
        """One trace text line -> ``(op, tid_id, index, a, b, extras-or-None)``.

        :meth:`encode_lines` on a run of one line, which raises the refusal.
        A filtered access comes back with ``a`` = :data:`FILTERED_VAR`.
        """
        records, extras = array("q"), array("q")
        _taken, _data, filtered, _foreign, error = self.encode_lines(
            (line,), records, extras, 0
        )
        if error is not None:
            raise error
        if filtered:
            parts = line.split()
            op = OP_READ if parts[2] == "read" else OP_WRITE
            return op, self._tid_ids[int(parts[0])], int(parts[1]), FILTERED_VAR, 0, None
        op, _seq, tid_id, index, a, b = records
        return op, tid_id, index, a, b, extras.tolist() if op == OP_COMMIT else None

    def _commit_extras(self, footprint: Dict[Tuple[int, str], int]) -> List[int]:
        """Footprint -> ``[n, var_id, is_write, ...]`` in canonical order."""
        extras = [len(footprint)]
        for (obj_value, field) in sorted(footprint):
            extras.append(self._dvar_id(obj_value, field))
            extras.append(footprint[(obj_value, field)])
        return extras


#: the kinds :meth:`EventEncoder.encode_lines` hands to ``_encode_other``
_OTHER_KINDS = frozenset(("vread", "vwrite", "fork", "join", "alloc", "commit"))


# -- frame decoding back to Events ----------------------------------------------


class FrameDecoder:
    """Reconstitutes :class:`Event` objects from packed frames.

    The inverse of :class:`EventEncoder` plus :func:`encode_frame`, for
    consumers that need objects (round-trip checks, offline inspection of
    recorded frames); the service's kernel never uses it.  ``sync_decoded``
    counts every sync/alloc/commit record it had to materialize.
    """

    def __init__(self) -> None:
        self.interner = Interner()
        self.sync_decoded = 0

    def decode_payload(self, data: bytes) -> List[Tuple[int, Event]]:
        base, delta, records, extras = decode_frame(data)
        extend_interner(self.interner, base, delta)
        return self.decode_records(records, extras)

    def decode_records(
        self, records: array, extras: array
    ) -> List[Tuple[int, Event]]:
        resolve = self.interner.resolve
        out: List[Tuple[int, Event]] = []
        for i in range(0, len(records), RECORD_WIDTH):
            op, seq, tid_id, index, a, b = records[i : i + RECORD_WIDTH]
            if a == FILTERED_VAR and (op == OP_READ or op == OP_WRITE):
                # admission-filtered access: no variable to resolve, and
                # nothing for an object consumer to check
                continue
            tid = resolve(tid_id)
            if op == OP_READ:
                action = Read(resolve(a))
            elif op == OP_WRITE:
                action = Write(resolve(a))
            elif op == OP_ACQUIRE:
                self.sync_decoded += 1
                action = Acquire(resolve(a).obj)
            elif op == OP_RELEASE:
                self.sync_decoded += 1
                action = Release(resolve(b).obj)
            elif op == OP_VREAD:
                self.sync_decoded += 1
                action = VolatileRead(resolve(a))
            elif op == OP_VWRITE:
                self.sync_decoded += 1
                action = VolatileWrite(resolve(b))
            elif op == OP_FORK:
                self.sync_decoded += 1
                action = Fork(resolve(b))
            elif op == OP_JOIN:
                self.sync_decoded += 1
                action = Join(resolve(a))
            elif op == OP_ALLOC:
                if a < 0:
                    # admission-filtered alloc proxy: nothing to resolve
                    continue
                self.sync_decoded += 1
                action = Alloc(resolve(a).obj)
            elif op == OP_COMMIT:
                self.sync_decoded += 1
                n = extras[a]
                reads = set()
                writes = set()
                for j in range(a + 1, a + 1 + 2 * n, 2):
                    var_id = extras[j]
                    if var_id < 0:
                        # admission-filtered footprint entry
                        continue
                    var = resolve(var_id)
                    (writes if extras[j + 1] else reads).add(var)
                action = Commit(frozenset(reads), frozenset(writes))
            else:
                raise FrameFormatError(
                    f"unknown opcode {op} at record {i // RECORD_WIDTH}",
                    kind=op,
                    record=i // RECORD_WIDTH,
                )
            out.append((seq, Event(tid, index, action)))
        return out

