"""The global synchronization-event list (paper Section 5, Figure 8).

Synchronization events are stored in a singly linked list of ``Cell``
records, in the (extended) synchronization order.  The list is the backbone
of the *lazy* lockset evaluation: an access's ``Info`` record keeps a
pointer ``pos`` into the list, and the lockset of a variable at a later
access is computed by replaying the update rules over the cells between the
two positions.

As in the paper, the ``tail`` always points at an *empty* cell: appending an
event fills the current tail and links a fresh empty cell after it.  An
``Info`` created at an access therefore points at the empty cell that the
*next* synchronization event will fill -- precisely "the last
synchronization event that the access comes after".

Reference counting and garbage collection (Section 5.4): every ``Info``
holding a ``pos`` pointer contributes one reference to that cell.  A prefix
of cells with zero reference counts carries no information for any future
lockset computation and is periodically discarded.  When a long-lived
reference blocks collection, the detector performs *partially-eager
evaluation*: it advances the blocking locksets part-way down the list and
re-points them, freeing the prefix (that logic lives in
:mod:`repro.core.lazy`, which owns the locksets; this module provides the
list primitives).

The production kernel's :class:`EncodedSyncList` keeps no reference
counts: the kernel walks all of its infos at each collection anyway, so it
reads the oldest anchor off that walk and frees the segments before it.
:class:`SyncEventList` keeps the paper's counts, as the reference.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from .actions import OP_COMMIT, Action, Tid
from .lockset import ls_mask, ls_pack, ls_unpack


class Cell:
    """One synchronization event (or the empty tail slot) in the list."""

    __slots__ = ("tid", "action", "next", "refcount", "seq")

    def __init__(self, seq: int) -> None:
        self.tid: Optional[Tid] = None
        self.action: Optional[Action] = None
        self.next: Optional["Cell"] = None
        #: number of Info records whose ``pos`` points here
        self.refcount: int = 0
        #: monotone sequence number; only used for diagnostics and ordering
        self.seq: int = seq

    @property
    def filled(self) -> bool:
        """True iff this cell holds an event (the tail slot never does)."""
        return self.action is not None

    def __repr__(self) -> str:
        if not self.filled:
            return f"<cell #{self.seq} (empty tail)>"
        return f"<cell #{self.seq} {self.tid!r}:{self.action!r} rc={self.refcount}>"


class SyncEventList:
    """Append-only event list with reference-counted prefix collection."""

    def __init__(self) -> None:
        self._seq = 0
        self.head: Cell = Cell(self._next_seq())
        self.tail: Cell = self.head
        #: filled cells currently reachable from ``head``
        self.length: int = 0
        #: total events ever enqueued
        self.total_enqueued: int = 0
        #: cells reclaimed by :meth:`collect_prefix`
        self.total_collected: int = 0

    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

    # -- appends ---------------------------------------------------------------

    def enqueue(self, tid: Tid, action: Action) -> Cell:
        """``Enqueue-Synch-Event``: fill the tail, link a fresh empty cell.

        Returns the cell that now holds the event.
        """
        cell = self.tail
        cell.tid = tid
        cell.action = action
        cell.next = Cell(self._next_seq())
        self.tail = cell.next
        self.length += 1
        self.total_enqueued += 1
        return cell

    # -- reference management ----------------------------------------------------

    @staticmethod
    def incref(cell: Cell) -> None:
        cell.refcount += 1

    @staticmethod
    def decref(cell: Cell) -> None:
        assert cell.refcount > 0, "refcount underflow on synchronization cell"
        cell.refcount -= 1

    # -- traversal ----------------------------------------------------------------

    def events_from(self, pos: Cell) -> Iterator[Cell]:
        """All filled cells from ``pos`` (inclusive) up to the tail."""
        cell = pos
        while cell.filled:
            yield cell
            assert cell.next is not None
            cell = cell.next

    def prefix_cells(self, count: int) -> List[Cell]:
        """Up to ``count`` filled cells starting at the head."""
        out: List[Cell] = []
        cell = self.head
        while cell.filled and len(out) < count:
            out.append(cell)
            assert cell.next is not None
            cell = cell.next
        return out

    def cell_at(self, offset: int) -> Cell:
        """The cell ``offset`` filled cells past the head (may be the tail)."""
        cell = self.head
        for _ in range(offset):
            if not cell.filled:
                break
            assert cell.next is not None
            cell = cell.next
        return cell

    # -- garbage collection ----------------------------------------------------------

    def collect_prefix(self) -> int:
        """Discard the longest head prefix of zero-refcount cells.

        Returns the number of cells reclaimed.  This is the cheap half of
        Section 5.4; the partially-eager half (advancing the blocking
        locksets first) is driven by the detector.
        """
        collected = 0
        while self.head.filled and self.head.refcount == 0:
            nxt = self.head.next
            assert nxt is not None
            # Snap the link so accidental stale pointers fail loudly.
            self.head.next = None
            self.head = nxt
            collected += 1
        self.length -= collected
        self.total_collected += collected
        return collected

    # -- pickling ----------------------------------------------------------------

    # ``Cell`` chains are singly linked, so the default pickler would recurse
    # once per cell and overflow the interpreter stack on long lists.  The
    # list therefore pickles itself *flat*: one payload tuple per cell
    # (including the empty tail), relinked on restore.  Refcounts survive the
    # round trip so a detector checkpoint can re-anchor its locksets.

    def __getstate__(self) -> dict:
        cells = []
        cell: Optional[Cell] = self.head
        while cell is not None:
            cells.append((cell.tid, cell.action, cell.refcount, cell.seq))
            cell = cell.next
        return {
            "cells": cells,
            "_seq": self._seq,
            "total_enqueued": self.total_enqueued,
            "total_collected": self.total_collected,
        }

    def __setstate__(self, state: dict) -> None:
        rebuilt = []
        for tid, action, refcount, seq in state["cells"]:
            cell = Cell(seq)
            cell.tid = tid
            cell.action = action
            cell.refcount = refcount
            rebuilt.append(cell)
        for prev, nxt in zip(rebuilt, rebuilt[1:]):
            prev.next = nxt
        self._seq = state["_seq"]
        self.head = rebuilt[0]
        self.tail = rebuilt[-1]
        self.length = sum(1 for cell in rebuilt if cell.filled)
        self.total_enqueued = state["total_enqueued"]
        self.total_collected = state["total_collected"]

    def __len__(self) -> int:
        return self.length

    def __repr__(self) -> str:
        return (
            f"<SyncEventList len={self.length} enqueued={self.total_enqueued} "
            f"collected={self.total_collected}>"
        )


# ---------------------------------------------------------------------------
# The integer-encoded, segment-backed event list (the kernel's backbone)
# ---------------------------------------------------------------------------


#: default events per segment: big enough that per-segment overhead (one
#: dict slot) is noise, small enough that whole-segment garbage collection
#: keeps the retained list close to the oldest Info anchor
SEGMENT_SIZE = 256


class _Segment:
    """One fixed-size chunk of the encoded list: three parallel int arrays.

    Slot ``i`` of the arrays holds event ``base + i`` (global position).
    ``ops`` is the opcode; ``keys``/``gains`` the pre-encoded rule operands
    -- for a simple sync the Figure 5 rule is uniformly ``if keys[i] in ls:
    ls.add(gains[i])``, and for a commit ``keys[i]`` indexes the list's
    commit side table, whose row names the committer.  ``mask`` is the
    bitmask of the ids that can fire a rule of the segment's events (see
    :meth:`EncodedSyncList._fires`): a lockset it misses passes the whole
    segment unchanged.
    """

    __slots__ = ("ops", "keys", "gains", "mask")

    def __init__(self) -> None:
        self.ops: List[int] = []
        self.keys: List[int] = []
        self.gains: List[int] = []
        self.mask: int = 0

    def __len__(self) -> int:
        return len(self.ops)


class EncodedSyncList:
    """Append-only encoded event list with whole-segment prefix GC.

    The semantic twin of :class:`SyncEventList`, re-engineered for the
    integer kernel:

    * A *position* is a plain int -- the event's global enqueue index.  The
      "empty tail cell" of the linked list becomes the position
      ``total_enqueued``: the slot the *next* event will fill.  Positions
      survive garbage collection unchanged (nothing is renumbered).
    * Events live in fixed-size :class:`_Segment` chunks keyed by
      ``position // segment_size``, so ``cell_at`` is O(1) arithmetic and
      traversal is a tight loop over parallel arrays.
    * No reference counts: the caller passes the oldest position any
      ``Info`` is anchored at (the kernel reads it off the walk over its
      infos that every collection makes), and the GC frees the whole
      segments before it from the front -- slightly coarser than the
      per-cell collector, never less sound, and O(1) per reclaimed chunk.
    * Each segment carries the bitmask of the element ids that can fire
      one of its rules, so a lockset computation skips, with one AND, a
      segment where nothing it holds can fire.

    Commits carry variable-size footprints, so they are stored as an index
    (in ``keys``) into :attr:`commit_table`, whose rows are
    ``(incoming, outgoing, tid_id)`` encoded locksets -- pre-computed once
    at enqueue so replay never touches action objects.
    """

    def __init__(self, segment_size: int = SEGMENT_SIZE) -> None:
        if segment_size < 1:
            raise ValueError("segment_size must be positive")
        self.segment_size = segment_size
        #: live segments keyed by segment index (contiguous range)
        self.segments: Dict[int, _Segment] = {}
        #: first retained position (segment-aligned after any collection)
        self.head_pos: int = 0
        #: total events ever enqueued; also the current tail position
        self.total_enqueued: int = 0
        #: events reclaimed by :meth:`collect_prefix`
        self.total_collected: int = 0
        #: commit side table: (incoming, outgoing, tid_id) encoded rows
        self.commit_table: List[Tuple[object, object, int]] = []

    # -- appends ---------------------------------------------------------------

    def start_at(self, pos: int) -> None:
        """Make an empty list begin at position ``pos`` (a restored tail).

        Slot ``i`` of a segment holds position ``index * size + i``, so the
        segment is padded up to ``pos`` with rows before the head.
        """
        if self.total_enqueued or self.segments or pos < 0:
            raise ValueError(f"an empty event list cannot start at {pos}")
        self.head_pos = self.total_enqueued = pos
        pad = pos % self.segment_size
        if pad:
            segment = self.segments[pos // self.segment_size] = _Segment()
            segment.ops, segment.keys, segment.gains = [-1] * pad, [-1] * pad, [-1] * pad

    def enqueue_encoded(self, op: int, key: int, gain: int) -> int:
        """Append one pre-encoded event; returns its (permanent) position.

        A simple sync row fires on its ``key``, so its bit is ORed in
        directly; only a commit row asks :meth:`_fires`.
        """
        pos = self.total_enqueued
        seg_index = pos // self.segment_size
        segment = self.segments.get(seg_index)
        if segment is None:
            segment = self.segments[seg_index] = _Segment()
        segment.ops.append(op)
        segment.keys.append(key)
        segment.gains.append(gain)
        segment.mask |= 1 << key if op != OP_COMMIT else self._fires(op, key)
        self.total_enqueued = pos + 1
        return pos

    def _fires(self, op: int, key: int) -> int:
        """The bitmask of the ids whose presence lets a row's rule fire.

        A simple sync row fires on its ``key``; a commit row on any of its
        incoming ids (it adds the committer) or on the committer (it adds
        the outgoing ids).
        """
        if op != OP_COMMIT:
            return 1 << key
        incoming, _outgoing, committer = self.commit_table[key]
        return ls_mask(incoming) | 1 << committer

    def add_commit_row(self, incoming: object, outgoing: object, tid_id: int) -> int:
        """Register a commit's encoded footprint; returns its table index."""
        self.commit_table.append((incoming, outgoing, tid_id))
        return len(self.commit_table) - 1

    # -- random access ------------------------------------------------------------

    def at(self, pos: int) -> Tuple[int, int, int]:
        """The ``(op, key, gain)`` row at a position."""
        slot = pos % self.segment_size
        segment = self.segments[pos // self.segment_size]
        return (segment.ops[slot], segment.keys[slot], segment.gains[slot])

    # -- garbage collection -------------------------------------------------------

    def collect_prefix(self, oldest: int) -> int:
        """Free the leading *full* segments that end at or before ``oldest``.

        ``oldest`` is the oldest position any ``Info`` is anchored at (the
        tail when none is), so no lockset computation reads a freed event.
        The partial append-target segment is never freed.  Returns the
        number of events freed.
        """
        size = self.segment_size
        first = self.head_pos // size
        stop = min(oldest, self.total_enqueued) // size
        if stop <= first:
            return 0
        for index in range(first, stop):
            del self.segments[index]
        # the head need not be segment-aligned (a list restarted by start_at)
        freed = stop * size - self.head_pos
        self.head_pos += freed
        self.total_collected += freed
        return freed

    # -- pickling -----------------------------------------------------------------
    #
    # The canonical state is the segment payloads plus the commit table; the
    # segment masks are derived and rebuilt on restore.  Older blobs also
    # carry the per-segment reference counts the list once kept (``refs``)
    # and a key index recorded as switched off (``index_keys``), which
    # restore ignores, and a fifth segment column, the acting thread of
    # each row, which nothing read and restore drops.  Everything is ints,
    # so blobs are compact and byte-stable: restoring and re-pickling
    # yields the identical payload.

    def __getstate__(self) -> dict:
        return {
            "segment_size": self.segment_size,
            "head_pos": self.head_pos,
            "total_enqueued": self.total_enqueued,
            "total_collected": self.total_collected,
            "segments": [
                (index, seg.ops, seg.keys, seg.gains)
                for index, seg in sorted(self.segments.items())
            ],
            "commit_table": [
                (ls_pack(incoming), ls_pack(outgoing), tid_id)
                for incoming, outgoing, tid_id in self.commit_table
            ],
        }

    def __setstate__(self, state: dict) -> None:
        self.segment_size = state["segment_size"]
        self.head_pos = state["head_pos"]
        self.total_enqueued = state["total_enqueued"]
        self.total_collected = state["total_collected"]
        self.segments = {}
        for index, ops, *columns in state["segments"]:
            segment = _Segment()
            segment.ops = ops
            segment.keys, segment.gains = columns[-2:]  # past an older tids column
            self.segments[index] = segment
        self.commit_table = [
            (ls_unpack(incoming), ls_unpack(outgoing), tid_id)
            for incoming, outgoing, tid_id in state["commit_table"]
        ]
        size = self.segment_size
        for index, segment in self.segments.items():
            base = index * size
            for slot, (op, key) in enumerate(zip(segment.ops, segment.keys)):
                if base + slot >= self.head_pos:  # not start_at's padding
                    segment.mask |= self._fires(op, key)

    def __len__(self) -> int:
        """Retained events (enqueued minus collected)."""
        return self.total_enqueued - self.head_pos

    def __repr__(self) -> str:
        return (
            f"<EncodedSyncList len={len(self)} enqueued={self.total_enqueued} "
            f"collected={self.total_collected} segments={len(self.segments)}>"
        )
