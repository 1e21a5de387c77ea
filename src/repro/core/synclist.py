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
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, Iterator, List, Optional, Tuple

from .actions import OP_COMMIT, Action, Tid
from .lockset import ls_ids, ls_pack, ls_unpack


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


#: default events per segment: big enough that per-segment overhead
#: (refcount entry, dict slot) is noise, small enough that whole-segment
#: garbage collection keeps the retained list close to the refcount frontier
SEGMENT_SIZE = 256


class _Segment:
    """One fixed-size chunk of the encoded list: four parallel int arrays.

    Slot ``i`` of the arrays holds event ``base + i`` (global position).
    ``ops`` is the opcode; ``tids`` the interned id of the acting thread;
    ``keys``/``gains`` the pre-encoded rule operands -- for a simple sync the
    Figure 5 rule is uniformly ``if keys[i] in ls: ls.add(gains[i])``, and
    for a commit ``keys[i]`` indexes the list's commit side table.
    """

    __slots__ = ("ops", "tids", "keys", "gains")

    def __init__(self) -> None:
        self.ops: List[int] = []
        self.tids: List[int] = []
        self.keys: List[int] = []
        self.gains: List[int] = []

    def append(self, op: int, tid_id: int, key: int, gain: int) -> None:
        self.ops.append(op)
        self.tids.append(tid_id)
        self.keys.append(key)
        self.gains.append(gain)

    def __len__(self) -> int:
        return len(self.ops)


class EncodedSyncList:
    """Append-only encoded event list with whole-segment refcount GC.

    The semantic twin of :class:`SyncEventList`, re-engineered for the
    integer kernel:

    * A *position* is a plain int -- the event's global enqueue index.  The
      "empty tail cell" of the linked list becomes the position
      ``total_enqueued``: the slot the *next* event will fill.  Positions
      survive garbage collection unchanged (nothing is renumbered).
    * Events live in fixed-size :class:`_Segment` chunks keyed by
      ``position // segment_size``, so ``cell_at`` is O(1) arithmetic and
      traversal is a tight loop over parallel arrays.
    * Reference counts are kept per *segment* (an ``Info`` anchored at
      position ``p`` references segment ``p // segment_size``).  The GC
      frees whole zero-reference segments from the front -- slightly
      coarser than the per-cell collector, never less sound, and O(1) per
      reclaimed chunk.
    * A per-key position index (:meth:`key_positions`) lists every row
      under the element ids that can fire its rule, so a lockset
      computation visits only the cells of the lockset's own ids.

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
        #: per-segment reference counts (Info anchors)
        self._refs: Dict[int, int] = {}
        #: per-rule-key sorted position lists, so a replay visits only the
        #: cells whose rule *can* fire.  Simple sync rows index by ``key``;
        #: a commit row (whose ``key`` is a commit-table index, not an
        #: element id) is indexed under every id that can trigger one of
        #: its rules -- each incoming id (the intersection rule) plus the
        #: committer (the union rule) -- so a lockset that could never fire
        #: it never visits it.
        self._by_key: Dict[int, List[int]] = {}

    # -- appends ---------------------------------------------------------------

    @property
    def tail_pos(self) -> int:
        """The position the next event will occupy (the "empty tail")."""
        return self.total_enqueued

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
            for _ in range(pad):
                segment.append(-1, -1, -1, -1)

    def enqueue_encoded(self, op: int, tid_id: int, key: int, gain: int) -> int:
        """Append one pre-encoded event; returns its (permanent) position."""
        pos = self.total_enqueued
        seg_index = pos // self.segment_size
        segment = self.segments.get(seg_index)
        if segment is None:
            segment = self.segments[seg_index] = _Segment()
        segment.append(op, tid_id, key, gain)
        self._index_row(pos, op, key)
        self.total_enqueued = pos + 1
        return pos

    def _index_row(self, pos: int, op: int, key: int) -> None:
        """Add one row to the per-key index."""
        by_key = self._by_key
        if op != OP_COMMIT:
            by_key.setdefault(key, []).append(pos)
            return
        incoming, _outgoing, committer = self.commit_table[key]
        by_key.setdefault(committer, []).append(pos)
        for eid in ls_ids(incoming):
            if eid != committer:
                by_key.setdefault(eid, []).append(pos)

    def add_commit_row(self, incoming: object, outgoing: object, tid_id: int) -> int:
        """Register a commit's encoded footprint; returns its table index."""
        self.commit_table.append((incoming, outgoing, tid_id))
        return len(self.commit_table) - 1

    # -- reference management ----------------------------------------------------

    def incref(self, pos: int) -> None:
        seg_index = pos // self.segment_size
        self._refs[seg_index] = self._refs.get(seg_index, 0) + 1

    def decref(self, pos: int) -> None:
        seg_index = pos // self.segment_size
        count = self._refs.get(seg_index, 0)
        assert count > 0, "refcount underflow on encoded segment"
        if count == 1:
            del self._refs[seg_index]
        else:
            self._refs[seg_index] = count - 1

    # -- random access and indexes ---------------------------------------------

    def at(self, pos: int) -> Tuple[int, int, int, int]:
        """The ``(op, tid_id, key, gain)`` row at a position."""
        slot = pos % self.segment_size
        segment = self.segments[pos // self.segment_size]
        return (segment.ops[slot], segment.tids[slot], segment.keys[slot], segment.gains[slot])

    def key_positions(self, key: int, start: int) -> Tuple[List[int], int]:
        """Positions whose rule can fire for ``key``, from ``start`` on.

        Simple-sync rows whose rule key is ``key``, plus commit rows with
        ``key`` among their incoming ids or as their committer.  Returns
        ``(the shared ascending list, first index >= start)`` so callers
        can walk it without copying.
        """
        positions = self._by_key.get(key)
        if not positions:
            return [], 0
        return positions, bisect_left(positions, start)

    # -- garbage collection -------------------------------------------------------

    def collect_prefix(self) -> int:
        """Free leading *full* segments with no anchors; returns events freed.

        A segment is reclaimable when it is completely filled (the partial
        append-target segment is never freed) and no ``Info`` references any
        position inside it.  The key index is pruned here so it never
        points into freed storage.
        """
        size = self.segment_size
        seg_index = self.head_pos // size
        while True:
            segment = self.segments.get(seg_index)
            if segment is None or len(segment) < size:
                break
            if self._refs.get(seg_index, 0) > 0:
                break
            del self.segments[seg_index]
            seg_index += 1
        # the head need not be segment-aligned (a list restarted by start_at)
        freed = max(0, seg_index * size - self.head_pos)
        if freed:
            self.head_pos += freed
            self.total_collected += freed
            head = self.head_pos
            by_key = self._by_key
            for key, positions in list(by_key.items()):
                cut = bisect_left(positions, head)
                if cut:
                    remaining = positions[cut:]
                    if remaining:
                        by_key[key] = remaining
                    else:
                        del by_key[key]
        return freed

    # -- pickling -----------------------------------------------------------------
    #
    # The canonical state is the segment payloads plus the commit table and
    # the (sorted) per-segment refcounts; the key index is derived and
    # always rebuilt on restore, even from older blobs that recorded it as
    # switched off.  Everything is ints, so blobs are compact and
    # byte-stable: restoring and re-pickling yields the identical payload.

    def __getstate__(self) -> dict:
        return {
            "segment_size": self.segment_size,
            "head_pos": self.head_pos,
            "total_enqueued": self.total_enqueued,
            "total_collected": self.total_collected,
            "segments": [
                (index, seg.ops, seg.tids, seg.keys, seg.gains)
                for index, seg in sorted(self.segments.items())
            ],
            "commit_table": [
                (ls_pack(incoming), ls_pack(outgoing), tid_id)
                for incoming, outgoing, tid_id in self.commit_table
            ],
            "refs": sorted(self._refs.items()),
        }

    def __setstate__(self, state: dict) -> None:
        self.segment_size = state["segment_size"]
        self.head_pos = state["head_pos"]
        self.total_enqueued = state["total_enqueued"]
        self.total_collected = state["total_collected"]
        self.segments = {}
        for index, ops, tids, keys, gains in state["segments"]:
            segment = _Segment()
            segment.ops = ops
            segment.tids = tids
            segment.keys = keys
            segment.gains = gains
            self.segments[index] = segment
        self.commit_table = [
            (ls_unpack(incoming), ls_unpack(outgoing), tid_id)
            for incoming, outgoing, tid_id in state["commit_table"]
        ]
        self._refs = dict(state["refs"])
        self._by_key = {}
        size = self.segment_size
        for index, segment in sorted(self.segments.items()):
            base = index * size
            for slot, (op, key) in enumerate(zip(segment.ops, segment.keys)):
                if base + slot >= self.head_pos:  # not start_at's padding
                    self._index_row(base + slot, op, key)

    def __len__(self) -> int:
        """Retained events (enqueued minus collected)."""
        return self.total_enqueued - self.head_pos

    def __repr__(self) -> str:
        return (
            f"<EncodedSyncList len={len(self)} enqueued={self.total_enqueued} "
            f"collected={self.total_collected} segments={len(self.segments)}>"
        )
