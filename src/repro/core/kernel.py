"""The integer-encoded Goldilocks kernel (lazy evaluation over int arrays).

:class:`EncodedGoldilocks` is algorithm-for-algorithm the detector of
:mod:`repro.core.lazy` -- same ``Info`` discipline, same verdicts, same
two-phase garbage collection -- with the hot loop rebuilt on integers:

* every lockset element is interned to a dense small int
  (:class:`repro.core.lockset.Interner`), and locksets become int bitmasks
  (:data:`~repro.core.lockset.BITSET_CUTOFF`-bounded) or frozensets of ids;
* the synchronization-event list is a :class:`repro.core.synclist.EncodedSyncList`
  -- parallel ``(opcode, key, gain)`` int arrays in fixed-size
  segments -- so replaying the Figure 5 rules is a tight loop with no
  ``isinstance`` dispatch: a simple sync is uniformly
  ``if key in ls: ls.add(gain)``, a commit reads one row of a side table;
* a lockset computation **walks the list in order** on the lockset's id
  bitmask and stops the moment the lockset owns the accessing thread.
  Each segment carries the bitmask of the ids that can fire one of its
  rules, so a segment where nothing the lockset holds can fire is skipped
  with one AND.  The early exit subsumes the paper's thread-restricted
  traversal, so the ladder has five rungs (fresh, transactional,
  same-thread, alock, **epoch**) before the walk;
* per-variable access state is int-keyed too: infos are filed under a
  *variable key*, assigned apart from the interner, and read slots under
  ``tid_id << 1 | xact``; ``DataVar`` and ``AccessRef`` objects are built
  only for a race report.  On the object path (:meth:`process`) a data
  variable therefore never takes an interner id, so it never widens a
  lockset's id space.  The packed path (:meth:`apply_records`, which the
  service and ``repro-race analyze`` feed) reads the edge encoder's id
  space, where every data variable is already interned: there thread and
  lock ids can land past :data:`~repro.core.lockset.BITSET_CUTOFF`, and
  locksets that hold them spill from bitmasks to frozensets;
* the packed path makes one call per record: :meth:`~EncodedGoldilocks
  .apply_records` hands an access to :meth:`~EncodedGoldilocks._handle_read`
  or :meth:`~EncodedGoldilocks._handle_write`, which build its info and
  answer the fresh, transactional and same-thread rungs themselves (only a
  check past them is a call of ``_check_happens_before``), and a simple
  sync record to one :meth:`~repro.core.synclist.EncodedSyncList
  .enqueue_encoded`; the same handlers serve :meth:`~EncodedGoldilocks
  .process` and commits;
* two fast paths beyond the paper's short circuits always run:

  - **sync-epoch check**: if no synchronization event has been enqueued
    since ``info.pos``, the lockset cannot have grown, so the ownership
    test is decisive immediately -- no traversal;
  - **shared-segment memo**: lockset advancement is a pure function of
    ``(position, lockset)``, so Infos anchored at the same position with
    equal locksets reuse one advanced result per round.

The short circuits (Section 5.1), the memo and in-place advancement of a
checked Info (Section 5.4) are the implementation, not options; the
paper's ablations run on the reference :class:`~repro.core.lazy
.LazyGoldilocks`, which keeps them switchable.

Race verdicts are identical to the seed detectors by construction (the
parity suite asserts it on every trace in the repo); only the counters that
describe *how* a verdict was reached differ.
"""

from __future__ import annotations

import io
import pickle
import sys
from typing import TYPE_CHECKING, Callable, Dict, Iterable, List, Optional, Set, Tuple

from .actions import (
    OP_ACQUIRE,
    OP_ALLOC,
    OP_COMMIT,
    OP_JOIN,
    OP_READ,
    OP_RELEASE,
    OP_WRITE,
    TL,
    Acquire,
    Alloc,
    Commit,
    DataVar,
    Event,
    Fork,
    Join,
    LockVar,
    Read,
    Release,
    VolatileRead,
    VolatileWrite,
    Write,
    sync_opcode,
)
from .detector import Detector
from .lockset import (
    BITSET_CUTOFF,
    TL_ID,
    Interner,
    IntLockset,
    ls_add,
    ls_decode,
    ls_from_mask,
    ls_has,
    ls_ids,
    ls_intersects,
    ls_mask,
    ls_pack,
    ls_union,
    ls_unpack,
)
from .report import AccessRef, RaceReport
from .synclist import SEGMENT_SIZE, EncodedSyncList

if TYPE_CHECKING:  # pragma: no cover - typing only; imported lazily at use
    from .encode import FrameFormatError


class KInfo:
    """Per-access record of the encoded kernel (cf. ``lazy.Info``).

    All fields are ints: ``owner_id`` (the accessing thread) and
    ``alock_id`` are interned ids, ``pos`` is a global position in the
    encoded list, ``ls`` an encoded lockset, ``index`` the access's index
    in its thread.  The human-facing :class:`AccessRef` is built only when
    the access takes part in a race (its kind is the table the info sits
    in: ``write_info`` or ``read_info``).
    """

    __slots__ = ("owner_id", "pos", "ls", "alock_id", "xact", "index")

    def __init__(
        self,
        owner_id: int,
        pos: int,
        ls: IntLockset,
        alock_id: Optional[int],
        xact: bool,
        index: int,
    ) -> None:
        self.owner_id = owner_id
        self.pos = pos
        self.ls = ls
        self.alock_id = alock_id
        self.xact = xact
        self.index = index

    def __repr__(self) -> str:
        return (
            f"<KInfo #{self.owner_id}@{self.index} pos={self.pos} "
            f"ls={self.ls!r} xact={self.xact}>"
        )


#: entries the shared memo may hold before it is wholesale cleared
MEMO_CAP = 4096

#: rule applications a provenance chain records before truncating; the
#: chain stays bounded no matter how long the replayed window was
PROVENANCE_CAP = 64

#: the variable key of a packed variable the kernel does not check (see
#: :meth:`EncodedGoldilocks.set_owner`)
FOREIGN = -1

#: constructor flags older checkpoints may carry but the kernel no longer
#: takes; restore drops them so ``reset()`` can re-run ``__init__``.  Each
#: only switched a fast path off, so a stored ``False`` changes no verdict.
RETIRED_CONFIG = (
    "sc_thread_restricted",
    "sc_xact",
    "sc_same_thread",
    "sc_alock",
    "sc_epoch",
    "memo_shared",
    "memoize",
)


def _canonical(var: DataVar) -> Tuple[int, str]:
    """A footprint variable's place in the canonical ``(obj, field)`` order."""
    return var.obj.value, var.field


def _xact_ls(tid_id: int, outgoing: IntLockset) -> IntLockset:
    """A transactional access's lockset: ``{t, TL} ∪ <outgoing set>``,
    exactly as in the seed detector."""
    return ls_union(ls_add(ls_add(0, tid_id), TL_ID), outgoing)


class EncodedGoldilocks(Detector):
    """The production Goldilocks algorithm on the integer-encoded kernel.

    Same verdicts as :class:`repro.core.lazy.LazyGoldilocks`, and the same
    ``name`` so reports compare equal; every fast path always runs.

    gc_threshold, trim_fraction:
        Collect the event list once it holds more than ``gc_threshold``
        events (None: never; a negative threshold raises
        :class:`ValueError`), advancing the Infos anchored in its oldest
        ``trim_fraction`` (Section 5.4).
    commit_sync:
        How a commit synchronizes (:data:`repro.core.goldilocks
        .COMMIT_SYNC_POLICIES`).
    segment_size:
        Events per storage segment of the encoded list (GC granularity).
    provenance:
        Attach the lockset-transfer chain behind each race to its report.
    """

    name = "goldilocks"

    def __init__(
        self,
        gc_threshold: Optional[int] = 50_000,
        trim_fraction: float = 0.10,
        commit_sync: str = "footprint",
        segment_size: int = SEGMENT_SIZE,
        provenance: bool = False,
    ) -> None:
        super().__init__()
        from .goldilocks import COMMIT_SYNC_POLICIES

        if commit_sync not in COMMIT_SYNC_POLICIES:
            raise ValueError(f"unknown commit_sync policy {commit_sync!r}")
        if gc_threshold is not None and gc_threshold < 0:
            raise ValueError(f"gc_threshold must be None or at least 0, got {gc_threshold}")
        # Constructor kwargs are kept verbatim so reset() cannot drift from
        # the signature (and subclasses can extend the dict, not the call).
        self._config: Dict[str, object] = {
            "gc_threshold": gc_threshold,
            "trim_fraction": trim_fraction,
            "commit_sync": commit_sync,
            "segment_size": segment_size,
            "provenance": provenance,
        }
        self.commit_sync = commit_sync
        self.gc_threshold = gc_threshold
        self.trim_fraction = trim_fraction
        self.provenance = provenance
        #: (position, lockset) of the last checked info, snapshotted at
        #: ladder entry -- the full traversal advances the info in place,
        #: so the anchor must be captured before any rung runs
        self._prov_anchor: Optional[Tuple[int, IntLockset]] = None

        self.interner = Interner()
        self.events = EncodedSyncList(segment_size)
        #: the data variables seen, by *variable key* (their index here).
        #: Data variables get keys of their own, apart from the interner:
        #: the object path never makes them lockset elements.
        self._vars: List[DataVar] = []
        self._var_keys: Dict[DataVar, int] = {}
        #: interner id of a packed read/write/footprint variable -> its
        #: variable key, or :data:`FOREIGN` when the kernel does not own
        #: it; decided at the id's first sight
        self._packed_vars: Dict[int, int] = {}
        #: which variables the packed path checks (None: every one)
        self._owns: Optional[Callable[[DataVar], bool]] = None
        #: last-write infos by variable key
        self.write_info: Dict[int, KInfo] = {}
        #: read infos by variable key, then by read slot ``tid_id << 1 |
        #: xact`` -- see lazy.py for why transactional and plain reads
        #: must not subsume each other
        self.read_info: Dict[int, Dict[int, KInfo]] = {}
        #: monitors currently held per thread id, as interned LockVar ids
        self._held: Dict[int, List[int]] = {}
        #: tracked variable keys per object value, so alloc is O(fields),
        #: not O(heap); a key joins when its variable starts being tracked
        self._by_obj: Dict[int, Set[int]] = {}
        #: (position, lockset) -> (advanced position, advanced lockset)
        self._memo: Dict[Tuple[int, IntLockset], Tuple[int, IntLockset]] = {}

    def reset(self) -> None:  # noqa: D102 - documented on the base class
        self.__init__(**self._config)  # type: ignore[misc]

    # -- public inspection -------------------------------------------------------

    def lockset_of(self, info: KInfo) -> Set[object]:
        """An Info's lockset decoded back to elements (tests, diagnostics)."""
        return ls_decode(info.ls, self.interner)

    def last_write(self, var: DataVar) -> Optional[KInfo]:
        """The last-write info of ``var``, if any (tests, diagnostics)."""
        key = self._var_keys.get(var)
        return None if key is None else self.write_info.get(key)

    # -- event dispatch (Handle-Action) ------------------------------------------

    def process(self, event: Event) -> List[RaceReport]:
        action = event.action
        if isinstance(action, Read):
            self.stats.accesses_checked += 1
            return self._handle_read(
                self.interner.intern(event.tid),
                event.index,
                self._var_key(action.var),
                None,
            )
        if isinstance(action, Write):
            self.stats.accesses_checked += 1
            return self._handle_write(
                self.interner.intern(event.tid),
                event.index,
                self._var_key(action.var),
                None,
            )
        if isinstance(action, Commit):
            return self._handle_commit(event, action)
        if isinstance(action, Alloc):
            self._handle_alloc(action.obj.value)
            return []
        # Simple synchronization action: encode once, enqueue, track locks.
        self.stats.sync_events += 1
        intern = self.interner.intern
        tid_id = intern(event.tid)
        if isinstance(action, Acquire):
            lock_id = intern(LockVar(action.obj))
            self._held.setdefault(tid_id, []).append(lock_id)
            key, gain = lock_id, tid_id
        elif isinstance(action, Release):
            lock_id = intern(LockVar(action.obj))
            held = self._held.get(tid_id, [])
            # Remove the innermost matching hold (monitors are re-entrant).
            for i in range(len(held) - 1, -1, -1):
                if held[i] == lock_id:
                    del held[i]
                    break
            key, gain = tid_id, lock_id
        elif isinstance(action, VolatileRead):
            key, gain = intern(action.var), tid_id
        elif isinstance(action, VolatileWrite):
            key, gain = tid_id, intern(action.var)
        elif isinstance(action, Fork):
            key, gain = tid_id, intern(action.child)
        elif isinstance(action, Join):
            key, gain = intern(action.child), tid_id
        else:  # pragma: no cover - exhaustive over SyncAction minus Commit
            raise TypeError(f"not a simple synchronization action: {action!r}")
        self.events.enqueue_encoded(sync_opcode(action), key, gain)
        self._maybe_collect()
        return []

    # -- data accesses ------------------------------------------------------------

    def _var_key(self, var: DataVar) -> int:
        """The variable key of ``var``, assigned at its first sight."""
        key = self._var_keys.get(var)
        if key is None:
            key = self._var_keys[var] = len(self._vars)
            self._vars.append(var)
        return key

    def _track(self, key: int) -> None:
        """File a variable that starts being tracked under its object."""
        self._by_obj.setdefault(self._vars[key].obj.value, set()).add(key)

    def _handle_read(
        self,
        tid_id: int,
        index: int,
        key: int,
        txn_extra: Optional[IntLockset],
    ) -> List[RaceReport]:
        """A read is checked against the last write only (cf. lazy.py).

        Builds the access's info here: its lockset is ``{t}``, or ``{t, TL}
        ∪ txn_extra`` in a transaction, and a plain access records the
        innermost lock its thread holds.  The fresh, transactional and
        same-thread rungs are answered here too; only a check past them
        calls :meth:`_check_happens_before`.
        """
        pos = self.events.total_enqueued
        if txn_extra is None:
            xact = False
            held = self._held.get(tid_id)
            ls = 1 << tid_id if tid_id < BITSET_CUTOFF else frozenset((tid_id,))
            info = KInfo(tid_id, pos, ls, held[-1] if held else None, False, index)
        else:
            xact = True
            info = KInfo(tid_id, pos, _xact_ls(tid_id, txn_extra), None, True, index)
        reports: List[RaceReport] = []
        prev_write = self.write_info.get(key)
        per_thread = self.read_info.get(key)
        if prev_write is None:
            if per_thread is None:
                self.stats.sc_fresh += 1
        elif xact and prev_write.xact:
            self.stats.sc_xact += 1
        elif prev_write.owner_id == tid_id:
            self.stats.sc_same_thread += 1
        elif not self._check_happens_before(prev_write, info):
            reports.append(self._report(key, prev_write, "write", info, "read"))
            if self.suppress_racy_updates:
                return reports  # the access is being suppressed
        if per_thread is None:
            per_thread = self.read_info[key] = {}
            if prev_write is None:
                self._track(key)
        slot = tid_id << 1 | xact
        if not xact:
            per_thread.pop(slot | 1, None)
        per_thread[slot] = info
        return reports

    def _handle_write(
        self,
        tid_id: int,
        index: int,
        key: int,
        txn_extra: Optional[IntLockset],
    ) -> List[RaceReport]:
        """A write is checked against the last write and all reads since it.

        The info and the first rungs are as in :meth:`_handle_read`.
        """
        pos = self.events.total_enqueued
        if txn_extra is None:
            xact = False
            held = self._held.get(tid_id)
            ls = 1 << tid_id if tid_id < BITSET_CUTOFF else frozenset((tid_id,))
            info = KInfo(tid_id, pos, ls, held[-1] if held else None, False, index)
        else:
            xact = True
            info = KInfo(tid_id, pos, _xact_ls(tid_id, txn_extra), None, True, index)
        reports: List[RaceReport] = []
        stats = self.stats
        prev_write = self.write_info.get(key)
        readers = self.read_info.get(key)
        if readers:
            for reader_info in readers.values():
                if xact and reader_info.xact:
                    stats.sc_xact += 1
                elif reader_info.owner_id == tid_id:
                    stats.sc_same_thread += 1
                elif not self._check_happens_before(reader_info, info):
                    reports.append(self._report(key, reader_info, "read", info, "write"))
        elif prev_write is None:
            stats.sc_fresh += 1
        if prev_write is not None:
            if xact and prev_write.xact:
                stats.sc_xact += 1
            elif prev_write.owner_id == tid_id:
                stats.sc_same_thread += 1
            elif not self._check_happens_before(prev_write, info):
                reports.append(self._report(key, prev_write, "write", info, "write"))
        if reports and self.suppress_racy_updates:
            return reports  # the access is being suppressed
        if readers:
            del self.read_info[key]
        elif prev_write is None:
            self._track(key)
        self.write_info[key] = info
        return reports

    def _handle_commit(self, event: Event, action: Commit) -> List[RaceReport]:
        """Section 5.3: enqueue the commit first, then check its accesses.

        Footprint variables are interned in the canonical ``(obj, field)``
        order of the packed path, so the interner -- and a checkpoint --
        never depends on ``frozenset`` iteration order (string hashing).
        """
        self.stats.sync_events += 1
        intern = self.interner.intern
        tid_id = intern(event.tid)
        footprint = sorted(action.footprint, key=_canonical)
        if self.commit_sync == "footprint":
            gain_ls: IntLockset = 0
            for var in footprint:
                gain_ls = ls_add(gain_ls, intern(var))
        else:
            gain_ls = ls_add(0, TL_ID)
        row = self.events.add_commit_row(gain_ls, gain_ls, tid_id)
        self.events.enqueue_encoded(OP_COMMIT, row, 0)
        reports: List[RaceReport] = []
        for var in footprint:
            self.stats.accesses_checked += 1
            handle = self._handle_write if var in action.writes else self._handle_read
            reports.extend(handle(tid_id, event.index, self._var_key(var), gain_ls))
        self._maybe_collect()
        return reports

    # -- packed ingestion (the encode-once path) ---------------------------------

    def set_owner(self, owns: Optional[Callable[[DataVar], bool]]) -> None:
        """Check only the packed variables ``owns`` accepts (None: all).

        Every commit arrives with its whole footprint; a variable ``owns``
        refuses still synchronizes, it is just not checked.  Each id is
        decided again at its next sight.
        """
        self._owns = owns
        self._packed_vars.clear()

    def apply_packed(self, frame: bytes) -> Tuple[List[Tuple[int, RaceReport]], int]:
        """Consume one packed frame; returns ``((seq, report) list, n events)``.

        The frame's simple sync records carry exactly the ``(key, gain)``
        pair :meth:`process` would compute, so they are appended to the
        encoded list verbatim -- no ``Event`` is ever constructed and no
        sync payload is decoded (the edge already did it, once).  Commits
        arrive as footprint id lists in the frame's extras; their gain
        locksets are rebuilt from ids alone.  Data accesses stay ints too:
        a variable id is resolved once, at its first sight, to the
        variable key its state is filed under.

        A delta that contradicts the ids this kernel holds refuses the
        whole frame: a :class:`~repro.core.encode.FrameFormatError` with
        ``record`` None, counted in ``frame_faults``, nothing applied.
        """
        from .encode import FrameFormatError, decode_frame, extend_interner

        base, delta, records, extras = decode_frame(frame)
        try:
            extend_interner(self.interner, base, delta)
        except FrameFormatError:
            self.stats.frame_faults += 1
            raise
        return self.apply_records(records, extras)

    def _refuse(
        self, problem: str, op: Optional[int], record: int, applied: int
    ) -> FrameFormatError:
        """Count one frame fault; the typed error for the caller to raise."""
        from .encode import FrameFormatError

        self.stats.frame_faults += 1
        return FrameFormatError(
            f"{problem} at record {record} ({applied} records applied)",
            kind=op,
            record=record,
            applied=applied,
        )

    def _resolve_packed(self, eid: int, op: int, record: int, applied: int):
        """Guarded interner lookup for ids arriving in packed records.

        A stale id (out of the replica's range) means the frame and the
        interner state disagree -- surfaced as a typed
        :class:`~repro.core.encode.FrameFormatError` instead of leaking an
        ``IndexError`` from list indexing.
        """
        if 0 <= eid < len(self.interner):
            return self.interner.resolve(eid)
        raise self._refuse(
            f"stale interner id {eid} (opcode {op})", op, record, applied
        )

    def _packed_var(self, var_id: int, op: int, record: int, applied: int) -> int:
        """Decide, at its first sight, what a packed variable id names.

        Returns its variable key, or :data:`FOREIGN` when the kernel does
        not own the variable, and remembers the answer for the id.  An id that
        names no data variable (a thread, a lock, a volatile) raises a typed
        :class:`~repro.core.encode.FrameFormatError`.
        """
        var = self._resolve_packed(var_id, op, record, applied)
        if type(var) is not DataVar:
            raise self._refuse(
                f"variable id {var_id} resolves to {var!r}, not a data variable,",
                op,
                record,
                applied,
            )
        owns = self._owns
        key = self._var_key(var) if owns is None or owns(var) else FOREIGN
        self._packed_vars[var_id] = key
        return key

    def apply_records(
        self, records, extras
    ) -> Tuple[List[Tuple[int, RaceReport]], int]:
        """Apply decoded ``(records, extras)`` arrays, one call per record.

        An access is one call of :meth:`_handle_read` or
        :meth:`_handle_write`, a simple sync record one
        :meth:`EncodedSyncList.enqueue_encoded`; the list is collected
        only once it holds more than ``gc_threshold`` events.

        A record the kernel cannot apply raises :class:`~repro.core.encode
        .FrameFormatError`, counted in ``frame_faults``, carrying the
        record offset, the number of records fully applied before it and,
        as ``reports``, the races those records completed; nothing after
        it is applied.  Refused are: an opcode outside ``OP_ACQUIRE ..
        OP_ALLOC``; a thread id, or a simple sync record's key or gain,
        outside the interner; an id that names no element of the class its
        slot needs; a commit footprint outside ``extras``.  An array that
        is not whole records is refused before anything is applied.
        """
        from .encode import RECORD_WIDTH, FrameFormatError

        partial = len(records) % RECORD_WIDTH
        if partial:
            raise self._refuse(
                f"a partial record of {partial} ints", None, len(records) // RECORD_WIDTH, 0
            )
        reports: List[Tuple[int, RaceReport]] = []
        count = 0
        stats = self.stats
        packed_vars = self._packed_vars
        events = self.events
        enqueue = events.enqueue_encoded
        n_ids = len(self.interner)
        threshold = self.gc_threshold if self.gc_threshold is not None else sys.maxsize
        it = iter(records)
        try:
            for op, seq, tid_id, index, a, b in zip(it, it, it, it, it, it):
                if not 0 <= tid_id < n_ids:
                    raise self._refuse(
                        f"thread id {tid_id} outside the interner", op, count, count
                    )
                if op == OP_READ or op == OP_WRITE:
                    if a < 0:
                        # admission-filtered access (normally dropped at the
                        # edge; counted here in case a record slips through)
                        stats.accesses_filtered += 1
                        count += 1
                        continue
                    key = packed_vars.get(a)
                    if key is None:
                        key = self._packed_var(a, op, count, count)
                    if key != FOREIGN:
                        stats.accesses_checked += 1
                        if op == OP_READ:
                            found = self._handle_read(tid_id, index, key, None)
                        else:
                            found = self._handle_write(tid_id, index, key, None)
                        for report in found:
                            reports.append((seq, report))
                elif OP_ACQUIRE <= op <= OP_JOIN:
                    if not (0 <= a < n_ids and 0 <= b < n_ids):
                        raise self._refuse(
                            f"sync operands ({a}, {b}) outside the interner",
                            op,
                            count,
                            count,
                        )
                    stats.sync_events += 1
                    if op == OP_ACQUIRE:  # a is the lock id, b the acquirer
                        self._held.setdefault(tid_id, []).append(a)
                    elif op == OP_RELEASE:  # b is the lock id (innermost hold)
                        held = self._held.get(tid_id, [])
                        for k in range(len(held) - 1, -1, -1):
                            if held[k] == b:
                                del held[k]
                                break
                    # the list now holds more than ``threshold`` events
                    if enqueue(op, a, b) - events.head_pos >= threshold:
                        self._maybe_collect()
                elif op == OP_COMMIT:
                    reports.extend(
                        self._packed_commit(seq, tid_id, index, a, extras, count, count)
                    )
                elif op == OP_ALLOC:
                    if a < 0:
                        # admission-filtered alloc: nothing to invalidate
                        stats.accesses_filtered += 1
                    else:
                        proxy = self._resolve_packed(a, op, count, count)
                        if type(proxy) is not LockVar:
                            raise self._refuse(
                                f"alloc id {a} resolves to {proxy!r}, not an "
                                "object proxy,",
                                op,
                                count,
                                count,
                            )
                        self._handle_alloc(proxy.obj.value)
                else:
                    raise self._refuse(f"unknown opcode {op}", op, count, count)
                count += 1
        except FrameFormatError as exc:
            exc.reports = reports
            raise
        return reports, count

    def _packed_commit(
        self,
        seq: int,
        tid_id: int,
        index: int,
        offset,
        extras,
        record: int = -1,
        applied: int = 0,
    ) -> List[Tuple[int, RaceReport]]:
        """Section 5.3 on a packed commit: gains come straight from the ids.

        Every footprint id is decided before the commit is enqueued, so a
        refused commit leaves no trace.  Footprint entries holding the
        :data:`~repro.core.encode.FILTERED_VAR` sentinel (an admission
        filter dropped the variable at some edge) are skipped -- not
        resolved -- and counted in ``accesses_filtered``, so the gain
        lockset matches what the encoder actually shipped.
        """
        if not 0 <= offset < len(extras):
            raise self._refuse(
                f"commit extras offset {offset} outside the extras array",
                OP_COMMIT,
                record,
                applied,
            )
        n_vars = extras[offset]
        end = offset + 1 + 2 * n_vars
        if n_vars < 0 or end > len(extras):
            raise self._refuse(
                f"commit footprint of {n_vars} vars overruns the extras array",
                OP_COMMIT,
                record,
                applied,
            )
        # extras arrive in the canonical (obj, field) order of _handle_commit
        checks: List[Tuple[int, int]] = []
        filtered = 0
        gain_ls: IntLockset = 0
        for j in range(offset + 1, end, 2):
            var_id = extras[j]
            if var_id < 0:
                filtered += 1  # admission-filtered footprint entry
                continue
            key = self._packed_vars.get(var_id)
            if key is None:
                key = self._packed_var(var_id, OP_COMMIT, record, applied)
            if key != FOREIGN:
                checks.append((key, extras[j + 1]))
            gain_ls = ls_add(gain_ls, var_id)
        if self.commit_sync == "footprint":
            incoming_ls = outgoing_ls = gain_ls
        else:
            incoming_ls = outgoing_ls = ls_add(0, TL_ID)
        self.stats.sync_events += 1
        self.stats.accesses_filtered += filtered
        row = self.events.add_commit_row(incoming_ls, outgoing_ls, tid_id)
        self.events.enqueue_encoded(OP_COMMIT, row, 0)
        reports: List[Tuple[int, RaceReport]] = []
        for key, is_write in checks:
            self.stats.accesses_checked += 1
            if is_write:
                found = self._handle_write(tid_id, index, key, outgoing_ls)
            else:
                found = self._handle_read(tid_id, index, key, outgoing_ls)
            for report in found:
                reports.append((seq, report))
        self._maybe_collect()
        return reports

    def _handle_alloc(self, obj_value: int) -> None:
        """Allocation makes every field of the object fresh: drop its infos."""
        live = self._by_obj.pop(obj_value, None)
        if not live:
            return
        for key in live:
            self.write_info.pop(key, None)
            self.read_info.pop(key, None)

    # -- Check-Happens-Before -------------------------------------------------------

    def _check_happens_before(self, info1: KInfo, info2: KInfo) -> bool:
        """The constant-time rungs past the access handlers' (fresh,
        transactional, same-thread), then the walk."""
        if self.provenance:
            # Snapshot before any rung runs: the full traversal advances
            # info1 in place, destroying the replay window a failing
            # verdict would need to explain itself.
            self._prov_anchor = (info1.pos, info1.ls)
        if info1.alock_id is not None and info1.alock_id in self._held.get(
            info2.owner_id, ()
        ):
            self.stats.sc_alock += 1
            return True
        if info1.pos == self.events.total_enqueued:
            # No synchronization since the anchor: replay would apply zero
            # rules, so the ownership test decides right now.
            self.stats.sc_epoch += 1
            return self._owned(info1.ls, info2)
        return self._full_traversal(info1, info2)

    @staticmethod
    def _owned(ls: IntLockset, info2: KInfo) -> bool:
        """The Figure 8 ownership test on an encoded lockset."""
        if ls_has(ls, info2.owner_id):
            return True
        return info2.xact and ls_has(ls, TL_ID)

    def _full_traversal(self, info1: KInfo, info2: KInfo) -> bool:
        """``Apply-Lockset-Rules`` by an in-order walk, stopping at ownership.

        The moment the advancing lockset owns ``info2`` the verdict is
        settled (rules only add elements), so the walk stops.  The partial
        lockset is exact for the walked prefix, so the anchor still
        advances to the exit position and the memo still learns: repeated
        checks against a hot variable do not walk the same window again.
        """
        self.stats.full_lockset_computations += 1
        events = self.events
        end = events.total_enqueued
        start = info1.pos
        ls = info1.ls
        scan_start, scan_ls = start, ls
        hit = self._memo.get((start, ls))
        if hit is not None:
            self.stats.memo_shared_hits += 1
            scan_start, scan_ls = hit
        if scan_start >= end:
            new_ls, reached = scan_ls, end
        else:
            new_ls, reached = self._skip_scan(scan_ls, scan_start, end, info2)
        if len(self._memo) >= MEMO_CAP:
            self._memo.clear()
        self._memo[(start, ls)] = (reached, new_ls)
        info1.pos = reached
        info1.ls = new_ls
        return self._owned(new_ls, info2)

    def _skip_scan(
        self,
        ls: IntLockset,
        start: int,
        end: int,
        target: Optional[KInfo],
    ) -> Tuple[IntLockset, int]:
        """Replay the cells of ``[start, end)`` in list order, by segment.

        The walk runs on the lockset's unbounded id bitmask.  A segment
        whose :attr:`~repro.core.synclist._Segment.mask` (the ids that can
        fire one of its rules) misses the lockset is skipped with one AND:
        no rule in it can fire, so the lockset leaves it unchanged.  Every
        other segment is walked row by row; ``cells_traversed`` counts the
        cells walked, and a skipped segment adds none.

        With a ``target`` info the walk stops at the first position where
        the ownership test succeeds -- sound because rules only ever *add*
        elements.  Returns ``(lockset, reached)``: ``reached`` is the
        position the lockset is valid at, ``end`` for a completed walk, and
        the lockset is the linear replay's up to it, in its canonical
        representation (:func:`~repro.core.lockset.ls_from_mask`), so an
        early exit is a valid (shorter) advancement, not a throwaway.
        """
        mask = ls_mask(ls)
        want = 0
        if target is not None:
            want = 1 << target.owner_id
            if target.xact:
                want |= 1 << TL_ID
            if mask & want:
                return ls, start
        events = self.events
        segments = events.segments
        table = events.commit_table
        size = events.segment_size
        grown = mask
        visited = 0
        first = start // size
        for index in range(first, (end - 1) // size + 1):
            segment = segments[index]
            if not segment.mask & grown:
                continue
            base = index * size
            lo = start - base if index == first else 0
            hi = min(size, end - base)
            ops, keys, gains = segment.ops, segment.keys, segment.gains
            for slot in range(lo, hi):
                key = keys[slot]
                if ops[slot] != OP_COMMIT:
                    if not grown & 1 << key:
                        continue
                    bit = 1 << gains[slot]
                    if grown & bit:
                        continue
                    grown |= bit
                else:
                    incoming, outgoing, committer = table[key]
                    bit = 1 << committer
                    after = grown
                    if after & ls_mask(incoming):
                        after |= bit
                    if after & bit:
                        after |= ls_mask(outgoing)
                    if after == grown:
                        continue
                    grown = after
                if grown & want:
                    self.stats.cells_traversed += visited + slot + 1 - lo
                    return ls_from_mask(grown), base + slot + 1
            visited += hi - lo
        self.stats.cells_traversed += visited
        return (ls if grown == mask else ls_from_mask(grown)), end

    def _report(
        self, key: int, info1: KInfo, kind1: str, info2: KInfo, kind2: str
    ) -> RaceReport:
        """The report of a race on variable ``key``; the only place where
        the accesses' :class:`AccessRef` objects are built."""
        self.stats.races += 1
        provenance = self._derive_provenance(info1, info2) if self.provenance else None
        resolve = self.interner.resolve
        return RaceReport(
            var=self._vars[key],
            first=AccessRef(resolve(info1.owner_id), info1.index, kind1, info1.xact),
            second=AccessRef(resolve(info2.owner_id), info2.index, kind2, info2.xact),
            detector=self.name,
            provenance=provenance,
        )

    def _derive_provenance(self, info1: KInfo, info2: KInfo):
        """Re-derive the lockset-transfer chain behind a failed verdict.

        Replays the anchor window ``[anchor_pos, total_enqueued)`` that the
        failing check just traversed (no event has been enqueued and no GC
        has run between the check and the report, so the window is intact)
        and records every rule application that grew or transferred the
        lockset, with ``(segment, slot)`` storage positions.  The chain is
        bounded by :data:`PROVENANCE_CAP`; derivation touches no counters,
        so race lines and deterministic work stay identical either way.
        """
        anchor = self._prov_anchor
        if anchor is None:
            return None
        anchor_pos, anchor_ls = anchor
        events = self.events
        end = events.total_enqueued
        size = events.segment_size
        table = events.commit_table
        ls = anchor_ls
        entries: List[Dict[str, object]] = []
        applied = 0
        element_ids: Set[int] = set()

        def note(pos: int, rule: str, **detail: object) -> None:
            nonlocal applied
            applied += 1
            if len(entries) < PROVENANCE_CAP:
                entry: Dict[str, object] = {
                    "pos": pos,
                    "segment": pos // size,
                    "slot": pos % size,
                    "rule": rule,
                }
                entry.update(detail)
                entries.append(entry)

        pos = anchor_pos
        while pos < end:
            op, key, gain = events.at(pos)
            if op != OP_COMMIT:
                if ls_has(ls, key) and not ls_has(ls, gain):
                    ls = ls_add(ls, gain)
                    element_ids.update((key, gain))
                    note(pos, "transfer", op=op, key=key, gain=gain)
            else:
                incoming, outgoing, committer = table[key]
                if ls_intersects(ls, incoming) and not ls_has(ls, committer):
                    ls = ls_add(ls, committer)
                    element_ids.add(committer)
                    note(pos, "commit-incoming", row=key, committer=committer)
                if ls_has(ls, committer):
                    new_ls = ls_union(ls, outgoing)
                    if new_ls != ls:
                        ls = new_ls
                        element_ids.add(committer)
                        note(pos, "commit-outgoing", row=key, committer=committer)
            pos += 1
        element_ids.update((info1.owner_id, info2.owner_id))
        elements = {}
        for eid in sorted(element_ids):
            if 0 <= eid < len(self.interner):
                elements[eid] = repr(self.interner.resolve(eid))
        return {
            "anchor": {
                "pos": anchor_pos,
                "segment": anchor_pos // size,
                "slot": anchor_pos % size,
            },
            "end_pos": end,
            "first_owner": info1.owner_id,
            "second_owner": info2.owner_id,
            "owned": self._owned(ls, info2),
            "rules_applied": applied,
            "truncated": applied > len(entries),
            "entries": entries,
            "elements": elements,
        }

    # -- garbage collection and partially-eager evaluation ---------------------------

    def _maybe_collect(self) -> None:
        events = self.events
        if self.gc_threshold is None or len(events) <= self.gc_threshold:
            return
        # A collection frees whole segments before the one being appended
        # to, and advances only infos anchored before it: with no such
        # segment (a threshold below the segment size) it could do nothing.
        size = events.segment_size
        if events.total_enqueued // size > events.head_pos // size:
            self.collect()

    def collect(self) -> int:
        """Reclaim the event-list prefix (Section 5.4); returns events freed.

        Same two phases as the seed detector -- free the prefix no info is
        anchored in, then partially-eagerly advance every lockset anchored
        in the oldest ``trim_fraction`` and free again -- at whole-segment
        granularity.  Where the seed detector reference-counts list cells,
        one walk over the infos per collection gives both the oldest anchor
        (phase one's bound) and the infos below the cutoff (phase two's).
        The cutoff is rounded up to a segment boundary, but never past the
        start of the segment still being appended to, so the advanced
        infos leave every segment before it and the second phase always
        frees storage.  The shared memo is cleared whenever storage is
        freed: its entries may point into reclaimed segments.
        """
        events = self.events
        infos = list(self._all_infos())
        freed = events.collect_prefix(
            min((info.pos for info in infos), default=events.total_enqueued)
        )
        threshold = self.gc_threshold if self.gc_threshold is not None else 0
        if len(events) > threshold:
            size = events.segment_size
            prefix_end = events.head_pos + max(1, int(len(events) * self.trim_fraction))
            cutoff = min(
                -(-prefix_end // size) * size,
                events.total_enqueued - events.total_enqueued % size,
            )
            pinned = [info for info in infos if info.pos < cutoff]
            if pinned:
                # every info now stands at or past the cutoff
                self._advance_to(pinned, cutoff)
                freed += events.collect_prefix(cutoff)
        if freed:
            self._memo.clear()
        self.stats.cells_collected += freed
        return freed

    def _all_infos(self) -> Iterable[KInfo]:
        for info in self.write_info.values():
            yield info
        for per_thread in self.read_info.values():
            for info in per_thread.values():
                yield info

    def _advance_to(self, infos: List[KInfo], cutoff: int) -> None:
        """Advance every info to ``cutoff`` in one backward pass (5.4).

        Each Figure 5 rule adds elements because of one member already in
        the lockset, so replay distributes over union: a set grows into the
        union of what its singletons grow into.  Walking back from
        ``cutoff``, ``reach[e]`` is what ``{e}`` at the current position
        grows into by ``cutoff``, as an unbounded id bitmask (absent means
        ``{e}`` itself); an info anchored here gets the union of its
        members' ``reach``, in canonical form.  Cost: one pass over
        ``[oldest anchor, cutoff)`` plus the locksets' sizes, where a
        forward replay per info costs infos x prefix.
        """
        events = self.events
        anchored: Dict[int, List[KInfo]] = {}
        for info in infos:
            anchored.setdefault(info.pos, []).append(info)
        stops = sorted(anchored, reverse=True)
        self.stats.partial_evaluations += len(infos)
        self.stats.cells_traversed += cutoff - stops[-1]
        size = events.segment_size
        segments = events.segments
        table = events.commit_table
        reach: Dict[int, int] = {}
        get = reach.get
        #: advanced mask -> its canonical lockset: infos often advance to
        #: the same set, and decoding a mask past the cutoff is costly
        canonical: Dict[int, IntLockset] = {}
        pos = cutoff
        for stop in stops:
            while pos > stop:  # cells [stop, pos), newest first
                base = (pos - 1) - (pos - 1) % size
                segment = segments[base // size]
                ops, keys, gains = segment.ops, segment.keys, segment.gains
                low = max(stop, base)
                for slot in range(pos - 1 - base, low - 1 - base, -1):
                    key = keys[slot]
                    if ops[slot] != OP_COMMIT:
                        gain = gains[slot]
                        reach[key] = get(key, 1 << key) | get(gain, 1 << gain)
                    else:
                        # read committer and outgoing before writing any
                        incoming, outgoing, committer = table[key]
                        grown = get(committer, 1 << committer)
                        for eid in ls_ids(outgoing):
                            grown |= get(eid, 1 << eid)
                        for eid in ls_ids(incoming):
                            reach[eid] = get(eid, 1 << eid) | grown
                        reach[committer] = grown
                pos = low
            for info in anchored[stop]:
                mask = 0
                for eid in ls_ids(info.ls):
                    mask |= get(eid, 1 << eid)
                ls = canonical.get(mask)
                if ls is None:
                    ls = canonical[mask] = ls_from_mask(mask)
                info.pos = cutoff
                info.ls = ls

    # -- checkpointing ---------------------------------------------------------

    # Positions are stored as (segment, slot) pairs and locksets in their
    # canonical packed form, so a checkpoint is byte-stable: restoring and
    # re-checkpointing yields the identical blob.  The shared memo, the
    # variable keys and the per-object index are derived state and
    # deliberately absent: infos are filed under their DataVar, read infos
    # under ``(Tid, xact)``, and each carries its AccessRef, as they were
    # when the kernel kept objects in its tables.

    def __getstate__(self) -> dict:
        writes, reads = self._pack_infos(self.write_info, self.read_info)
        return {
            "config": sorted(self._config.items()),
            "suppress_racy_updates": self.suppress_racy_updates,
            "stats": self.stats,
            "events": self.events,
            "interner": self.interner,
            "held": self._held,
            "write_info": writes,
            "read_info": reads,
        }

    def __setstate__(self, state: dict) -> None:
        from sys import intern

        # Interning the kwarg names keeps re-pickling byte-stable: instance
        # __dict__s hold the interned attribute strings, and the memo
        # structure of a checkpoint must not depend on whether the config
        # keys arrived from source literals or from a previous unpickle.
        self._config = {
            intern(key): value
            for key, value in state["config"]
            if key not in RETIRED_CONFIG
        }
        for key, value in self._config.items():
            if key not in ("segment_size",):
                setattr(self, key, value)
        # Checkpoints written before provenance existed lack the key.
        self.provenance = bool(self._config.get("provenance", False))
        self._prov_anchor = None
        self.suppress_racy_updates = state["suppress_racy_updates"]
        self.stats = state["stats"]
        self.events = state["events"]
        self.interner = state["interner"]
        self._held = state["held"]
        self._memo = {}
        self._vars = []
        self._var_keys = {}
        self._packed_vars = {}
        self._owns = None
        self._by_obj = {}
        self.write_info = {}
        self.read_info = {}
        self._file_infos(state["write_info"], state["read_info"])

    def _pack_infos(self, write_keys: Iterable[int], read_keys: Iterable[int]):
        """The checkpoint layout of these variables' write and read infos."""
        size = self.events.segment_size
        resolve = self.interner.resolve

        def pack(info: KInfo, kind: str) -> tuple:
            return (
                info.owner_id,
                (info.pos // size, info.pos % size),
                ls_pack(info.ls),
                info.alock_id,
                info.xact,
                AccessRef(resolve(info.owner_id), info.index, kind, info.xact),
            )

        variables = self._vars
        writes = {variables[key]: pack(self.write_info[key], "write") for key in write_keys}
        reads = {
            variables[key]: {
                (resolve(slot >> 1), bool(slot & 1)): pack(info, "read")
                for slot, info in self.read_info[key].items()
            }
            for key in read_keys
        }
        return writes, reads

    def _file_infos(self, writes: dict, reads: dict, tail: Optional[int] = None) -> None:
        """File infos in the :meth:`_pack_infos` layout, each anchored at
        ``tail`` when it is given."""
        size = self.events.segment_size

        def unpack(packed: tuple) -> KInfo:
            owner_id, (seg, slot), ls, alock_id, xact, ref = packed
            pos = seg * size + slot if tail is None else tail
            return KInfo(owner_id, pos, ls_unpack(ls), alock_id, xact, ref.index)

        for var, packed in writes.items():
            key = self._var_key(var)
            self.write_info[key] = unpack(packed)
            self._track(key)
        for var, per_thread in reads.items():
            key = self._var_key(var)
            infos = self.read_info[key] = {}
            self._track(key)
            for packed in per_thread.values():
                info = unpack(packed)
                infos[info.owner_id << 1 | info.xact] = info

    # -- variable checkpoints: the state a process hands over for a group ------

    def _vars_of(self, select: Callable[[DataVar], bool]) -> List[int]:
        """The keys of the tracked variables ``select`` picks, in canonical
        ``(obj, field)`` order."""
        variables = self._vars
        tracked = set(self.write_info) | set(self.read_info)
        picked = [key for key in tracked if select(variables[key])]
        return sorted(picked, key=lambda key: _canonical(variables[key]))

    def _infos_of(self, key: int) -> List[KInfo]:
        infos = list(self.read_info.get(key, {}).values())
        if key in self.write_info:
            infos.append(self.write_info[key])
        return infos

    def _held_table(self) -> List[Tuple[int, List[int]]]:
        """The monitors each thread holds, in canonical order."""
        return sorted((tid, list(locks)) for tid, locks in self._held.items() if locks)

    def _vars_state(self, select: Callable[[DataVar], bool], partition: tuple) -> dict:
        """The checkpoint of the variables ``select`` picks, as a dict.

        Their infos are first advanced to the tail in one :meth:`_advance_to`
        pass (partially-eager evaluation, Section 5.4), so the state holds
        no cell of the synchronization list: ``partition`` (which part of
        the variables ``select`` is, for the adopter to check), the
        interner, the number of synchronization events applied, the
        lock-hold table and the infos, in the whole checkpoint's layout and
        canonical order.
        """
        tail = self.events.total_enqueued
        keys = self._vars_of(select)
        behind = [info for key in keys for info in self._infos_of(key) if info.pos < tail]
        if behind:
            self._advance_to(behind, tail)
        writes, reads = self._pack_infos(
            [key for key in keys if key in self.write_info],
            [key for key in keys if key in self.read_info],
        )
        return {
            "partition": partition,
            "commit_sync": self.commit_sync,
            "sync_events": tail,
            "held": self._held_table(),
            "interner": self.interner,
            "write_info": writes,
            "read_info": reads,
        }

    def export_vars(self, select: Callable[[DataVar], bool], partition: tuple) -> bytes:
        """Checkpoint the access state of the variables ``select`` picks
        (:meth:`_vars_state`, pickled): adopting a blob and exporting it
        again returns the same bytes."""
        return pickle.dumps(self._vars_state(select, partition), protocol=pickle.HIGHEST_PROTOCOL)

    def adopt_vars(self, state: dict, select: Callable[[DataVar], bool]) -> None:
        """File the infos of a :func:`load_vars_checkpoint` state at the tail.

        The checkpoint's variables must all be ones ``select`` picks, and
        the kernel must stand where the exporter stood -- as many
        synchronization events applied, the same monitors held, the same
        commit policy -- or the infos would belong to another execution:
        :class:`ValueError` names what differs, and nothing is filed.  A
        kernel that has applied nothing takes the checkpoint's position and
        lock-hold table instead (a process restarting from checkpoints),
        once its infos are filed.
        """
        writes, reads = state["write_info"], state["read_info"]
        count, held = state["sync_events"], state["held"]
        if state["commit_sync"] != self.commit_sync:
            raise ValueError(f"checkpoint's commits synchronize by {state['commit_sync']!r}")
        for var in [*writes, *reads]:
            if type(var) is not DataVar or not select(var):
                raise ValueError(f"checkpoint holds {var!r}, which this kernel does not own")
        events = self.events
        fresh = events.total_enqueued == 0 and not self.write_info and not self.read_info
        if not fresh and count != events.total_enqueued:
            raise ValueError(
                f"checkpoint taken after {count} synchronization events, "
                f"this kernel has applied {events.total_enqueued}"
            )
        if not fresh and held != self._held_table():
            raise ValueError("checkpoint's lock-hold table differs from this kernel's")
        # each variable as the interner's own object, as the packed path
        # files it, so exporting again pickles it once
        own = self.interner
        try:
            held_map = {tid: list(locks) for tid, locks in held}
            self._file_infos(
                {own.resolve(own.intern(var)): packed for var, packed in writes.items()},
                {own.resolve(own.intern(var)): packed for var, packed in reads.items()},
                tail=count,
            )
            if fresh:
                events.start_at(count)  # last: it refuses a bad count untouched
        except (AttributeError, TypeError, ValueError) as exc:
            self.drop_vars(select)  # nothing of a malformed blob stays filed
            raise ValueError(f"malformed checkpoint: {exc!r}") from exc
        if fresh:
            self._held = held_map

    def drop_vars(self, select: Callable[[DataVar], bool]) -> None:
        """Forget the access state of the variables ``select`` picks; their
        infos are deleted, as an allocation's are, so they no longer hold
        back the next collection."""
        for key in self._vars_of(select):
            self.write_info.pop(key, None)
            self.read_info.pop(key, None)
            obj = self._vars[key].obj.value
            self._by_obj[obj].discard(key)
            if not self._by_obj[obj]:
                del self._by_obj[obj]


#: every class a variable checkpoint -- or an older group checkpoint, a
#: whole pickled kernel -- may name, as exact ``(module, name)`` pairs.  A
#: module prefix would not do: a dotted name can reach any callable through
#: module attributes (``pickle.loads`` included).
CHECKPOINT_CLASSES = frozenset(
    {
        ("repro.core.actions", "DataVar"),
        ("repro.core.actions", "LockVar"),
        ("repro.core.actions", "VolatileVar"),
        ("repro.core.actions", "Obj"),
        ("repro.core.actions", "Tid"),
        ("repro.core.actions", "_TransactionLock"),
        ("repro.core.lockset", "Interner"),
        ("repro.core.report", "AccessRef"),
        ("repro.core.stats", "DetectorStats"),
        ("repro.core.synclist", "EncodedSyncList"),
    }
)

#: what :meth:`EncodedGoldilocks.export_vars` pickles
_VARS_CHECKPOINT_KEYS = {
    "partition", "commit_sync", "sync_events", "held", "interner", "write_info", "read_info"
}

#: the name older group checkpoints pickled their whole kernel under
_OLDER_GROUP_KERNEL = ("repro.server.engine", "PartitionedGoldilocks")


class _OlderGroupKernel(EncodedGoldilocks):
    """What an older group checkpoint unpickles as: a whole kernel with its
    own synchronization list, plus the ``partition`` it was the group of."""

    def __setstate__(self, state: dict) -> None:
        self.partition = state.pop("partition")
        super().__setstate__(state)


class _CheckpointUnpickler(pickle.Unpickler):
    def find_class(self, module: str, name: str):
        if (module, name) == _OLDER_GROUP_KERNEL:
            return _OlderGroupKernel
        if (module, name) not in CHECKPOINT_CLASSES:
            raise pickle.UnpicklingError(f"{module}.{name} is not part of a checkpoint")
        return super().find_class(module, name)


def load_vars_checkpoint(blob: bytes) -> dict:
    """Read an :meth:`EncodedGoldilocks.export_vars` blob for ``adopt_vars``.

    Blobs can come from a client (``!adopt``), so they are unpickled with
    :data:`CHECKPOINT_CLASSES` as the only names they may load; anything
    else raises :class:`ValueError`.  An older group checkpoint -- a whole
    kernel with its own synchronization list -- reads as the export of all
    its variables, advanced to its own tail, under its own ``partition``.
    """
    try:
        state = _CheckpointUnpickler(io.BytesIO(blob)).load()
        if isinstance(state, _OlderGroupKernel):
            state = state._vars_state(lambda var: True, state.partition)
    except Exception as exc:
        raise ValueError(f"unreadable checkpoint: {exc}") from exc
    if not isinstance(state, dict) or set(state) != _VARS_CHECKPOINT_KEYS:
        raise ValueError(f"checkpoint holds a {type(state).__name__}, not a group's")
    if type(state["partition"]) is not tuple or len(state["partition"]) != 2:
        raise ValueError(f"checkpoint's partition is {state['partition']!r}")
    return state
