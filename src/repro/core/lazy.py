"""The optimized Goldilocks implementation (paper Figure 8 + Sections 5.1-5.4).

This is the detector that the paper actually ships inside Kaffe.  Instead of
eagerly updating every variable's lockset at every synchronization event, it

* appends synchronization events to a global :class:`SyncEventList`;
* keeps, per data variable, an :class:`Info` record for the **last write**
  (``WriteInfo``) and for the **last read by each thread** since that write
  (``ReadInfo``), each holding the lockset *just after* that access and a
  position in the event list;
* at each new access, decides happens-before against the relevant previous
  accesses via ``Check-Happens-Before``, which tries three cheap
  *short-circuit checks* before falling back to ``Apply-Lockset-Rules`` --
  a replay of the Figure 5 rules over the event-list segment between the two
  accesses, for this one variable only.

Short circuits (Section 5.1), in order:

1. **transactional** -- both accesses happened inside transactions: commits
   that share a variable synchronize, so the pair is race-free;
2. **same thread** -- program order;
3. **alock** -- a remembered lock held at the previous access is held by the
   current thread: mutual exclusion orders the two critical sections.
   (Figure 8's pseudocode assigns ``info2.alock`` from the locks held by
   ``info1.owner``; as written that thread's *current* locks say nothing
   about the *past* access, so -- consistent with the prose of Section 5.1,
   "a random element of LS(o,d) at the last access" -- we record the lock
   the accessing thread itself holds at the moment of its own access.)
4. **thread-restricted traversal** -- replay only the events of the two
   involved threads; sound because the rules only ever *add* elements, so
   ownership proved on a sub-trace holds on the full trace.  Not constant
   time, but cheap when ownership was handed over directly.

Lockset computations are *memoized*: after a full traversal the ``Info``'s
lockset and position are advanced to the list tail, so each cell is applied
at most once per live lockset -- the same idea as the paper's
partially-eager evaluation, applied opportunistically.  Partially-eager
evaluation proper (Section 5.4) kicks in when the event list exceeds
``gc_threshold``: locksets anchored in the oldest ``trim_fraction`` of the
list are advanced past it, their references dropped, and the prefix
reclaimed by reference-count collection.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

from .actions import (
    TL,
    Acquire,
    Alloc,
    Commit,
    DataVar,
    Event,
    Fork,
    Join,
    LocksetElement,
    LockVar,
    Obj,
    Read,
    Release,
    Tid,
    VolatileRead,
    VolatileWrite,
    Write,
)
from .detector import Detector
from .report import AccessRef, RaceReport
from .synclist import Cell, SyncEventList


class Info:
    """Per-access record (Figure 8's ``record Info``).

    ``ls`` is the lockset of the variable *just after* the access, advanced
    lazily through the event list as checks are performed; ``pos`` is the
    list cell the advancement has reached (initially the empty tail at
    access time); ``alock`` caches one lock held by the accessor for the
    constant-time lock short circuit; ``xact`` marks transactional accesses.
    """

    __slots__ = ("owner", "pos", "ls", "alock", "xact", "ref")

    def __init__(
        self,
        owner: Tid,
        pos: Cell,
        ls: Set[LocksetElement],
        alock: Optional[LockVar],
        xact: bool,
        ref: AccessRef,
    ) -> None:
        self.owner = owner
        self.pos = pos
        self.ls = ls
        self.alock = alock
        self.xact = xact
        self.ref = ref

    def __repr__(self) -> str:
        return (
            f"<Info {self.ref!r} ls={sorted(map(repr, self.ls))} "
            f"alock={self.alock!r} xact={self.xact}>"
        )


class LazyGoldilocks(Detector):
    """The reference Goldilocks detector (Figure 8), on action objects.

    The production kernel is :class:`~repro.core.kernel.EncodedGoldilocks`,
    the same algorithm on interned integers; this class keeps every
    optimisation switchable for the paper's ablations.

    Parameters
    ----------
    sc_xact, sc_same_thread, sc_alock, sc_thread_restricted:
        Enable/disable each short-circuit check (all on by default);
        the ablation benchmarks toggle them.
    gc_threshold:
        Trigger event-list collection (with partially-eager evaluation if
        needed) once the list holds this many events.  The paper used one
        million entries; our simulated heaps are smaller, so the default is
        lower.  ``None`` disables collection entirely; a negative
        threshold raises :class:`ValueError`.
    trim_fraction:
        Fraction of the list that partially-eager evaluation advances
        locksets past (the paper trims "the first 10% of the entries").
    memoize:
        Keep ``Info`` locksets advanced after full traversals.  Disabling
        reproduces the fully-lazy behaviour of the original Goldilocks
        implementation that Section 5.4 complains about.
    """

    name = "goldilocks"

    def __init__(
        self,
        sc_xact: bool = True,
        sc_same_thread: bool = True,
        sc_alock: bool = True,
        sc_thread_restricted: bool = True,
        gc_threshold: Optional[int] = 50_000,
        trim_fraction: float = 0.10,
        memoize: bool = True,
        commit_sync: str = "footprint",
    ) -> None:
        super().__init__()
        from .goldilocks import COMMIT_SYNC_POLICIES, _commit_gains

        if commit_sync not in COMMIT_SYNC_POLICIES:
            raise ValueError(f"unknown commit_sync policy {commit_sync!r}")
        if gc_threshold is not None and gc_threshold < 0:
            raise ValueError(f"gc_threshold must be None or at least 0, got {gc_threshold}")
        self.commit_sync = commit_sync
        self._commit_gains = _commit_gains
        self.sc_xact = sc_xact
        self.sc_same_thread = sc_same_thread
        self.sc_alock = sc_alock
        self.sc_thread_restricted = sc_thread_restricted
        self.gc_threshold = gc_threshold
        self.trim_fraction = trim_fraction
        self.memoize = memoize
        # Constructor kwargs, kept verbatim so reset() cannot drift from the
        # signature as it grows.
        self._config = {
            "sc_xact": sc_xact,
            "sc_same_thread": sc_same_thread,
            "sc_alock": sc_alock,
            "sc_thread_restricted": sc_thread_restricted,
            "gc_threshold": gc_threshold,
            "trim_fraction": trim_fraction,
            "memoize": memoize,
            "commit_sync": commit_sync,
        }

        self.events = SyncEventList()
        self.write_info: Dict[DataVar, Info] = {}
        #: read infos keyed by (thread, transactional?): a commit's read
        #: answers later transactional checks vacuously, so it must not
        #: subsume a plain read's real happens-before obligation (load-bearing
        #: only under the rejected "writes" policy; defense in depth for the
        #: supported ones); a plain read does subsume the same thread's
        #: earlier transactional one via program order.
        self.read_info: Dict[DataVar, Dict[Tuple[Tid, bool], Info]] = {}
        #: stack of monitors currently held, per thread (innermost last)
        self._held: Dict[Tid, List[Obj]] = {}
        #: variables with live infos per object, so alloc is O(fields of
        #: the object) instead of a scan over every tracked variable
        self._by_obj: Dict[Obj, Set[DataVar]] = {}

    # Re-apply constructor kwargs on reset().
    def reset(self) -> None:  # noqa: D102 - documented on the base class
        self.__init__(**self._config)

    # -- event dispatch (Handle-Action) -----------------------------------------

    def process(self, event: Event) -> List[RaceReport]:
        action = event.action
        if isinstance(action, Read):
            self.stats.accesses_checked += 1
            return self._handle_read(event.tid, event.index, action.var, None)
        if isinstance(action, Write):
            self.stats.accesses_checked += 1
            return self._handle_write(event.tid, event.index, action.var, None)
        if isinstance(action, Commit):
            return self._handle_commit(event, action)
        if isinstance(action, Alloc):
            self._handle_alloc(action.obj)
            return []
        # Simple synchronization action: enqueue, maintain lock stacks.
        self.stats.sync_events += 1
        if isinstance(action, Acquire):
            self._held.setdefault(event.tid, []).append(action.obj)
        elif isinstance(action, Release):
            held = self._held.get(event.tid, [])
            # Remove the innermost matching hold (monitors are re-entrant).
            for i in range(len(held) - 1, -1, -1):
                if held[i] == action.obj:
                    del held[i]
                    break
        self.events.enqueue(event.tid, action)
        self._maybe_collect()
        return []

    # -- data accesses ------------------------------------------------------------

    def _new_info(
        self,
        tid: Tid,
        index: int,
        kind: str,
        xact: bool,
        extra: Iterable[LocksetElement] = (),
    ) -> Info:
        ls: Set[LocksetElement] = {tid}
        if xact:
            # The eager lockset after a transactional access is
            # {t, TL} ∪ R ∪ W (rule 9b followed by 9c); starting the lazy
            # replay from {t} alone would lose the outgoing commit edges.
            ls.add(TL)
            ls.update(extra)
        held = self._held.get(tid)
        alock = LockVar(held[-1]) if (held and not xact) else None
        info = Info(tid, self.events.tail, ls, alock, xact, AccessRef(tid, index, kind, xact))
        self.events.incref(info.pos)
        return info

    def _discard(self, info: Optional[Info]) -> None:
        if info is not None:
            self.events.decref(info.pos)

    def _handle_read(
        self,
        tid: Tid,
        index: int,
        var: DataVar,
        txn_extra: Optional[Set[LocksetElement]],
    ) -> List[RaceReport]:
        """A read is checked against the last write only.

        ``txn_extra`` is None for plain accesses; for transactional accesses
        it carries the commit's policy-dependent outgoing lockset additions.
        """
        xact = txn_extra is not None
        info = self._new_info(tid, index, "read", xact, txn_extra or ())
        reports: List[RaceReport] = []
        prev_write = self.write_info.get(var)
        if prev_write is None and var not in self.read_info:
            self.stats.sc_fresh += 1
        if prev_write is not None and not self._check_happens_before(prev_write, info):
            reports.append(self._report(var, prev_write, info))
        if reports and self.suppress_racy_updates:
            self._discard(info)  # the access is being suppressed
            return reports
        per_thread = self.read_info.setdefault(var, {})
        if not xact:
            stale = per_thread.pop((tid, True), None)
            self._discard(stale)
        self._discard(per_thread.get((tid, xact)))
        per_thread[(tid, xact)] = info
        self._by_obj.setdefault(var.obj, set()).add(var)
        return reports

    def _handle_write(
        self,
        tid: Tid,
        index: int,
        var: DataVar,
        txn_extra: Optional[Set[LocksetElement]],
    ) -> List[RaceReport]:
        """A write is checked against the last write and all reads since it."""
        xact = txn_extra is not None
        info = self._new_info(tid, index, "write", xact, txn_extra or ())
        reports: List[RaceReport] = []
        prev_write = self.write_info.get(var)
        readers = self.read_info.get(var)
        if prev_write is None and not readers:
            self.stats.sc_fresh += 1
        if readers:
            for reader_info in readers.values():
                if not self._check_happens_before(reader_info, info):
                    reports.append(self._report(var, reader_info, info))
        if prev_write is not None:
            if not self._check_happens_before(prev_write, info):
                reports.append(self._report(var, prev_write, info))
        if reports and self.suppress_racy_updates:
            self._discard(info)  # the access is being suppressed
            return reports
        if readers:
            for reader_info in readers.values():
                self._discard(reader_info)
            del self.read_info[var]
        if prev_write is not None:
            self._discard(prev_write)
        self.write_info[var] = info
        self._by_obj.setdefault(var.obj, set()).add(var)
        return reports

    def _handle_commit(self, event: Event, action: Commit) -> List[RaceReport]:
        """Section 5.3: enqueue the commit, then check its accesses.

        The commit cell is appended *first*, so the infos created for the
        transaction's accesses sit after it in the list -- later traversals
        that start from them skip the (already accounted-for) commit.
        """
        self.stats.sync_events += 1
        self.events.enqueue(event.tid, action)
        reports: List[RaceReport] = []
        # A transactional access's lockset after its commit is
        # {t, TL} ∪ <outgoing set>, where the outgoing set depends on the
        # commit-synchronization policy (footprint / writes / none-but-TL).
        _incoming, outgoing = self._commit_gains(self.commit_sync, action)
        extra = set(outgoing)
        for var in sorted(action.footprint, key=lambda v: (v.obj.value, v.field)):
            self.stats.accesses_checked += 1
            if var in action.writes:
                reports.extend(
                    self._handle_write(event.tid, event.index, var, extra)
                )
            else:
                reports.extend(
                    self._handle_read(event.tid, event.index, var, extra)
                )
        self._maybe_collect()
        return reports

    def _handle_alloc(self, obj: Obj) -> None:
        """Allocation makes every field of ``obj`` fresh: drop its infos.

        The per-object index makes this O(fields of ``obj``); the previous
        implementation rescanned every tracked variable on the heap, which
        made alloc-heavy traces quadratic.
        """
        live = self._by_obj.pop(obj, None)
        if not live:
            return
        for var in live:
            info = self.write_info.pop(var, None)
            if info is not None:
                self._discard(info)
            per_thread = self.read_info.pop(var, None)
            if per_thread is not None:
                for info in per_thread.values():
                    self._discard(info)

    # -- Check-Happens-Before -------------------------------------------------------

    def _check_happens_before(self, info1: Info, info2: Info) -> bool:
        """True iff ``info1``'s access happens-before ``info2``'s.

        Tries the short circuits in cheapest-first order, then the
        thread-restricted traversal, then the full lockset computation.
        """
        if self.sc_xact and info1.xact and info2.xact:
            self.stats.sc_xact += 1
            return True
        if self.sc_same_thread and info1.owner == info2.owner:
            self.stats.sc_same_thread += 1
            return True
        if (
            self.sc_alock
            and info1.alock is not None
            and info1.alock.obj in self._held.get(info2.owner, ())
        ):
            self.stats.sc_alock += 1
            return True
        if self.sc_thread_restricted and self._restricted_traversal(info1, info2):
            self.stats.sc_thread_restricted += 1
            return True
        return self._full_traversal(info1, info2)

    def _restricted_traversal(self, info1: Info, info2: Info) -> bool:
        """Replay only the two owners' events; ownership found here is sound.

        Every cell *visited* is counted, including the skipped foreign-thread
        ones: the traversal still walks the whole linked segment.  (The
        encoded kernel has no such rung: its walk skips the segments where
        no rule can fire and stops once the lockset owns the accessing
        thread.)
        """
        ls = set(info1.ls)
        threads = (info1.owner, info2.owner)
        target = info2.owner
        for cell in self.events.events_from(info1.pos):
            self.stats.cells_traversed += 1
            if cell.tid not in threads:
                continue
            self._apply_cell(ls, cell)
            if target in ls:
                return True
        return target in ls

    def _full_traversal(self, info1: Info, info2: Info) -> bool:
        """``Apply-Lockset-Rules``: full replay, then the ownership test.

        With memoization on, ``info1`` absorbs the result: its lockset and
        position advance to the tail so the segment is never replayed again.
        """
        self.stats.full_lockset_computations += 1
        ls = set(info1.ls) if not self.memoize else info1.ls
        for cell in self.events.events_from(info1.pos):
            self.stats.cells_traversed += 1
            self._apply_cell(ls, cell)
        if self.memoize:
            self.events.decref(info1.pos)
            info1.pos = self.events.tail
            self.events.incref(info1.pos)
        if info2.owner in ls:
            return True
        return info2.xact and TL in ls

    def _apply_cell(self, ls: Set[LocksetElement], cell: Cell) -> None:
        """One Figure 5 rule applied to one lockset for one event."""
        action = cell.action
        tid = cell.tid
        if isinstance(action, Acquire):
            if LockVar(action.obj) in ls:
                ls.add(tid)
        elif isinstance(action, Release):
            if tid in ls:
                ls.add(LockVar(action.obj))
        elif isinstance(action, VolatileRead):
            if action.var in ls:
                ls.add(tid)
        elif isinstance(action, VolatileWrite):
            if tid in ls:
                ls.add(action.var)
        elif isinstance(action, Fork):
            if tid in ls:
                ls.add(action.child)
        elif isinstance(action, Join):
            if action.child in ls:
                ls.add(tid)
        elif isinstance(action, Commit):
            incoming, outgoing = self._commit_gains(self.commit_sync, action)
            if not ls.isdisjoint(incoming):
                ls.add(tid)
            if tid in ls:
                ls.update(outgoing)

    def _report(self, var: DataVar, info1: Info, info2: Info) -> RaceReport:
        self.stats.races += 1
        return RaceReport(var=var, first=info1.ref, second=info2.ref, detector=self.name)

    # -- garbage collection and partially-eager evaluation ---------------------------

    def _maybe_collect(self) -> None:
        if self.gc_threshold is None or len(self.events) <= self.gc_threshold:
            return
        self.collect()

    def collect(self) -> int:
        """Reclaim the event-list prefix (Section 5.4); returns cells freed.

        First drops any zero-refcount prefix.  If the list is still longer
        than the threshold, performs partially-eager evaluation: every
        lockset anchored in the first ``trim_fraction`` of the list is
        advanced past it (its intermediate lockset stored back into its
        ``Info``), after which the prefix has no references and is freed.
        """
        freed = self.events.collect_prefix()
        threshold = self.gc_threshold if self.gc_threshold is not None else 0
        if len(self.events) > threshold:
            prefix_len = max(1, int(len(self.events) * self.trim_fraction))
            prefix = self.events.prefix_cells(prefix_len)
            if prefix:
                prefix_ids = {id(cell) for cell in prefix}
                for info in self._all_infos():
                    if id(info.pos) in prefix_ids:
                        self._advance_past(info, prefix_ids)
                freed += self.events.collect_prefix()
        self.stats.cells_collected += freed
        return freed

    def _all_infos(self) -> Iterable[Info]:
        for info in self.write_info.values():
            yield info
        for per_thread in self.read_info.values():
            for info in per_thread.values():
                yield info

    def _advance_past(self, info: Info, prefix_ids: Set[int]) -> None:
        """Advance one lockset out of the prefix (the 5.4 partial evaluation)."""
        self.stats.partial_evaluations += 1
        cell = info.pos
        while cell.filled and id(cell) in prefix_ids:
            self.stats.cells_traversed += 1
            self._apply_cell(info.ls, cell)
            assert cell.next is not None
            cell = cell.next
        self.events.decref(info.pos)
        info.pos = cell
        self.events.incref(info.pos)

    # -- checkpointing ---------------------------------------------------------

    # ``Info.pos`` pointers alias cells of ``self.events``; the default
    # pickler would both recurse down the cell chain and duplicate those
    # aliased cells.  State is therefore captured with positions as offsets
    # into the (flat-pickled) list and re-anchored on restore, keeping the
    # refcount/identity invariants intact.

    def __getstate__(self) -> dict:
        offsets: Dict[int, int] = {}
        cell: Optional[Cell] = self.events.head
        index = 0
        while cell is not None:
            offsets[id(cell)] = index
            cell = cell.next
            index += 1

        def pack(info: Info) -> tuple:
            return (
                info.owner,
                offsets[id(info.pos)],
                set(info.ls),
                info.alock,
                info.xact,
                info.ref,
            )

        return {
            "config": (
                self.sc_xact,
                self.sc_same_thread,
                self.sc_alock,
                self.sc_thread_restricted,
                self.gc_threshold,
                self.trim_fraction,
                self.memoize,
                self.commit_sync,
            ),
            "suppress_racy_updates": self.suppress_racy_updates,
            "stats": self.stats,
            "events": self.events,
            "held": self._held,
            "write_info": {var: pack(info) for var, info in self.write_info.items()},
            "read_info": {
                var: {key: pack(info) for key, info in per_thread.items()}
                for var, per_thread in self.read_info.items()
            },
        }

    def __setstate__(self, state: dict) -> None:
        from .goldilocks import _commit_gains

        (
            self.sc_xact,
            self.sc_same_thread,
            self.sc_alock,
            self.sc_thread_restricted,
            self.gc_threshold,
            self.trim_fraction,
            self.memoize,
            self.commit_sync,
        ) = state["config"]
        self._config = {
            "sc_xact": self.sc_xact,
            "sc_same_thread": self.sc_same_thread,
            "sc_alock": self.sc_alock,
            "sc_thread_restricted": self.sc_thread_restricted,
            "gc_threshold": self.gc_threshold,
            "trim_fraction": self.trim_fraction,
            "memoize": self.memoize,
            "commit_sync": self.commit_sync,
        }
        self._commit_gains = _commit_gains
        self.suppress_racy_updates = state["suppress_racy_updates"]
        self.stats = state["stats"]
        self.events = state["events"]
        self._held = state["held"]
        cells: List[Cell] = []
        cell: Optional[Cell] = self.events.head
        while cell is not None:
            cells.append(cell)
            cell = cell.next

        def unpack(packed: tuple) -> Info:
            owner, offset, ls, alock, xact, ref = packed
            return Info(owner, cells[offset], ls, alock, xact, ref)

        self.write_info = {var: unpack(p) for var, p in state["write_info"].items()}
        self.read_info = {
            var: {key: unpack(p) for key, p in per_thread.items()}
            for var, per_thread in state["read_info"].items()
        }
        self._by_obj = {}
        for var in self.write_info:
            self._by_obj.setdefault(var.obj, set()).add(var)
        for var in self.read_info:
            self._by_obj.setdefault(var.obj, set()).add(var)
