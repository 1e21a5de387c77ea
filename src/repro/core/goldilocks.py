"""The Goldilocks algorithm, eager reference implementation.

This module implements the lockset update rules of the paper's Figure 5
*verbatim* (class :class:`EagerGoldilocks`) and the generalized variant of
Section 5 that distinguishes read from write accesses
(:class:`EagerGoldilocksRW`).  "Eager" means every synchronization event
immediately updates the lockset of every tracked variable -- the paper notes
this is too expensive for large heaps and replaces it with the lazy scheme
of Figure 8 (our :mod:`repro.core.lazy`), but the eager form is the clearest
statement of the algorithm and serves as the reference semantics that the
optimized implementation is property-tested against.

The rules (Figure 5), for each event ``(t, n)`` in linearization order:

1. ``read/write(o, d)``: if ``LS(o, d) != {}`` and ``t not in LS(o, d)``,
   report a race on ``(o, d)``; then ``LS(o, d) := {t}``.
2. ``read(o, v)`` (volatile): for each ``(o', d')``: if
   ``(o, v) in LS(o', d')``, add ``t``.
3. ``write(o, v)`` (volatile): for each ``(o', d')``: if ``t in LS(o', d')``,
   add ``(o, v)``.
4. ``acq(o)``: for each ``(o', d')``: if ``(o, l) in LS(o', d')``, add ``t``.
5. ``rel(o)``: for each ``(o', d')``: if ``t in LS(o', d')``, add ``(o, l)``.
6. ``fork(u)``: for each ``(o', d')``: if ``t in LS(o', d')``, add ``u``.
7. ``join(u)``: for each ``(o', d')``: if ``u in LS(o', d')``, add ``t``.
8. ``alloc(x)``: for each field ``d``: ``LS(x, d) := {}``.
9. ``commit(R, W)``, in this order (the ordering is pinned down by the
   paper's Figure 7 walkthrough, which our tests replay step by step):

   a. *incoming edges*: for each ``(o', d')``: if
      ``LS(o', d') ∩ (R ∪ W) != {}``, add ``t``;
   b. *access check*: for each ``(o', d') in R ∪ W``: if
      ``LS(o', d') != {}`` and ``{t, TL} ∩ LS(o', d') == {}``, report a
      race; then ``LS(o', d') := {t, TL}``;
   c. *outgoing edges*: for each ``(o', d')``: if ``t in LS(o', d')``,
      add all of ``R ∪ W``.

The intuition (Section 4): a lockset collects every "key" whose possession
makes a thread an owner of the variable -- the thread ids that already own
it, the locks whose acquisition transfers ownership, the volatiles whose
read transfers ownership, the data variables whose *transactional* access
transfers ownership, and ``TL`` when a transactional access suffices.
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
    LockVar,
    Read,
    Release,
    Tid,
    VolatileRead,
    VolatileWrite,
    Write,
)
from .detector import Detector
from .lockset import Lockset
from .report import AccessRef, RaceReport


#: The commit-to-commit synchronization interpretations the *detectors*
#: support (Section 3's closing paragraph).  The oracle additionally
#: supports ``"writes"`` (a commit synchronizes with a later one iff the
#: later touches something the earlier wrote) -- but that interpretation is
#: fundamentally incompatible with the algorithm's last-access compression:
#: a read-only commit's record answers later commit checks *vacuously*
#: (commit-commit pairs never race) WITHOUT implying any ordering, so when
#: it subsumes or clears an earlier access's record it silently drops a real
#: happens-before obligation and misses races.  Under ``footprint`` and
#: ``atomic-order`` the vacuous pair is always also an *ordered* pair
#: (shared variable / total order), which is exactly what makes last-access
#: compression sound.  ``tests/property/test_commit_sync_policies.py``
#: carries the three-event counterexample.
COMMIT_SYNC_POLICIES = ("footprint", "atomic-order")


def _commit_gains(policy: str, action: Commit):
    """(incoming-trigger set, outgoing-addition set) for rule 9 under a policy.

    * ``footprint``: a lockset intersecting ``R ∪ W`` gains the committer;
      owned locksets gain ``R ∪ W``.
    * ``atomic-order``: the trigger is ``TL`` itself (any past transactional
      hand-off), and owned locksets gain ``TL``.
    """
    if policy == "footprint":
        return action.footprint, action.footprint
    return frozenset((TL,)), frozenset((TL,))


class EagerGoldilocks(Detector):
    """Figure 5 of the paper, rule for rule, with no read/write distinction.

    Every pair of accesses to the same variable is treated as potentially
    conflicting (the conservative model of the original Goldilocks paper);
    :class:`EagerGoldilocksRW` refines this.
    """

    name = "goldilocks-eager"

    def __init__(self, commit_sync: str = "footprint") -> None:
        super().__init__()
        if commit_sync not in COMMIT_SYNC_POLICIES:
            raise ValueError(f"unknown commit_sync policy {commit_sync!r}")
        self.commit_sync = commit_sync
        #: LS: (Addr x Data) -> powerset(locks ∪ volatiles ∪ data vars ∪ tids ∪ {TL})
        self.locksets: Dict[DataVar, Lockset] = {}
        #: last access to each variable, for race reports only
        self._last_access: Dict[DataVar, AccessRef] = {}

    # -- public inspection ---------------------------------------------------

    def lockset_of(self, var: DataVar) -> Lockset:
        """Current ``LS(var)`` (empty if the variable is fresh).

        Exposed so the Figure 6/7 reproductions can print the evolution of
        ``LS(o.data)`` after every event.
        """
        return self.locksets.get(var, Lockset())

    # -- the rules -----------------------------------------------------------

    def process(self, event: Event) -> List[RaceReport]:
        action = event.action
        if isinstance(action, (Read, Write)):
            self.stats.accesses_checked += 1
            return self._data_access(event, action.var, isinstance(action, Write))
        if isinstance(action, Commit):
            self.stats.sync_events += 1
            return self._commit(event, action)
        if isinstance(action, Alloc):
            self._alloc(action.obj)
            return []
        self.stats.sync_events += 1
        self._sync_rule(event.tid, action)
        return []

    def _data_access(self, event: Event, var: DataVar, is_write: bool) -> List[RaceReport]:
        """Rule 1: the race check and the shrink to ``{t}``."""
        tid = event.tid
        lockset = self.locksets.get(var)
        reports: List[RaceReport] = []
        if lockset and not lockset.owns(tid):
            reports.append(self._report(var, event, "write" if is_write else "read"))
        if lockset is None:
            lockset = self.locksets[var] = Lockset()
            self.stats.sc_fresh += 1
        lockset.reset((tid,))
        self._last_access[var] = AccessRef(
            tid, event.index, "write" if is_write else "read"
        )
        return reports

    def _sync_rule(self, tid: Tid, action) -> None:
        """Rules 2-7: one pass over every tracked lockset."""
        if isinstance(action, VolatileRead):
            key, gain = action.var, tid
        elif isinstance(action, VolatileWrite):
            key, gain = tid, action.var
        elif isinstance(action, Acquire):
            key, gain = LockVar(action.obj), tid
        elif isinstance(action, Release):
            key, gain = tid, LockVar(action.obj)
        elif isinstance(action, Fork):
            key, gain = tid, action.child
        elif isinstance(action, Join):
            key, gain = action.child, tid
        else:  # pragma: no cover - exhaustive over SyncAction minus Commit
            raise TypeError(f"not a simple synchronization action: {action!r}")
        for lockset in self.locksets.values():
            self.stats.rule_applications += 1
            if key in lockset:
                lockset.add(gain)

    def _alloc(self, obj) -> None:
        """Rule 8: allocation makes every field of ``obj`` fresh again."""
        stale = [var for var in self.locksets if var.obj == obj]
        for var in stale:
            del self.locksets[var]
            self._last_access.pop(var, None)

    def _commit(self, event: Event, action: Commit) -> List[RaceReport]:
        """Rule 9, in the (a) incoming / (b) check / (c) outgoing order."""
        tid = event.tid
        incoming, outgoing = _commit_gains(self.commit_sync, action)
        reports: List[RaceReport] = []

        # (a) incoming edges: prior owners hand over per the sync policy.
        for lockset in self.locksets.values():
            self.stats.rule_applications += 1
            if lockset.intersects(incoming):
                lockset.add(tid)

        # (b) the access check and shrink for every accessed variable.
        for var in sorted(action.footprint, key=lambda v: (v.obj.value, v.field)):
            self.stats.accesses_checked += 1
            lockset = self.locksets.get(var)
            if lockset and not lockset.owns(tid) and not lockset.transactional():
                reports.append(self._report(var, event, "commit", xact=True))
            if lockset is None:
                lockset = self.locksets[var] = Lockset()
                self.stats.sc_fresh += 1
            lockset.reset((tid, TL))
            self._last_access[var] = AccessRef(tid, event.index, "commit", xact=True)

        # (c) outgoing edges: everything this thread owns can now be re-owned
        # by a later transaction, per the sync policy.
        for lockset in self.locksets.values():
            self.stats.rule_applications += 1
            if lockset.owns(tid):
                lockset.update(outgoing)

        return reports

    def _report(
        self, var: DataVar, event: Event, kind: str, xact: bool = False
    ) -> RaceReport:
        self.stats.races += 1
        return RaceReport(
            var=var,
            first=self._last_access.get(var),
            second=AccessRef(event.tid, event.index, kind, xact),
            detector=self.name,
        )


class EagerGoldilocksRW(Detector):
    """The generalized algorithm with the read/write distinction (Section 5).

    Per data variable the detector maintains

    * ``WLS(o, d)`` -- the lockset of the *last write*, and
    * ``RLS(o, d, t)`` -- the lockset of the last read by thread ``t``
      that happened after the last write,

    exactly mirroring the ``WriteInfo`` / ``ReadInfo`` maps of Figure 8, but
    updated eagerly.  A read is checked only against the last write; a write
    is checked against the last write and the last read of every thread.
    Concurrent reads therefore no longer race with each other, which rule 1
    of Figure 5 could not express.

    Transactional accesses arrive via ``commit(R, W)`` and use the
    ``{t, TL}`` ownership test; after the commit the locksets of accessed
    variables are ``{t, TL} ∪ R ∪ W`` (rule 9 a-c specialized to the two
    lockset families).
    """

    name = "goldilocks-eager-rw"

    def __init__(self, commit_sync: str = "footprint") -> None:
        super().__init__()
        if commit_sync not in COMMIT_SYNC_POLICIES:
            raise ValueError(f"unknown commit_sync policy {commit_sync!r}")
        self.commit_sync = commit_sync
        self.write_locksets: Dict[DataVar, Lockset] = {}
        #: read locksets keyed by (thread, transactional?).  The two kinds
        #: must be tracked separately: a commit's read record answers some
        #: later checks *vacuously* (commit-commit pairs never race), so it
        #: cannot subsume a plain read's real happens-before obligation --
        #: under the supported policies the vacuous pair is always also
        #: ordered, so this split is defense in depth; under the rejected
        #: "writes" policy it was load-bearing (see the incompatibility
        #: test).  A plain read *does* subsume the same thread's earlier
        #: transactional read (program order runs through that commit).
        self.read_locksets: Dict[DataVar, Dict[Tuple[Tid, bool], Lockset]] = {}
        self._last_write: Dict[DataVar, AccessRef] = {}
        self._last_reads: Dict[DataVar, Dict[Tuple[Tid, bool], AccessRef]] = {}
        #: variables that have been accessed at least once (freshness test)
        self._seen: Set[DataVar] = set()

    # -- public inspection ---------------------------------------------------

    def write_lockset_of(self, var: DataVar) -> Lockset:
        """Current ``WLS(var)`` (empty if no write has been tracked)."""
        return self.write_locksets.get(var, Lockset())

    def read_lockset_of(self, var: DataVar, tid: Tid, xact: bool = False) -> Lockset:
        """Current ``RLS(var, tid)`` (empty if no read since the last write)."""
        return self.read_locksets.get(var, {}).get((tid, xact), Lockset())

    # -- event dispatch --------------------------------------------------------

    def process(self, event: Event) -> List[RaceReport]:
        action = event.action
        if isinstance(action, Read):
            self.stats.accesses_checked += 1
            return self._read(event, action.var, xact=False)
        if isinstance(action, Write):
            self.stats.accesses_checked += 1
            return self._write(event, action.var, xact=False)
        if isinstance(action, Commit):
            self.stats.sync_events += 1
            return self._commit(event, action)
        if isinstance(action, Alloc):
            self._alloc(action.obj)
            return []
        self.stats.sync_events += 1
        self._sync_rule(event.tid, action)
        return []

    # -- every tracked lockset, for the uniform sync rules ---------------------

    def _all_locksets(self) -> Iterable[Lockset]:
        for lockset in self.write_locksets.values():
            yield lockset
        for per_thread in self.read_locksets.values():
            for lockset in per_thread.values():
                yield lockset

    def _sync_rule(self, tid: Tid, action) -> None:
        """Rules 2-7 applied uniformly to write and read locksets."""
        if isinstance(action, VolatileRead):
            key, gain = action.var, tid
        elif isinstance(action, VolatileWrite):
            key, gain = tid, action.var
        elif isinstance(action, Acquire):
            key, gain = LockVar(action.obj), tid
        elif isinstance(action, Release):
            key, gain = tid, LockVar(action.obj)
        elif isinstance(action, Fork):
            key, gain = tid, action.child
        elif isinstance(action, Join):
            key, gain = action.child, tid
        else:  # pragma: no cover
            raise TypeError(f"not a simple synchronization action: {action!r}")
        for lockset in self._all_locksets():
            self.stats.rule_applications += 1
            if key in lockset:
                lockset.add(gain)

    def _alloc(self, obj) -> None:
        for mapping in (self.write_locksets, self.read_locksets):
            for var in [v for v in mapping if v.obj == obj]:
                del mapping[var]
        for mapping in (self._last_write, self._last_reads):
            for var in [v for v in mapping if v.obj == obj]:
                del mapping[var]
        self._seen = {v for v in self._seen if v.obj != obj}

    # -- data accesses ----------------------------------------------------------

    def _read(self, event: Event, var: DataVar, xact: bool) -> List[RaceReport]:
        """A read races only with the last write (extended-race clause 1)."""
        tid = event.tid
        reports: List[RaceReport] = []
        wls = self.write_locksets.get(var)
        if wls and not self._owned(wls, tid, xact):
            reports.append(
                self._report(var, self._last_write.get(var), event, "read", xact)
            )
        if reports and self.suppress_racy_updates:
            return reports  # the access is being suppressed
        if var not in self._seen:
            self.stats.sc_fresh += 1
            self._seen.add(var)
        fresh = Lockset((tid, TL)) if xact else Lockset((tid,))
        per_var = self.read_locksets.setdefault(var, {})
        refs = self._last_reads.setdefault(var, {})
        if not xact:
            # A plain read subsumes the thread's earlier transactional read
            # record: program order runs a →po ... →po this read.
            per_var.pop((tid, True), None)
            refs.pop((tid, True), None)
        per_var[(tid, xact)] = fresh
        refs[(tid, xact)] = AccessRef(tid, event.index, "read", xact)
        return reports

    def _write(self, event: Event, var: DataVar, xact: bool) -> List[RaceReport]:
        """A write races with the last write and with every read since it."""
        tid = event.tid
        reports: List[RaceReport] = []
        wls = self.write_locksets.get(var)
        if wls and not self._owned(wls, tid, xact):
            reports.append(
                self._report(var, self._last_write.get(var), event, "write", xact)
            )
        for reader, rls in self.read_locksets.get(var, {}).items():
            if rls and not self._owned(rls, tid, xact):
                ref = self._last_reads.get(var, {}).get(reader)
                reports.append(self._report(var, ref, event, "write", xact))
        if reports and self.suppress_racy_updates:
            return reports  # the access is being suppressed
        if var not in self._seen:
            self.stats.sc_fresh += 1
            self._seen.add(var)
        self.write_locksets[var] = Lockset((tid, TL)) if xact else Lockset((tid,))
        self.read_locksets.pop(var, None)
        self._last_write[var] = AccessRef(tid, event.index, "write", xact)
        self._last_reads.pop(var, None)
        return reports

    @staticmethod
    def _owned(lockset: Lockset, tid: Tid, xact: bool) -> bool:
        """Ownership test: ``t in LS``, or ``TL in LS`` for transactional accesses."""
        if tid in lockset:
            return True
        return xact and TL in lockset

    # -- transactions -------------------------------------------------------------

    def _commit(self, event: Event, action: Commit) -> List[RaceReport]:
        """Rule 9 specialized to the read/write lockset families.

        The constituent accesses are checked per the extended-race
        definition: a transactional *read* of ``(o, d)`` conflicts only with
        prior non-transactional writes; a transactional *write* conflicts
        with prior reads and writes.
        """
        tid = event.tid
        incoming, outgoing = _commit_gains(self.commit_sync, action)
        reports: List[RaceReport] = []

        # (a) incoming edges.
        for lockset in self._all_locksets():
            self.stats.rule_applications += 1
            if lockset.intersects(incoming):
                lockset.add(tid)

        # (b) per-access checks and shrinks, writes after reads so that a
        # variable both read and written ends in the written state.
        ordered = sorted(action.footprint, key=lambda v: (v.obj.value, v.field))
        for var in ordered:
            self.stats.accesses_checked += 1
            if var in action.writes:
                reports.extend(self._write(event, var, xact=True))
            else:
                reports.extend(self._read(event, var, xact=True))

        # (c) outgoing edges.
        for lockset in self._all_locksets():
            self.stats.rule_applications += 1
            if lockset.owns(tid):
                lockset.update(outgoing)

        return reports

    def _report(
        self,
        var: DataVar,
        first: Optional[AccessRef],
        event: Event,
        kind: str,
        xact: bool,
    ) -> RaceReport:
        self.stats.races += 1
        return RaceReport(
            var=var,
            first=first,
            second=AccessRef(event.tid, event.index, kind, xact),
            detector=self.name,
        )

