"""Per-detector statistics.

The paper's evaluation reports, beyond wall-clock slowdown, the *fraction of
accesses settled by the cheap short-circuit checks* (Table 1, last columns)
and the *fraction of variables/accesses checked at all* once static
analysis pruning is applied (Table 2).  These counters are the bookkeeping
behind both, plus a deterministic cost model (rule applications and cells
traversed) that lets tests compare implementation variants without relying
on noisy timing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

#: the short-circuit rungs of the Check-Happens-Before ladder, in check
#: order.  Everything that consumes a ``DetectorStats.as_dict()`` snapshot
#: (service stats aggregation, the metrics bridge, the benchmark tables)
#: derives rates from this one tuple instead of hand-listing the rungs.
SC_RUNGS = (
    "sc_same_thread",
    "sc_alock",
    "sc_xact",
    "sc_thread_restricted",
    "sc_fresh",
    "sc_epoch",
)

#: one-line help text per counter, consumed by the metrics bridge (metric
#: catalog) and docs/OBSERVABILITY.md.  Keys match ``as_dict`` exactly.
METRIC_HELP: Dict[str, str] = {
    "accesses_checked": "data accesses submitted for checking",
    "sync_events": "synchronization events observed",
    "sc_same_thread": "HB queries answered by the same-thread short circuit",
    "sc_alock": "HB queries answered by the remembered-lock short circuit",
    "sc_xact": "HB queries answered by the both-transactional short circuit",
    "sc_thread_restricted": "HB queries answered by the thread-restricted traversal",
    "sc_fresh": "HB queries answered by the fresh-variable case",
    "sc_epoch": "HB queries answered by the constant-time sync-epoch check",
    "full_lockset_computations": "HB queries that fell through to a full lockset computation",
    "memo_shared_hits": "full computations answered from the shared-segment memo",
    "cells_traversed": "synchronization-list cells visited during lazy computations",
    "rule_applications": "individual lockset update rules applied",
    "races": "races reported",
    "cells_collected": "cells reclaimed by the synchronization-list GC",
    "partial_evaluations": "locksets advanced by partially-eager evaluation",
    "accesses_filtered": "data accesses skipped by static admission control",
    "frame_faults": "packed frames rejected by the kernel as malformed",
}


def hb_queries_of(det: Dict[str, int]) -> int:
    """Total happens-before queries in an ``as_dict`` snapshot."""
    return sum(det.get(rung, 0) for rung in SC_RUNGS) + det.get(
        "full_lockset_computations", 0
    )


def short_circuit_rate_of(det: Dict[str, int]) -> float:
    """Fraction of HB queries settled by short circuits (1.0 when idle)."""
    queries = hb_queries_of(det)
    if queries == 0:
        return 1.0
    return (queries - det.get("full_lockset_computations", 0)) / queries


def detector_work_of(det: Dict[str, int]) -> int:
    """The deterministic cost proxy, recomputed from a snapshot dict."""
    return (
        det.get("rule_applications", 0)
        + det.get("cells_traversed", 0)
        + hb_queries_of(det)
        + det.get("sync_events", 0)
    )


@dataclass
class DetectorStats:
    """Counters accumulated by a detector over one execution."""

    #: data accesses submitted for checking (reads + writes + commit members)
    accesses_checked: int = 0
    #: synchronization events observed (acq/rel/volatile/fork/join/commit)
    sync_events: int = 0
    #: happens-before queries answered by the same-thread short circuit
    sc_same_thread: int = 0
    #: ... by the *alock* (remembered lock) short circuit
    sc_alock: int = 0
    #: ... by the transactional (both-in-txn) short circuit
    sc_xact: int = 0
    #: ... by the thread-restricted traversal (cheap but not constant-time;
    #: only the offline LazyGoldilocks has this rung -- the encoded kernel's
    #: indexed replay stops at ownership instead)
    sc_thread_restricted: int = 0
    #: ... by the fresh-variable case (first access, empty lockset)
    sc_fresh: int = 0
    #: ... by the sync-epoch check (no sync enqueued since the anchor: the
    #: lockset cannot have grown, so the ownership test is decisive now)
    sc_epoch: int = 0
    #: happens-before queries that fell through to a full lockset computation
    full_lockset_computations: int = 0
    #: full computations answered from the shared-segment memo (same anchor
    #: position + equal lockset reuse one advanced result) without traversal
    memo_shared_hits: int = 0
    #: synchronization-list cells visited during lazy lockset computations
    cells_traversed: int = 0
    #: individual lockset update rules applied (eager: per event per variable)
    rule_applications: int = 0
    #: races reported
    races: int = 0
    #: cells reclaimed by the synchronization-event-list garbage collector
    cells_collected: int = 0
    #: locksets advanced by partially-eager evaluation (Section 5.4)
    partial_evaluations: int = 0
    #: data accesses skipped because static admission control proved the
    #: variable race-free (normally 0: filtered records drop at the edge)
    accesses_filtered: int = 0
    #: packed frames rejected as malformed (unknown opcode, stale id, bad
    #: extras) before or during application
    frame_faults: int = 0

    @property
    def hb_queries(self) -> int:
        """Total happens-before queries answered."""
        return (
            sum(getattr(self, rung) for rung in SC_RUNGS)
            + self.full_lockset_computations
        )

    @property
    def short_circuit_hits(self) -> int:
        """Queries settled without a full lockset computation.

        The paper's Table 1 percentage counts the constant-time checks and
        the thread-restricted traversal together; "the rest of the accesses
        require full lockset computations".
        """
        return self.hb_queries - self.full_lockset_computations

    @property
    def short_circuit_rate(self) -> float:
        """Fraction of happens-before queries settled by short circuits."""
        total = self.hb_queries
        if total == 0:
            return 1.0
        return self.short_circuit_hits / total

    @property
    def detector_work(self) -> int:
        """Deterministic proxy for detector cost, used by cost-model benches."""
        return (
            self.rule_applications
            + self.cells_traversed
            + self.hb_queries
            + self.sync_events
        )

    def as_dict(self) -> Dict[str, int]:
        """Plain-dict snapshot (stable keys), for table rendering and tests."""
        return {
            "accesses_checked": self.accesses_checked,
            "sync_events": self.sync_events,
            "sc_same_thread": self.sc_same_thread,
            "sc_alock": self.sc_alock,
            "sc_xact": self.sc_xact,
            "sc_thread_restricted": self.sc_thread_restricted,
            "sc_fresh": self.sc_fresh,
            "sc_epoch": self.sc_epoch,
            "full_lockset_computations": self.full_lockset_computations,
            "memo_shared_hits": self.memo_shared_hits,
            "cells_traversed": self.cells_traversed,
            "rule_applications": self.rule_applications,
            "races": self.races,
            "cells_collected": self.cells_collected,
            "partial_evaluations": self.partial_evaluations,
            "accesses_filtered": self.accesses_filtered,
            "frame_faults": self.frame_faults,
        }

    def merge(self, other: "DetectorStats") -> None:
        """Accumulate another stats object into this one (for multi-run sweeps)."""
        for key, value in other.as_dict().items():
            setattr(self, key, getattr(self, key) + value)
