"""The common interface all race detectors implement.

A detector consumes a linearization of an execution -- a stream of
:class:`~repro.core.actions.Event` -- and reports the races it finds.  The
same interface is implemented by

* the eager Goldilocks reference (:mod:`repro.core.goldilocks`),
* the optimized lazy Goldilocks of Figure 8 (:mod:`repro.core.lazy`),
* the Eraser and vector-clock baselines (:mod:`repro.baselines`),

so the runtime, the benchmark harness, and the property tests can swap
algorithms freely.
"""

from __future__ import annotations

import pickle
from abc import ABC, abstractmethod
from typing import Iterable, List

from .actions import Event
from .report import RaceReport
from .stats import DetectorStats


class Detector(ABC):
    """Base class for online race detectors.

    Subclasses implement :meth:`process`; the driver feeds events in
    linearization order.  Detectors are single-use: create a fresh instance
    per execution (or call :meth:`reset`).
    """

    #: short name used in reports and benchmark tables
    name: str = "detector"

    #: When True, an access that completes a race does NOT update the
    #: detector's per-variable state.  The race-aware runtime sets this
    #: under the ``throw`` policy: the racy access is suppressed (it never
    #: happens), so recording it would wrongly blame the *victim* thread's
    #: next access.  Offline trace analysis keeps the paper's Figure 5
    #: semantics (``LS := {t}`` even after a report), the default.
    suppress_racy_updates: bool = False

    def __init__(self) -> None:
        self.stats = DetectorStats()

    @abstractmethod
    def process(self, event: Event) -> List[RaceReport]:
        """Consume one event; return the races completed by this event.

        The returned list is empty for race-free events.  A single event can
        complete several races (e.g. a ``commit`` racing on two variables, or
        a write racing with reads by several threads); the paper's runtime
        raises ``DataRaceException`` for the first.
        """

    def process_all(self, events: Iterable[Event]) -> List[RaceReport]:
        """Feed a whole trace; return every race report in order."""
        reports: List[RaceReport] = []
        for event in events:
            reports.extend(self.process(event))
        return reports

    def reset(self) -> None:
        """Restore the detector to its initial state (fresh stats included)."""
        self.__init__()  # subclasses keep all state in __init__

    def checkpoint(self) -> bytes:
        """Serialize the detector's full mid-stream state.

        The blob restored by :meth:`restore` continues the *same* execution:
        feeding it the remaining suffix of a trace yields exactly the reports
        (and stats deltas) the original instance would have produced.  (The
        streaming service hands over a group's variables instead, without
        the synchronization list: :meth:`EncodedGoldilocks.export_vars`.)
        """
        return pickle.dumps(self, protocol=pickle.HIGHEST_PROTOCOL)

    @classmethod
    def restore(cls, blob: bytes) -> "Detector":
        """Rebuild a detector from :meth:`checkpoint` output."""
        detector = pickle.loads(blob)
        if not isinstance(detector, cls):
            raise TypeError(
                f"checkpoint holds a {type(detector).__name__}, not a {cls.__name__}"
            )
        return detector

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"
