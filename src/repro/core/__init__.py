"""Core of the reproduction: the Goldilocks algorithm and its action model.

Public surface:

* :mod:`repro.core.actions` -- the action vocabulary of executions;
* :class:`~repro.core.goldilocks.EagerGoldilocks` /
  :class:`~repro.core.goldilocks.EagerGoldilocksRW` -- the Figure 5 rules,
  applied eagerly (the reference semantics);
* :class:`~repro.core.lazy.LazyGoldilocks` -- the optimized Figure 8
  implementation with short circuits and event-list garbage collection;
* :class:`~repro.core.exceptions.DataRaceException` -- thrown by the
  race-aware runtime when a race is about to occur.
"""

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
    Obj,
    Read,
    Release,
    Tid,
    VolatileRead,
    VolatileVar,
    VolatileWrite,
    Write,
    commit,
)
from .detector import Detector
from .exceptions import (
    DataRaceException,
    DeadlockError,
    ReproError,
    SynchronizationError,
    TransactionAborted,
    TransactionError,
)
from .goldilocks import EagerGoldilocks, EagerGoldilocksRW
from .kernel import EncodedGoldilocks
from .lazy import LazyGoldilocks
from .lockset import BITSET_CUTOFF, TL_ID, Interner, Lockset
from .report import AccessRef, FirstRacePolicy, RaceReport
from .stats import DetectorStats
from .synclist import Cell, EncodedSyncList, SyncEventList
from .tee import TeeDetector

__all__ = [
    "TL",
    "Acquire",
    "Alloc",
    "Commit",
    "DataVar",
    "Event",
    "Fork",
    "Join",
    "LockVar",
    "Obj",
    "Read",
    "Release",
    "Tid",
    "VolatileRead",
    "VolatileVar",
    "VolatileWrite",
    "Write",
    "commit",
    "Detector",
    "DataRaceException",
    "DeadlockError",
    "ReproError",
    "SynchronizationError",
    "TransactionAborted",
    "TransactionError",
    "EagerGoldilocks",
    "EagerGoldilocksRW",
    "EncodedGoldilocks",
    "LazyGoldilocks",
    "BITSET_CUTOFF",
    "TL_ID",
    "Interner",
    "Lockset",
    "AccessRef",
    "FirstRacePolicy",
    "RaceReport",
    "DetectorStats",
    "Cell",
    "EncodedSyncList",
    "SyncEventList",
    "TeeDetector",
]
