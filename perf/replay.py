"""The no-detector replay that every serve and analyze ``slowdown`` divides by.

It reads trace lines the way any detector's front end must -- split each
line, convert its numbers, keep the event, and file it under its variable
-- and does no happens-before reasoning.  It is the benchmark's own code,
so a change to the system under test never moves it: a faster system
always shows as a lower slowdown.  Run next to the measured command, it
also carries the host's current speed, which on a shared host drifts by
10-30 % within minutes.
"""

from __future__ import annotations

import statistics
import time
from typing import Dict, List, Sequence, Tuple


def replay(lines: Sequence[str]) -> int:
    """One pass over ``lines``; returns the number of events read."""
    events: List[Tuple[int, int, str, Tuple[str, ...]]] = []
    last: Dict[Tuple[str, ...], Tuple[int, int, str, Tuple[str, ...]]] = {}
    for line in lines:
        tid, index, kind, *args = line.split()
        event = (int(tid), int(index), kind, tuple(args))
        events.append(event)
        last[event[3]] = event
    return len(events)


def replay_seconds(lines: Sequence[str], passes: int) -> float:
    """Median wall time of ``passes`` replays of ``lines``."""
    times = []
    for _ in range(passes):
        start = time.perf_counter()
        replay(lines)
        times.append(time.perf_counter() - start)
    return statistics.median(times)
