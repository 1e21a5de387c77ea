"""Seeded trace generators owned by the benchmark.

They live here, not in ``repro.trace.gen``, so a change to the system under
test cannot silently change a workload.  Both emit the line format of
``repro.trace.io`` (``<tid> <index> <kind> <args...>``), which is also the
service's text wire format.  The same seed always yields the same lines.

* :func:`service_mix` -- many independent clients: private data, a few
  Zipf-skewed lock-guarded shared fields, occasional transactions, and two
  unprotected hot fields that produce the races (about 2 % of events).
  Almost every happens-before query is settled by a short circuit.
* :func:`pipeline` -- objects handed from stage thread to stage thread
  through per-stage queue locks.  A field last touched two or more stages
  back is ordered only through a third thread, which defeats the
  constant-time checks and forces full lockset traversals; the sync list
  passes the default ``gc_threshold``, so partial-eager GC runs.
"""

from __future__ import annotations

import hashlib
import random
from collections import deque
from itertools import accumulate
from pathlib import Path
from typing import List

#: service-mix shape (see the module docstring)
MIX_THREADS = 16
MIX_PRIVATE_OBJECTS = 64
MIX_FIELDS = 3
MIX_LOCKS = 64
MIX_ZIPF_S = 1.1
MIX_READ_SHARE = 0.6
MIX_LOCK_EVERY = 25
MIX_HOT_EVERY = 45
MIX_COMMIT_EVERY = 100
MIX_HOT_FIELDS = 2

#: pipeline shape
PIPE_STAGES = 6
PIPE_WINDOW = 64
PIPE_FIELDS = ("f0", "f1", "f2", "f3")
PIPE_TOUCH = 0.5
PIPE_COMMIT = 0.05
PIPE_RACY = 0.005

# object-id layout (disjoint ranges keep the traces easy to read)
_LOCK_BASE = 500
_GUARDED_BASE = 600
_HOT_OBJ = 900
_HEAD_OBJ = 901
_PRIVATE_BASE = 10_000
_QUEUE_BASE = 700
_COUNTER_OBJ = 99
_ITEM_BASE = 100_000


def generator_hash() -> str:
    """A digest of this file: part of every reference-cache key."""
    return hashlib.sha256(Path(__file__).read_bytes()).hexdigest()[:16]


def service_mix(seed: int, n_events: int) -> List[str]:
    """``n_events`` lines of the service-mix trace for ``seed``.

    Main forks :data:`MIX_THREADS` threads; a uniformly chosen thread then
    takes one step at a time.  A thread's ``s``-th step is a commit
    ``R={head} W={one private field}`` when ``s`` is a multiple of 100, an
    unprotected write to a hot field for multiples of 45, an
    acquire/write/release of a Zipf-chosen lock and the field it guards for
    multiples of 25, and otherwise a read (60 %) or write of one of its
    private fields.
    """
    rng = random.Random(seed)
    lines: List[str] = []
    append = lines.append
    index = [0] * (MIX_THREADS + 1)
    steps = [0] * (MIX_THREADS + 1)
    for t in range(1, MIX_THREADS + 1):
        append(f"0 {index[0]} fork {t}")
        index[0] += 1
    cum_weights = list(
        accumulate(1.0 / (k + 1) ** MIX_ZIPF_S for k in range(MIX_LOCKS))
    )
    lock_ids = list(range(MIX_LOCKS))
    while len(lines) < n_events:
        t = rng.randrange(1, MIX_THREADS + 1)
        steps[t] += 1
        s = steps[t]
        i = index[t]
        if s % MIX_COMMIT_EVERY == 0:
            obj = _PRIVATE_BASE + t * MIX_PRIVATE_OBJECTS + rng.randrange(
                MIX_PRIVATE_OBJECTS
            )
            field = rng.randrange(MIX_FIELDS)
            append(f"{t} {i} commit R {_HEAD_OBJ}.head W {obj}.f{field}")
            index[t] = i + 1
        elif s % MIX_HOT_EVERY == 0:
            append(f"{t} {i} write {_HOT_OBJ} h{rng.randrange(MIX_HOT_FIELDS)}")
            index[t] = i + 1
        elif s % MIX_LOCK_EVERY == 0:
            lock = rng.choices(lock_ids, cum_weights=cum_weights)[0]
            append(f"{t} {i} acq {_LOCK_BASE + lock}")
            append(f"{t} {i + 1} write {_GUARDED_BASE + lock} s")
            append(f"{t} {i + 2} rel {_LOCK_BASE + lock}")
            index[t] = i + 3
        else:
            obj = _PRIVATE_BASE + t * MIX_PRIVATE_OBJECTS + rng.randrange(
                MIX_PRIVATE_OBJECTS
            )
            kind = "read" if rng.random() < MIX_READ_SHARE else "write"
            append(f"{t} {i} {kind} {obj} f{rng.randrange(MIX_FIELDS)}")
            index[t] = i + 1
    del lines[n_events:]
    return lines


def pipeline(seed: int, n_items: int) -> List[str]:
    """The pipeline trace for ``seed``: ``n_items`` objects through 6 stages.

    Main feeds items into stage 1's queue while fewer than
    :data:`PIPE_WINDOW` are in flight; each step a uniformly chosen thread
    with work runs one whole visit.  A visit takes an item from the
    stage's queue (acquire/release of the queue lock), touches each of the
    item's 4 fields with p = 0.5 (read or write, 50/50) -- or, in 5 % of
    visits, commits the same footprint as one transaction -- adds an
    unprotected write to a shared counter in 0.5 % of visits, and puts the
    item into the next stage's queue.
    """
    rng = random.Random(seed)
    lines: List[str] = []
    append = lines.append
    index = [0] * (PIPE_STAGES + 1)

    def emit(t: int, text: str) -> None:
        append(f"{t} {index[t]} {text}")
        index[t] += 1

    for t in range(1, PIPE_STAGES + 1):
        emit(0, f"fork {t}")
    queues: List[deque] = [deque() for _ in range(PIPE_STAGES + 2)]
    fed = in_flight = done = 0
    while done < n_items:
        ready = [k for k in range(1, PIPE_STAGES + 1) if queues[k]]
        if fed < n_items and in_flight < PIPE_WINDOW:
            ready.append(0)
        k = ready[rng.randrange(len(ready))]
        if k == 0:
            emit(0, f"acq {_QUEUE_BASE + 1}")
            emit(0, f"rel {_QUEUE_BASE + 1}")
            queues[1].append(_ITEM_BASE + fed)
            fed += 1
            in_flight += 1
            continue
        emit(k, f"acq {_QUEUE_BASE + k}")
        emit(k, f"rel {_QUEUE_BASE + k}")
        item = queues[k].popleft()
        reads: List[str] = []
        writes: List[str] = []
        for field in PIPE_FIELDS:
            if rng.random() < PIPE_TOUCH:
                (reads if rng.random() < 0.5 else writes).append(field)
        if rng.random() < PIPE_COMMIT:
            footprint_r = " ".join(f"{item}.{f}" for f in reads)
            footprint_w = " ".join(f"{item}.{f}" for f in writes)
            emit(k, f"commit R {footprint_r} W {footprint_w}".rstrip())
        else:
            for field in reads:
                emit(k, f"read {item} {field}")
            for field in writes:
                emit(k, f"write {item} {field}")
        if rng.random() < PIPE_RACY:
            emit(k, f"write {_COUNTER_OBJ} n")
        if k < PIPE_STAGES:
            emit(k, f"acq {_QUEUE_BASE + k + 1}")
            emit(k, f"rel {_QUEUE_BASE + k + 1}")
            queues[k + 1].append(item)
        else:
            in_flight -= 1
            done += 1
    return lines
