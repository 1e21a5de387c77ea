"""The shared synthetic service trace.

One fixed trace, generated deterministically from :data:`TRACE_PARAMS` and
:data:`TRACE_SEED`, feeds the observability and cluster benchmarks
(:mod:`repro.bench.obs`, :mod:`repro.bench.cluster`), the coordinator
tests, and the CI cluster smoke job, so they all measure and compare the
same stream.  It is mostly private data accesses with periodic
lock-protected sharing and small transactions -- broadcast sync is the
sharding scheme's serial fraction, so a mostly-sync trace would measure
the broadcast, not the service.
"""

from __future__ import annotations

import random

from ..core.actions import DataVar, Obj, Tid
from ..trace import TraceBuilder
from ..trace.io import format_event

#: the fixed trace's shape (deterministic; sized for a few seconds of CI)
TRACE_PARAMS = dict(
    n_threads=8, accesses_per_thread=300, sync_every=25, commit_every=100, racy_every=45
)
TRACE_SEED = 13


def generate_trace(
    n_threads: int = 8,
    accesses_per_thread: int = 300,
    sync_every: int = 25,
    commit_every: int = 100,
    racy_every: int = 45,
    seed: int = TRACE_SEED,
):
    """Mostly-private data accesses, periodic locking, small transactions,
    and an occasional unprotected write to a hot shared field (the races)."""
    rng = random.Random(seed)
    tb = TraceBuilder()
    lock, shared, hot, main = Obj(9000), Obj(500), Obj(666), Tid(0)
    for t in range(1, n_threads + 1):
        tb.fork(main, Tid(t))
    schedule = [t for t in range(1, n_threads + 1) for _ in range(accesses_per_thread)]
    rng.shuffle(schedule)
    steps = {t: 0 for t in range(1, n_threads + 1)}
    for t in schedule:
        tid = Tid(t)
        steps[t] += 1
        if steps[t] % commit_every == 0:
            foot = DataVar(Obj(1000 + t * 8 + rng.randrange(8)), "f0")
            tb.commit(tid, reads=[DataVar(shared, "head")], writes=[foot])
        elif steps[t] % racy_every == 0:
            tb.write(tid, hot, f"h{rng.randrange(2)}")
        elif steps[t] % sync_every == 0:
            tb.acq(tid, lock)
            tb.write(tid, shared, "shared")
            tb.rel(tid, lock)
        else:
            obj = Obj(1000 + t * 8 + rng.randrange(8))
            field = f"f{rng.randrange(3)}"
            if rng.random() < 0.6:
                tb.read(tid, obj, field)
            else:
                tb.write(tid, obj, field)
    return tb.build()


def generate_trace_text() -> str:
    """The benchmark trace, rendered once as wire text."""
    events = generate_trace(**TRACE_PARAMS)
    return "\n".join(format_event(event) for event in events) + "\n"
