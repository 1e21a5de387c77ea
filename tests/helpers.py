"""Shared test utilities: oracle comparisons, report normalization, the
shared service trace, and ``repro-serve`` node processes."""

import os
import random
import re
import subprocess
import sys

import repro
from repro.core import Commit
from repro.core.actions import OP_COMMIT, DataVar, Obj, Tid, is_data_access
from repro.core.lockset import ls_ids
from repro.oracle import HappensBeforeOracle
from repro.trace import TraceBuilder
from repro.trace.io import format_event

#: seed of the shared service trace (2,536 events, 42 race lines at 4 groups)
SERVICE_TRACE_SEED = 13


def oracle_first_races(events):
    """var -> index of the first racy access, per the ground-truth oracle."""
    oracle = HappensBeforeOracle(events)
    return {var: j for var, (i, j) in oracle.first_race_per_var().items()}


def detector_first_races(detector, events):
    """var -> index (into the trace) of the event completing the first race."""
    firsts = {}
    for pos, event in enumerate(events):
        for report in detector.process(event):
            firsts.setdefault(report.var, pos)
    return firsts


def report_key(report):
    """Detector-independent identity of a race report."""
    return (report.var, report.second.tid, report.second.index, report.second.kind)


def segment_masks_are_exact(events):
    """Whether every live segment of an ``EncodedSyncList`` carries the OR
    of its rows' firing ids, recomputed from the rows: a simple sync row
    fires on its key, a commit row on its committer and its incoming ids.
    Rows before the head (a ``start_at`` list's padding) fire on nothing."""
    size = events.segment_size
    for index, segment in events.segments.items():
        want = 0
        for pos in range(max(index * size, events.head_pos), index * size + len(segment)):
            op, key, _gain = events.at(pos)
            ids = [key]
            if op == OP_COMMIT:
                incoming, _outgoing, committer = events.commit_table[key]
                ids = [committer, *ls_ids(incoming)]
            for eid in ids:
                want |= 1 << eid
        if segment.mask != want:
            return False
    return True


def oracle_first_races_read_read(events):
    """First races under the conservative model of the original Figure 5 rules.

    No read/write distinction: every pair of accesses to a variable
    conflicts, except commit-commit pairs (transactions never race with each
    other).  Incarnation filtering mirrors the oracle's rule-8 handling.
    """
    oracle = HappensBeforeOracle(events)
    accessors = []
    for idx, event in enumerate(events):
        action = event.action
        if is_data_access(action):
            accessors.append((idx, {action.var}, False))
        elif isinstance(action, Commit):
            accessors.append((idx, set(action.footprint), True))
    firsts = {}
    incarnations = oracle._incarnations
    for a_pos, (i, vars_i, commit_i) in enumerate(accessors):
        for j, vars_j, commit_j in accessors[a_pos + 1 :]:
            if commit_i and commit_j:
                continue
            for var in vars_i & vars_j:
                if incarnations[i].get(var) != incarnations[j].get(var):
                    continue
                if not oracle.ordered(i, j):
                    if var not in firsts or j < firsts[var]:
                        firsts[var] = j
    return firsts


def service_trace(seed=SERVICE_TRACE_SEED):
    """The shared service trace, generated deterministically from ``seed``.

    Eight forked threads take 300 steps each: mostly private data accesses,
    a lock-protected write to a shared field every 25th step, a small
    transaction every 100th, and an unprotected write to a hot shared
    field every 45th (the races).  Broadcast sync is the sharding scheme's
    serial fraction, so the trace is light on it.  The cluster tests and
    the CI cluster-smoke job replay it.
    """
    n_threads, accesses_per_thread = 8, 300
    sync_every, commit_every, racy_every = 25, 100, 45
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


def service_trace_text():
    """The shared service trace, rendered once as wire text."""
    return "\n".join(format_event(event) for event in service_trace()) + "\n"


def start_tcp_node():
    """``repro-serve --tcp 127.0.0.1:0`` in a subprocess, once it listens:
    ``(process, the port its listening line announced)``.  The caller kills
    the process and closes its stderr pipe."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.server.cli", "--tcp", "127.0.0.1:0"],
        env=dict(os.environ, PYTHONPATH=src),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
    )
    line = proc.stderr.readline()
    match = re.search(r"listening on tcp://127\.0\.0\.1:(\d+) ", line)
    if match is None:
        proc.kill()
        proc.wait()
        proc.stderr.close()
        raise AssertionError(f"repro-serve did not announce a port: {line!r}")
    return proc, int(match.group(1))
