"""``analyze-pipeline``: ``repro-race analyze --stats`` on a pipeline trace.

Ownership moves through three or more threads, which defeats the
constant-time checks (about a third of happens-before queries need a full
traversal), and the sync list passes the default ``gc_threshold``, so
partial-eager GC runs.  Kernel and GC dominate; ingest is a small share.
The trace file is written before timing starts.

The commands alternate with the no-detector replay of the same lines
(:mod:`perf.replay`) -- replay, command, replay, ..., replay -- all on one
CPU, and each command's ``slowdown`` is its wall time over the geometric
mean of the replays on either side, so host drift cancels; the run reports
the median.
"""

from __future__ import annotations

import statistics
import subprocess
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from . import WORK, gen
from .layers import SpanRecorder, kernel_counter_metrics, traced_pass
from .outcome import Outcome
from .procs import Children, cpu_split, pinned, python_argv, run_timed, wait_rusage
from .reference import analyze_rendering, trace_races
from .replay import replay_seconds

#: pipeline items: ~82k events, ~56k sync events (GC engages past 50k)
ITEMS = 2300
#: one analyze command per this many seconds of ``--seconds``, at least
#: one; a command takes 6-13 s on a shared 2-vCPU VM
SECONDS_PER_COMMAND = 8
#: replay passes between commands (their median is the no-detector time);
#: a pass takes 0.1-0.2 s there
REPLAY_PASSES = 10
SETUP_SAMPLES = 15

RACE_PREFIX = "  data race on "


def _analyze_argv(path: Path) -> List[str]:
    return python_argv("-m", "repro.cli", "analyze", str(path), "--stats")


def _analyze(path: Path) -> Tuple[float, int, int, List[str]]:
    """One timed command: ``(wall s, exit code, peak KiB, output lines)``."""
    with Children() as children, (WORK / "analyze.log").open("ab") as log:
        start = time.perf_counter()
        proc = children.spawn(_analyze_argv(path), stdout=subprocess.PIPE, stderr=log)
        lines = [raw.decode().rstrip("\n") for raw in proc.stdout]
        code, rss = wait_rusage(proc, 170)
        return time.perf_counter() - start, code, rss, lines


def parse_output(lines: List[str]) -> Tuple[int, List[str], Dict[str, int]]:
    """``(events, sorted race lines, detector counters)`` from analyze output."""
    events = 0
    races: List[str] = []
    counters: Dict[str, int] = {}
    for line in lines:
        if line.startswith("[") and " race(s) over " in line:
            events = int(line.rsplit(" over ", 1)[1].split()[0])
        elif line.startswith(RACE_PREFIX):
            races.append(line.strip())
        elif line.startswith("    ") and ":" in line:
            key, _, value = line.strip().partition(":")
            counters[key] = int(value)
    return events, sorted(races), counters


def _traced(path: Path, expected: List[str], tag: str):
    """In-process ``load_trace`` + ``process_all``, untraced then traced."""
    from repro import cli
    from repro.trace import io as trace_io

    def work():
        events = trace_io.load_trace(str(path))
        return cli.DETECTORS["goldilocks"]().process_all(events)

    def one_pass(recorder: Optional[SpanRecorder]):
        start = time.perf_counter()
        reports = work() if recorder is None else recorder.root(work)
        return time.perf_counter() - start, sorted(map(str, reports))

    layers, races, missing = traced_pass(one_pass, tag)
    return layers, all(r == expected for r in races), missing


def run(seed: int, seconds: int, trace: bool, smoke: bool, use_cache: bool) -> Outcome:
    items = ITEMS // 50 if smoke else ITEMS
    lines = gen.pipeline(seed, items)
    expected = analyze_rendering(trace_races("pipeline", seed, lines, use_cache))
    WORK.mkdir(parents=True, exist_ok=True)
    path = WORK / f"pipeline-s{seed}-n{items}.trace"
    path.write_text("\n".join(lines) + "\n")
    empty = WORK / "empty.trace"
    empty.write_text("")

    # analyze exits 1 when it found races
    setup, attempted, failed = [], 0, 0
    walls, ratios, rss_kib = [], [], 0
    correct = True
    counters: Dict[str, int] = {}
    events = 0
    with pinned(cpu_split()[0]):
        for _ in range(SETUP_SAMPLES):
            wall, code = run_timed(_analyze_argv(empty))
            setup.append(wall)
            attempted, failed = attempted + 1, failed + (code not in (0, 1))
        before = replay_seconds(lines, REPLAY_PASSES)
        for _ in range(max(1, seconds // SECONDS_PER_COMMAND)):
            wall, code, rss, out = _analyze(path)
            after = replay_seconds(lines, REPLAY_PASSES)
            ratios.append(wall / (before * after) ** 0.5)
            before = after
            attempted, failed = attempted + 1, failed + (code not in (0, 1))
            events, races, counters = parse_output(out)
            walls.append(wall)
            rss_kib = max(rss_kib, rss)
            correct = correct and races == expected and events == len(lines)

    layers = kernel_counter_metrics(counters)
    notes = [f"analyze: {events} events, {len(expected)} reference races, {items} items, "
             f"{len(lines) / statistics.median(walls):.0f} events/s"]
    if trace:
        traced_layers, traced_ok, missing = _traced(path, expected, f"analyze-pipeline-s{seed}")
        layers.update(traced_layers)
        correct = correct and traced_ok
        notes.extend(f"missing {m}" for m in missing)
    return Outcome(
        metrics={
            "slowdown": statistics.median(ratios),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": rss_kib / 1024.0,
        },
        layers=layers,
        attempted=attempted,
        failed=failed,
        correct=correct,
        notes=notes,
    )
