"""``runtime-table1``: the paper's Table 1 slowdown, on the interpreter.

The 11 Table 1 programs run in one fresh subprocess (``python3 -m
perf.table1``, on one CPU) at scale ``full`` with
``StridedScheduler(stride=8)``, ``race_policy="disable"`` and the
interpreter seeded from the benchmark seed.  Each program runs as alternating pairs -- detector off, then on;
then on, then off -- with ``repro.cli.DETECTORS["goldilocks"]`` as the
detector, so the benchmark follows whatever the CLI ships as its
production kernel.  ``slowdown`` is the geometric mean over programs of
the median over pairs of on / off time: the paper's metric, measured so
that host drift cancels within each pair.  The interpreter dominates and
the detector is reached through the object ``process()`` path.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

from . import ROOT, WORK
from .layers import SpanRecorder, kernel_counter_metrics, traced_pass
from .outcome import Outcome
from .procs import Children, cpu_split, pinned, python_argv, wait_rusage
from .reference import runtime_races
from .stats import geomean

#: one alternating pair per this many seconds of ``--seconds``; a pair of
#: all 11 programs takes 5-7 s on a shared 2-vCPU VM
SECONDS_PER_PAIR = 6
SETUP_SAMPLES = 15


def run_program(workload, program, detector, seed: int, scale: str):
    """One program run, exactly as the measured job performs it."""
    from repro.lang import interp
    from repro.runtime import StridedScheduler

    return interp.run_program(
        program,
        detector=detector,
        scheduler=StridedScheduler(stride=8),
        race_policy="disable",
        main_args=workload.args(scale),
        seed=seed,
        max_steps=50_000_000,
    )


def job(seed: int, pairs: int, scale: str, probe: bool) -> int:
    """The measured subprocess: parse all programs, then run the pairs.

    Writes one JSON object per line: ``{"ready": true}`` once all 11
    programs are parsed, then one row per program.
    """
    from repro.cli import DETECTORS
    from repro.lang import parse
    from repro.workloads import table1_workloads

    workloads = table1_workloads()
    programs = [parse(w.source, source_name=w.name) for w in workloads]
    print(json.dumps({"ready": True}), flush=True)
    if probe:
        return 0
    for workload, program in zip(workloads, programs):
        row: Dict[str, object] = {"name": workload.name, "off": [], "on": [], "races": [],
                                  "crashed": 0, "events": 0, "stats": {}}
        for i in range(pairs):
            for on in ((False, True) if i % 2 == 0 else (True, False)):
                detector = DETECTORS["goldilocks"]() if on else None
                start = time.perf_counter()
                try:
                    result = run_program(workload, program, detector, seed, scale)
                except Exception as exc:  # a crashed program is a failed operation
                    print(f"{workload.name}: {exc!r}", file=sys.stderr)
                    row["crashed"] += 1
                    continue
                elapsed = time.perf_counter() - start
                row["crashed"] += 1 if result.uncaught else 0
                row["on" if on else "off"].append(elapsed)
                if on:
                    row["races"].append(len(result.races))
                    row["stats"] = detector.stats.as_dict()
                    row["events"] = detector.stats.accesses_checked + detector.stats.sync_events
        print(json.dumps(row), flush=True)
    return 0


def _spawn_job(children: Children, seed: int, pairs: int, scale: str, probe: bool):
    argv = python_argv("-m", "perf.table1", "--seed", str(seed),
                       "--pairs", str(pairs), "--scale", scale)
    if probe:
        argv.append("--probe")
    log = (WORK / "table1.log").open("ab")
    try:
        start = time.perf_counter()
        proc = children.spawn(argv, cwd=str(ROOT), stdout=subprocess.PIPE, stderr=log)
    finally:
        log.close()
    ready: Optional[float] = None
    rows: List[dict] = []
    for raw in proc.stdout:
        message = json.loads(raw)
        if message.get("ready"):
            ready = time.perf_counter() - start
        else:
            rows.append(message)
    code, rss = wait_rusage(proc, 175)
    if ready is None:
        raise RuntimeError(f"table1 job exited {code} before parsing its programs")
    return ready, code, rss, rows


def _traced(workloads, seed: int, scale: str, tag: str):
    """Each program once with the detector on, untraced then traced."""
    from repro.cli import DETECTORS

    def one_pass(recorder: Optional[SpanRecorder]):
        total = 0.0
        for workload in workloads:
            program = workload.program()
            detector = DETECTORS["goldilocks"]()
            start = time.perf_counter()
            if recorder is None:
                run_program(workload, program, detector, seed, scale)
            else:
                recorder.root(run_program, workload, program, detector, seed, scale)
            total += time.perf_counter() - start
        return total, None

    layers, _results, missing = traced_pass(one_pass, tag)
    return layers, missing


def run(seed: int, seconds: int, trace: bool, smoke: bool, use_cache: bool) -> Outcome:
    from repro.workloads import table1_workloads

    scale = "tiny" if smoke else "full"
    pairs = 1 if smoke else max(1, seconds // SECONDS_PER_PAIR)
    workloads = table1_workloads()
    reference = runtime_races(
        seed,
        scale,
        [(w.name, w) for w in workloads],
        lambda w, det: run_program(w, w.program(), det, seed, scale),
        use_cache,
    )
    WORK.mkdir(parents=True, exist_ok=True)
    with Children() as children, pinned(cpu_split()[0]):
        setup = [_spawn_job(children, seed, pairs, scale, True)[0]
                 for _ in range(SETUP_SAMPLES - 1)]
        ready, code, rss, rows = _spawn_job(children, seed, pairs, scale, False)
        setup.append(ready)

    attempted = 2 * pairs * len(workloads)
    measured = {row["name"]: row for row in rows}
    correct = code == 0 and set(measured) == set(reference)
    ratios, on_medians, events = [], [], 0
    counters: Dict[str, int] = {}
    for name, row in measured.items():
        correct = correct and bool(row["on"]) and all(r == reference[name] for r in row["races"])
        if row["on"] and row["off"]:
            ratios.append(statistics.median(a / b for a, b in zip(row["on"], row["off"])))
            on_medians.append(statistics.median(row["on"]))
            events += row["events"]
        for key, value in row["stats"].items():
            counters[key] = counters.get(key, 0) + value
    failed = sum(row["crashed"] for row in rows) + 2 * pairs * (len(workloads) - len(rows))
    if not ratios:
        raise RuntimeError("no Table 1 program completed a measured pair")
    layers = kernel_counter_metrics(counters)
    notes = [f"table1: {len(rows)} programs x {pairs} pair(s), reference races "
             f"{sum(reference.values())}, {events / sum(on_medians):.0f} events/s"]
    if trace:
        traced_layers, missing = _traced(workloads, seed, scale, f"runtime-table1-s{seed}")
        layers.update(traced_layers)
        notes.extend(f"missing {m}" for m in missing)
    return Outcome(
        metrics={
            "slowdown": geomean(ratios),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": rss / 1024.0,
        },
        layers=layers,
        attempted=attempted,
        failed=failed,
        correct=correct,
        notes=notes,
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python3 -m perf.table1", description="the runtime-table1 measured job"
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--scale", required=True)
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args(argv)
    return job(args.seed, args.pairs, args.scale, args.probe)


if __name__ == "__main__":
    sys.exit(main())
