"""Detector-throughput benchmark with a machine-readable JSON artifact.

``python -m repro.bench throughput --json`` replays one fixed synthetic
trace (the same generator/seed as ``benchmarks/test_detector_throughput.py``)
through every registered detector and writes
``BENCH_detector_throughput.json``.  The file is committed at the repo root
so the performance trajectory is tracked across PRs: wall-clock fields
(``events_per_sec``, ``elapsed_sec``) are environment-dependent and only
indicative, while the counter fields (``cells_traversed``,
``detector_work``, ``rule_applications``, ``races``) are deterministic and
comparable across machines.

Beyond the object-path detectors, the payload carries one *packed* row,
``goldilocks-packed``: :meth:`EncodedGoldilocks.apply_packed` consuming the
trace as pre-encoded frames of ``PACKED_BATCH`` events, the work a shard
does per frame.
"""

from __future__ import annotations

import json
import time
from array import array
from typing import Callable, Dict, List, Tuple

from ..baselines import (
    EraserDetector,
    FastTrackDetector,
    RaceTrackDetector,
    VectorClockDetector,
)
from ..core import (
    EagerGoldilocksRW,
    EncodedGoldilocks,
    LazyGoldilocks,
)
from ..core.encode import EventEncoder, encode_frame
from ..trace import RandomTraceGenerator

#: the benchmark trace (kept in lockstep with benchmarks/test_detector_throughput.py)
TRACE_PARAMS = dict(
    max_threads=8, steps_per_thread=400, p_discipline=0.7, n_objects=6, n_fields=3
)
TRACE_SEED = 7

#: benchmarked detectors, in presentation order
DETECTORS: List[Tuple[str, Callable[[], object]]] = [
    ("goldilocks", EncodedGoldilocks),
    ("goldilocks-seed", LazyGoldilocks),
    ("goldilocks-eager", EagerGoldilocksRW),
    ("vectorclock", VectorClockDetector),
    ("fasttrack", FastTrackDetector),
    ("eraser", EraserDetector),
    ("racetrack", RaceTrackDetector),
]


#: events per packed frame for the packed row (the engine's default batch
#: size, so the frames look like real shard traffic)
PACKED_BATCH = 64


def generate_trace():
    """The fixed benchmark trace (deterministic)."""
    return RandomTraceGenerator(**TRACE_PARAMS).generate(seed=TRACE_SEED)


def packed_frames(trace, batch: int = PACKED_BATCH) -> List[bytes]:
    """Encode ``trace`` into packed frames of ``batch`` events each.

    Same wire format the sharded engine ships to shards (interner-delta
    header + 6-int64 records + extras pool), so the packed rows below
    measure exactly the work a shard does per frame.
    """
    encoder = EventEncoder()
    cursor = len(encoder.interner)
    frames: List[bytes] = []
    records = array("q")
    extras = array("q")

    def flush() -> None:
        nonlocal cursor, records, extras
        frames.append(
            encode_frame(
                cursor, encoder.interner.elements_since(cursor), records, extras
            )
        )
        cursor = len(encoder.interner)
        records = array("q")
        extras = array("q")

    for seq, event in enumerate(trace):
        op, tid_id, index, a, b, extra_ints = encoder.encode_event(event)
        if extra_ints is not None:
            a = len(extras)
            extras.extend(extra_ints)
        records.extend((op, seq, tid_id, index, a, b))
        if len(records) >= 6 * batch:
            flush()
    if len(records):
        flush()
    return frames


def _run_packed(frames: List[bytes], repeats: int):
    """Feed ``frames`` to a fresh :class:`EncodedGoldilocks`; return (stats, best)."""
    best = None
    detector = None
    for _ in range(max(1, repeats)):
        detector = EncodedGoldilocks()
        started = time.perf_counter()
        for frame in frames:
            detector.apply_packed(frame)
        elapsed = time.perf_counter() - started
        best = elapsed if best is None else min(best, elapsed)
    return detector.stats, best


def _row(stats, best: float, n_events: int) -> Dict[str, object]:
    return {
        "elapsed_sec": round(best, 6),
        "events_per_sec": round(n_events / best) if best > 0 else None,
        "cells_traversed": stats.cells_traversed,
        "rule_applications": stats.rule_applications,
        "detector_work": stats.detector_work,
        "races": stats.races,
    }


def bench_throughput(repeats: int = 1) -> Dict[str, object]:
    """Replay the benchmark trace through every detector; return the payload.

    ``repeats`` > 1 replays each detector several times and keeps the best
    wall-clock (counters are identical across repeats by construction).
    """
    trace = generate_trace()
    n_events = len(trace)
    detectors: Dict[str, Dict[str, object]] = {}
    for name, factory in DETECTORS:
        best = None
        detector = None
        for _ in range(max(1, repeats)):
            detector = factory()
            started = time.perf_counter()
            detector.process_all(trace)
            elapsed = time.perf_counter() - started
            best = elapsed if best is None else min(best, elapsed)
        detectors[name] = _row(detector.stats, best, n_events)
    stats, best = _run_packed(packed_frames(trace), repeats)
    detectors["goldilocks-packed"] = _row(stats, best, n_events)
    kernel = detectors["goldilocks"]
    seed = detectors["goldilocks-seed"]
    return {
        "benchmark": "detector_throughput",
        "trace": {"generator": TRACE_PARAMS, "seed": TRACE_SEED, "events": n_events},
        "detectors": detectors,
        "kernel_vs_seed": {
            "cells_traversed_ratio": round(
                seed["cells_traversed"] / kernel["cells_traversed"], 4
            ),
            "detector_work_ratio": round(
                seed["detector_work"] / kernel["detector_work"], 4
            ),
        },
    }


def render_throughput(payload: Dict[str, object]) -> str:
    """Human-readable table for terminal output."""
    lines = [
        f"Detector throughput on {payload['trace']['events']} events "
        f"(seed={payload['trace']['seed']}):",
        f"{'detector':<22} {'events/sec':>12} {'cells':>10} {'work':>10} {'races':>7}",
    ]
    for name, row in payload["detectors"].items():
        lines.append(
            f"{name:<22} {row['events_per_sec']:>12} {row['cells_traversed']:>10} "
            f"{row['detector_work']:>10} {row['races']:>7}"
        )
    ratios = payload["kernel_vs_seed"]
    lines.append(
        "kernel vs seed: "
        f"{ratios['cells_traversed_ratio']}x fewer cells, "
        f"{ratios['detector_work_ratio']}x less counted work"
    )
    return "\n".join(lines)


def write_throughput_json(path: str, repeats: int = 1) -> Dict[str, object]:
    """Run the benchmark and write the JSON artifact; returns the payload."""
    payload = bench_throughput(repeats=repeats)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return payload
