"""Reference verdicts from the spec detector, cached per input.

The reference is ``repro.core.LazyGoldilocks(gc_threshold=None)`` -- the
paper's Figure 8 algorithm with no garbage collection -- run over exactly
the generated events, each race rendered with ``seq`` = event index by
``repro.server.protocol.format_race``.  Computing it takes seconds, so it is
cached under ``.perf_cache/`` keyed by (input, seed, size, generator hash);
``--no-cache`` recomputes.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Dict, List, Sequence

from . import CACHE
from .gen import generator_hash


def _cache_path(kind: str, seed: int, size: int, digest: str) -> Path:
    return CACHE / f"{kind}-s{seed}-n{size}-{digest}.json"


def _load(path: Path, use_cache: bool):
    if not use_cache:
        return None
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return None


def _store(path: Path, value) -> None:
    CACHE.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(f".tmp{os.getpid()}")
    tmp.write_text(json.dumps(value))
    tmp.replace(path)


def trace_races(kind: str, seed: int, lines: Sequence[str], use_cache: bool = True) -> List[str]:
    """Sorted reference race lines for one generated trace."""
    path = _cache_path(kind, seed, len(lines), generator_hash())
    cached = _load(path, use_cache)
    if cached is not None:
        return cached
    from repro.core import LazyGoldilocks
    from repro.server.protocol import format_race
    from repro.trace.io import parse_event

    detector = LazyGoldilocks(gc_threshold=None)
    races: List[str] = []
    for seq, line in enumerate(lines):
        for report in detector.process(parse_event(line)):
            races.append(format_race(seq, report))
    races.sort()
    _store(path, races)
    return races


def analyze_rendering(race_lines: Sequence[str]) -> List[str]:
    """The same verdicts as ``repro-race analyze`` prints them (sorted)."""
    from repro.server.protocol import parse_race, race_to_report

    return sorted(str(race_to_report(parse_race(line))) for line in race_lines)


def runtime_races(
    seed: int, scale: str, programs, run, use_cache: bool = True
) -> Dict[str, int]:
    """Reference race count per Table 1 program.

    ``programs`` is ``[(name, workload)]``; ``run(workload, detector)``
    executes one program exactly as the measured job does.  The cache key
    hashes the program sources and arguments, since those are the inputs.
    """
    digest = hashlib.sha256(
        "".join(w.source + repr(w.args(scale)) for _, w in programs).encode()
    ).hexdigest()[:16]
    path = _cache_path(f"table1-{scale}", seed, len(programs), digest)
    cached = _load(path, use_cache)
    if cached is not None:
        return cached
    from repro.core import LazyGoldilocks

    counts = {
        name: len(run(workload, LazyGoldilocks(gc_threshold=None)).races)
        for name, workload in programs
    }
    _store(path, counts)
    return counts
