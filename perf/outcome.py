"""What one workload run reports."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List


@dataclass
class Outcome:
    #: end-to-end metrics, measured with the benchmark's tracing off
    metrics: Dict[str, float]
    #: per-layer metrics: scraped counters, plus the traced pass if run
    layers: Dict[str, float]
    #: operations attempted and failed (events, commands, program runs)
    attempted: int
    failed: int
    #: every verdict equal to the reference
    correct: bool
    #: the open-loop generator kept its schedule (serve workloads)
    valid: bool = True
    #: diagnostics printed as ``#`` comment lines
    notes: List[str] = field(default_factory=list)
