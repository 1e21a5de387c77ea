"""The metric catalogue, read from ``BENCHMARK.json`` at the checkout root."""

from __future__ import annotations

import json
from typing import Dict, List

from . import SPEC


def load() -> dict:
    return json.loads(SPEC.read_text())


def workload_names(spec: dict) -> List[str]:
    return [w["name"] for w in spec["workloads"]]


def units(spec: dict) -> Dict[str, str]:
    """``metric -> unit`` for every end-to-end and per-layer metric."""
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
