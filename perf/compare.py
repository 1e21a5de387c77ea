"""``python3 -m perf compare BASE.json NEW.json``.

For each (end-to-end metric, workload) row both sides' median and
quartiles are printed with a verdict judged by the metric's bound in
``BENCHMARK.json``:

* **unresolved** -- either side's interquartile spread exceeds the bound,
  unless every run of one side beats every run of the other;
* **worse** / **better** -- the median moved past the bound;
* **same** -- otherwise.

An ``error_frac`` row per workload compares failed / attempted operations.
The exit status is 1 when any row is worse or ``error_frac`` rose.
"""

from __future__ import annotations

import json
from typing import Dict, List, Sequence, Tuple

from . import spec as spec_mod
from .stats import quartiles, spread


def _samples(path: str) -> Dict[Tuple[str, str], List[float]]:
    """``(workload, metric) -> values`` over the runs of one file."""
    runs = json.loads(open(path).read())["runs"]
    out: Dict[Tuple[str, str], List[float]] = {}
    for run in runs:
        for name, value in run["metrics"].items():
            out.setdefault((run["workload"], name), []).append(value)
        out.setdefault((run["workload"], "error_frac"), []).append(
            run["failed"] / run["attempted"]
        )
    return out


def judge(base: Sequence[float], new: Sequence[float], bound: float, better: str) -> str:
    """better / worse / same / unresolved, by the rules in the module docstring."""
    lower = better == "lower"
    new_wins = max(new) < min(base) if lower else min(new) > max(base)
    base_wins = max(base) < min(new) if lower else min(base) > max(new)
    if max(spread(base), spread(new)) > bound:
        return "better" if new_wins else "worse" if base_wins else "unresolved"
    _, base_med, _ = quartiles(base)
    _, new_med, _ = quartiles(new)
    worsening = (new_med - base_med) / base_med * (1 if lower else -1)
    if worsening > bound:
        return "worse"
    if worsening < -bound:
        return "better"
    return "same"


def _cell(values: Sequence[float]) -> str:
    q1, med, q3 = quartiles(values)
    return f"{med:.6g} [{q1:.6g}, {q3:.6g}]"


def compare(base_path: str, new_path: str) -> int:
    spec = spec_mod.load()
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    base = _samples(base_path)
    new = _samples(new_path)
    status = 0
    print(f"{'metric':<16} {'workload':<18} {'base median [q1, q3]':<36} "
          f"{'new median [q1, q3]':<36} verdict")
    for workload in spec_mod.workload_names(spec):
        for name, meta in metrics.items():
            key = (workload, name)
            if key not in base or key not in new:
                continue
            verdict = judge(base[key], new[key], meta["bound"], meta["better"])
            status |= verdict == "worse"
            print(f"{name:<16} {workload:<18} {_cell(base[key]):<36} "
                  f"{_cell(new[key]):<36} {verdict}")
        key = (workload, "error_frac")
        if key in base and key in new:
            rose = sum(new[key]) / len(new[key]) > sum(base[key]) / len(base[key])
            status |= rose
            print(f"{'error_frac':<16} {workload:<18} {_cell(base[key]):<36} "
                  f"{_cell(new[key]):<36} {'worse' if rose else 'same'}")
    return int(status)
