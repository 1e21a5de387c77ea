"""``--smoke`` runs every workload end to end and prints every metric."""

import json
import subprocess
import sys
import time

from perf import ROOT, spec


def test_smoke_prints_every_declared_metric_with_its_unit():
    catalogue = spec.load()
    units = spec.units(catalogue)
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "perf", "run", "--smoke", "--trace", "1"],
        cwd=str(ROOT),
        capture_output=True,
        text=True,
        timeout=120,
    )
    elapsed = time.monotonic() - start
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert elapsed < 60, f"smoke took {elapsed:.1f} s"
    lines = proc.stdout.splitlines()
    printed = {}
    for line in lines:
        if line.startswith(("#", "{")):
            continue
        name, workload, value, unit = line.split()
        float(value)
        printed[(name, workload)] = unit
    for workload in spec.workload_names(catalogue):
        for name, unit in units.items():
            assert printed.get((name, workload)) == unit, (name, workload)
    assert {name for name, _ in printed} == set(units)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
