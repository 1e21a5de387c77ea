"""Wall-clock benchmark for the Goldilocks reproduction.

Run from the repository root::

    python3 -m perf run [--workload W] [--seed S] [--seconds N] [--trace 0|1]
                        [--repeat N] [--json OUT] [--no-cache] [--smoke]
    python3 -m perf compare BASE.json NEW.json

The benchmark drives the system only through public surfaces -- the
``repro-serve`` and ``repro-race`` command lines as fresh subprocesses, and
``repro.lang.run_program`` -- and owns its trace generators.  See
``perf/README.md`` for the workloads, metrics and baselines.
"""

from pathlib import Path

#: the checkout the benchmark measures (the directory holding ``perf/``)
ROOT = Path(__file__).resolve().parent.parent
#: the system's sources; every subprocess gets this on ``PYTHONPATH``
SRC = ROOT / "src"
#: scratch files of one run: sockets, trace files, logs, span records
WORK = ROOT / ".perf_work"
#: reference verdicts, keyed by workload, seed, size and generator hash
CACHE = ROOT / ".perf_cache"
#: the metric catalogue (names, units, directions, bounds)
SPEC = ROOT / "BENCHMARK.json"
