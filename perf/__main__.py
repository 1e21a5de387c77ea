"""``python3 -m perf run|compare`` -- see ``perf/README.md``."""

from __future__ import annotations

import argparse
import json
import signal
import statistics
import sys
import traceback
from pathlib import Path
from typing import Dict, List, Optional

from . import SRC, spec as spec_mod


def _ensure_sources() -> None:
    """Measure the checkout's own ``src/``, never an installed copy."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perf: no system sources at {SRC / 'repro'}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))


def _runner(name: str):
    from . import analyze, serve, table1

    return {
        "serve-text": serve.run,
        "analyze-pipeline": analyze.run,
        "runtime-table1": table1.run,
    }[name]


def _fmt(value: float) -> str:
    return format(value, ".10g")


def cmd_run(args) -> int:
    spec = spec_mod.load()
    units = spec_mod.units(spec)
    e2e_names = [m["name"] for m in spec["end_to_end"]]
    layer_names = [m["name"] for m in spec["per_layer"]]
    names = spec_mod.workload_names(spec) if args.workload == "all" else [args.workload]
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    runs: List[dict] = []
    for workload in names:
        for i in range(args.repeat):
            seed = args.seed + i
            outcome = _runner(workload)(
                seed=seed,
                seconds=seconds,
                trace=bool(args.trace),
                smoke=args.smoke,
                use_cache=not args.no_cache,
            )
            for note in outcome.notes:
                print(f"# {note}")
            print(f"# {workload} seed={seed} attempted={outcome.attempted} "
                  f"failed={outcome.failed} correct={outcome.correct} valid={outcome.valid}")
            if args.trace:
                # a layer this workload never reaches reads 0
                for name in layer_names:
                    outcome.layers.setdefault(name, 0)
            # undeclared names print too (unit "?"), so the tests catch them
            layers = [n for n in layer_names if n in outcome.layers]
            layers += sorted(set(outcome.layers) - set(layer_names))
            rows = list(outcome.metrics.items()) + [(n, outcome.layers[n]) for n in layers]
            for name, value in rows:
                print(f"{name} {workload} {_fmt(value)} {units.get(name, '?')}")
            runs.append(
                {
                    "workload": workload,
                    "seed": seed,
                    "valid": outcome.valid,
                    "correct": outcome.correct,
                    "attempted": outcome.attempted,
                    "failed": outcome.failed,
                    "metrics": outcome.metrics,
                    "layers": outcome.layers,
                }
            )
    if args.json:
        Path(args.json).write_text(
            json.dumps({"seconds": seconds, "smoke": args.smoke, "runs": runs}, indent=1)
        )
    correct = all(r["correct"] for r in runs)
    metric_names = layer_names if args.trace else e2e_names
    result: Dict[str, dict] = {}
    for workload in names:
        mine = [r for r in runs if r["workload"] == workload]
        if args.trace:
            # latencies of an invalid open loop (perf/serve.py) are not
            # samples, unless no run was valid
            mine = [r for r in mine if r["valid"]] or mine
        samples = [{**r["metrics"], **r["layers"]} for r in mine]
        prefix = "" if len(names) == 1 else f"{workload}."
        for name in metric_names:
            value = statistics.median(s[name] for s in samples)
            result[prefix + name] = {"value": value, "unit": units[name]}
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": sum(r["attempted"] for r in runs),
                "failed": sum(r["failed"] for r in runs),
                "metrics": result,
            }
        )
    )
    return 0 if correct else 1


def _terminated(signum, _frame) -> None:
    raise SystemExit(128 + signum)


def cmd_compare(args) -> int:
    from .compare import compare

    return compare(args.base, args.new)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m perf", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run workloads and print every metric")
    run.add_argument("--workload", default="all",
                     help="a workload name from BENCHMARK.json, or 'all' (default)")
    run.add_argument("--seed", type=int, default=1,
                     help="seed of the first run; run i of --repeat uses seed + i")
    run.add_argument("--seconds", type=int, default=None,
                     help="measured time per run (default: run_seconds in BENCHMARK.json)")
    run.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                     help="1 adds the traced pass and reports the per-layer metrics")
    run.add_argument("--repeat", type=int, default=1, help="runs per workload")
    run.add_argument("--json", metavar="OUT", help="write every run's metrics here")
    run.add_argument("--no-cache", action="store_true",
                     help="recompute the reference verdicts")
    run.add_argument("--smoke", action="store_true",
                     help="every workload at about 1/50 size (a quick check)")
    run.set_defaults(func=cmd_run)
    cmp = sub.add_parser("compare", help="compare two --json outputs metric by metric")
    cmp.add_argument("base")
    cmp.add_argument("new")
    cmp.set_defaults(func=cmd_compare)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so every ``Children`` block still
    # kills and reaps the processes it started
    signal.signal(signal.SIGTERM, _terminated)
    if args.command == "run":
        _ensure_sources()
        if args.workload != "all" and args.workload not in spec_mod.workload_names(spec_mod.load()):
            parser.error(f"unknown workload {args.workload!r}")
        if args.repeat < 1 or (args.seconds is not None and args.seconds < 1):
            parser.error("--repeat and --seconds must be at least 1")
    try:
        return args.func(args)
    except Exception:
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main())
