"""``repro-race``: run race detectors over recorded trace files.

Usage::

    repro-race analyze trace.txt                      # goldilocks
    repro-race analyze trace.txt --detector eraser --detector vectorclock
    repro-race analyze trace.txt --commit-sync atomic-order
    repro-race oracle trace.txt                       # ground truth
    repro-race fuzz --seed 7 --out trace.txt          # generate a trace
    repro-race explain trace.txt --var 1.data         # lockset evolution
    repro-race fuzz --seed 7 | repro-race analyze -   # stdin composes

Every command that takes a trace accepts ``-`` for stdin and ``.gz``
paths, so recorded streams pipe straight between the fuzzer, the
:mod:`repro.server` service, and shell tooling.

The trace format is the line-based one of :mod:`repro.trace.io` (see that
module's docstring); ``fuzz`` emits it, the runtime's
:class:`~repro.trace.TraceRecorder` + :func:`~repro.trace.dump_trace`
produce it from live executions.
"""

from __future__ import annotations

import argparse
import sys
from typing import List

from .baselines import (
    EraserDetector,
    FastTrackDetector,
    RaceTrackDetector,
    VectorClockDetector,
)
from .core import (
    EagerGoldilocks,
    EagerGoldilocksRW,
    EncodedGoldilocks,
    LazyGoldilocks,
)
from .core.actions import DataVar, Obj
from .oracle import HappensBeforeOracle
from .trace import RandomTraceGenerator, dump_trace, load_trace

DETECTORS = {
    "goldilocks": EncodedGoldilocks,
    "goldilocks-seed": LazyGoldilocks,
    "goldilocks-eager": EagerGoldilocksRW,
    "goldilocks-norw": EagerGoldilocks,
    "eraser": EraserDetector,
    "racetrack": RaceTrackDetector,
    "vectorclock": VectorClockDetector,
    "fasttrack": FastTrackDetector,
}


def _load(trace_arg: str):
    """Load a trace argument: a path, a ``.gz`` path, or ``-`` for stdin."""
    if trace_arg == "-":
        return load_trace(sys.stdin)
    return load_trace(trace_arg)


def _make_detector(name: str, commit_sync: str):
    factory = DETECTORS[name]
    if name.startswith("goldilocks"):
        return factory(commit_sync=commit_sync)
    return factory()


def cmd_analyze(args) -> int:
    events = _load(args.trace)
    if getattr(args, "admit", None):
        from .analysis.admission import load_admission_filter

        try:
            admit = load_admission_filter(args.admit)
        except (OSError, ValueError) as exc:
            print(f"error: --admit: {exc}")
            return 2
        total = len(events)
        events = admit.filter_events(events)
        print(
            f"[admit] {admit.describe()}; "
            f"{total - len(events)}/{total} event(s) dropped"
        )
    status = 0
    for name in args.detector or ["goldilocks"]:
        try:
            detector = _make_detector(name, args.commit_sync)
        except ValueError as exc:
            # e.g. --commit-sync writes: supported by the oracle only (the
            # online algorithm's last-access compression cannot express it).
            print(f"error: {exc}; use `repro-race oracle` for this policy")
            return 2
        reports = detector.process_all(events)
        print(f"[{name}] {len(reports)} race(s) over {len(events)} events")
        for report in reports:
            print(f"  {report}")
        if args.stats:
            for key, value in detector.stats.as_dict().items():
                if value:
                    print(f"    {key}: {value}")
        if reports:
            status = 1
    return status


def cmd_oracle(args) -> int:
    events = _load(args.trace)
    oracle = HappensBeforeOracle(events, commit_sync=args.commit_sync)
    races = oracle.races()
    print(f"[oracle] {len(races)} racy pair(s) over {len(events)} events")
    for i, j, var in races:
        print(f"  {var!r}: events #{i} and #{j} are unordered")
    firsts = oracle.first_race_per_var()
    for var, (i, j) in sorted(firsts.items(), key=lambda kv: kv[1][1]):
        print(f"  first race on {var!r}: completed by event #{j}")
    return 1 if races else 0


def cmd_fuzz(args) -> int:
    generator = RandomTraceGenerator(
        max_threads=args.threads,
        steps_per_thread=args.steps,
        p_discipline=args.discipline,
        with_transactions=not args.no_transactions,
    )
    events = generator.generate(args.seed)
    if args.out:
        dump_trace(events, args.out)
        print(f"wrote {len(events)} events to {args.out}")
    else:
        dump_trace(events, sys.stdout)
    return 0


def cmd_shrink(args) -> int:
    """Delta-debug a racy trace down to a locally minimal reproducer."""
    from .trace.minimize import minimize_race, races_on

    events = _load(args.trace)
    if args.var:
        obj_part, _, field = args.var.partition(".")
        var = DataVar(Obj(int(obj_part)), field)
    else:
        reports = LazyGoldilocks().process_all(events)
        if not reports:
            print("no race found in the trace; nothing to shrink")
            return 1
        var = reports[0].var
    if not races_on(events, var):
        print(f"the detector reports no race on {var!r}; nothing to shrink")
        return 1
    minimal = minimize_race(events, var)
    print(
        f"# shrunk {len(events)} -> {len(minimal)} events; "
        f"race on {var!r} preserved"
    )
    if args.out:
        dump_trace(minimal, args.out)
        print(f"wrote {args.out}")
    else:
        dump_trace(minimal, sys.stdout)
    return 0


def _render_provenance(race_line: str, chain: Optional[dict], index: int) -> None:
    """Print one race's lockset-transfer chain in a readable form."""
    print(f"race {index}: {race_line}")
    if chain is None:
        print(
            "  no provenance in this recording; re-record with --provenance"
            " (the replay below could not derive one either)"
        )
        return
    elements = {int(k): v for k, v in (chain.get("elements") or {}).items()}

    def name(eid) -> str:
        return elements.get(int(eid), f"#{eid}")

    anchor = chain.get("anchor") or {}
    print(
        f"  anchor: pos={anchor.get('pos')} "
        f"(segment {anchor.get('segment')}, slot {anchor.get('slot')}), "
        f"window [{anchor.get('pos')}..{chain.get('end_pos')})"
    )
    print(
        f"  owners: first={name(chain.get('first_owner'))} "
        f"second={name(chain.get('second_owner'))} "
        f"owned={chain.get('owned')}"
    )
    entries = chain.get("entries") or []
    applied = chain.get("rules_applied", len(entries))
    if not entries:
        print(
            "  0 transfer rules fired in the window: the second access's "
            "owner never entered the lockset -- the race is evident at the "
            "anchor already"
        )
        return
    print(f"  {applied} rule application(s)" + (" (truncated)" if chain.get("truncated") else "") + ":")
    for entry in entries:
        where = (
            f"pos={entry.get('pos')} seg={entry.get('segment')} "
            f"slot={entry.get('slot')}"
        )
        rule = entry.get("rule")
        if rule == "transfer":
            detail = f"{name(entry.get('key'))} already held -> gains {name(entry.get('gain'))}"
        elif rule == "commit-incoming":
            detail = (
                f"commit row {entry.get('row')} intersects lockset -> "
                f"gains committer {name(entry.get('committer'))}"
            )
        else:
            detail = (
                f"committer {name(entry.get('committer'))} held -> "
                f"union with commit row {entry.get('row')}'s outgoing set"
            )
        print(f"    [{where}] {rule}: {detail}")


def _explain_flightrec(args) -> int:
    """``repro-race explain --race N FILE.flightrec``: render the chain."""
    from .obs.flightrec import load_flightrec, replay_flightrec
    from .server.protocol import format_race

    try:
        recording = load_flightrec(args.trace)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    header = recording.header
    recorded_lines = [str(line) for line in header.get("races", [])]
    recorded_prov = header.get("provenance")
    if (
        isinstance(recorded_prov, list)
        and args.race < len(recorded_prov)
        and recorded_prov[args.race] is not None
    ):
        # The service recorded the chain online -- no replay needed.
        line = (
            recorded_lines[args.race]
            if args.race < len(recorded_lines)
            else "<recorded race>"
        )
        _render_provenance(line, recorded_prov[args.race], args.race)
        return 0
    result = replay_flightrec(recording, provenance=True)
    reports = result.reports or []
    if args.race >= len(reports):
        print(
            f"error: the window replays {len(reports)} race(s); "
            f"--race {args.race} is out of range",
            file=sys.stderr,
        )
        return 2
    seq, report = reports[args.race]
    _render_provenance(format_race(seq, report), report.provenance, args.race)
    return 0


def cmd_explain(args) -> int:
    """Print the Figure 6/7-style lockset evolution for one variable."""
    if args.race is not None:
        return _explain_flightrec(args)
    if not args.var:
        print(
            "error: --var <obj>.<field> is required (or --race N with a "
            ".flightrec file)",
            file=sys.stderr,
        )
        return 2
    events = _load(args.trace)
    obj_part, _, field = args.var.partition(".")
    var = DataVar(Obj(int(obj_part)), field)
    try:
        detector = EagerGoldilocks(commit_sync=args.commit_sync)
    except ValueError as exc:
        print(f"error: {exc}; use `repro-race oracle` for this policy")
        return 2
    print(f"LS({var!r}) evolution:")
    for event in events:
        reports = detector.process(event)
        marker = "  ** RACE **" if any(r.var == var for r in reports) else ""
        print(f"  {str(event):<46} {detector.lockset_of(var)}{marker}")
    return 0


def cmd_replay_flightrec(args) -> int:
    """Replay a ``.flightrec`` dump offline; verify the recorded races.

    Exit status: 0 when every recorded race line was reproduced (including
    an empty recording, e.g. a SIGTERM dump with no races), 1 when at least
    one recorded line could not be reproduced from the window, 2 on an
    unreadable file.
    """
    from .obs.flightrec import load_flightrec, replay_flightrec

    try:
        recording = load_flightrec(args.file)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    header = recording.header
    result = replay_flightrec(recording)
    print(
        f"# flightrec shard {header.get('shard')}/{header.get('n_shards')} "
        f"reason={header.get('reason')} records={header.get('n_records')} "
        f"seq=[{header.get('seq_first')}..{header.get('seq_last')}] "
        f"evicted={header.get('evicted_records')}"
    )
    for line in result.replayed:
        marker = " (recorded)" if line in result.reproduced else ""
        print(f"{line}{marker}")
    if result.missing:
        for line in result.missing:
            print(f"# NOT reproduced (evicted from the window?): {line}")
        print(
            f"# {len(result.missing)} of {len(header.get('races', []))} "
            "recorded race(s) missing from the replay"
        )
        return 1
    print(
        f"# replay ok: {len(result.reproduced)} recorded race(s) reproduced, "
        f"{len(result.replayed)} total in the window"
    )
    return 0


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-race",
        description="Goldilocks race detection over recorded traces",
    )
    parser.add_argument(
        "--commit-sync",
        default="footprint",
        choices=["footprint", "atomic-order", "writes"],
        help="strong-atomicity interpretation for transactions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="run detectors over a trace file")
    analyze.add_argument("trace", help="trace file, .gz, or - for stdin")
    analyze.add_argument(
        "--detector",
        action="append",
        choices=sorted(DETECTORS),
        help="detector(s) to run (default: goldilocks)",
    )
    analyze.add_argument(
        "--admit",
        metavar="FILTER.json",
        help="static admission-control filter (python -m repro.analysis.admission); "
        "data accesses it proves race-free are dropped before detection",
    )
    analyze.add_argument("--stats", action="store_true", help="print counters")
    analyze.set_defaults(func=cmd_analyze)

    oracle = sub.add_parser("oracle", help="ground-truth happens-before analysis")
    oracle.add_argument("trace", help="trace file, .gz, or - for stdin")
    oracle.set_defaults(func=cmd_oracle)

    fuzz = sub.add_parser("fuzz", help="generate a random feasible trace")
    fuzz.add_argument("--seed", type=int, default=0)
    fuzz.add_argument("--threads", type=int, default=4)
    fuzz.add_argument("--steps", type=int, default=12)
    fuzz.add_argument("--discipline", type=float, default=0.55)
    fuzz.add_argument("--no-transactions", action="store_true")
    fuzz.add_argument("--out", default=None)
    fuzz.set_defaults(func=cmd_fuzz)

    shrink = sub.add_parser("shrink", help="delta-debug a racy trace to a minimal one")
    shrink.add_argument("trace", help="trace file, .gz, or - for stdin")
    shrink.add_argument("--var", default=None, help="variable as <obj>.<field> (default: first racy)")
    shrink.add_argument("--out", default=None)
    shrink.set_defaults(func=cmd_shrink)

    explain = sub.add_parser(
        "explain",
        help="print one variable's lockset evolution, or a recorded race's "
        "lockset-transfer chain from a .flightrec file",
    )
    explain.add_argument(
        "trace", help="trace file, .gz, - for stdin, or a .flightrec with --race"
    )
    explain.add_argument("--var", help="variable as <obj>.<field>")
    explain.add_argument(
        "--race",
        type=int,
        metavar="N",
        help="treat the positional argument as a .flightrec file and render "
        "race N's provenance chain (recorded, or re-derived by replay)",
    )
    explain.set_defaults(func=cmd_explain)

    replay = sub.add_parser(
        "replay-flightrec",
        help="re-run a .flightrec race dump offline and verify its races",
    )
    replay.add_argument("file", help="a .flightrec file written by the service")
    replay.set_defaults(func=cmd_replay_flightrec)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
