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

``analyze`` runs the default detector, ``goldilocks`` (the encoded kernel,
:class:`~repro.core.EncodedGoldilocks`), the way ``repro-serve`` does: the
lines go through the service's encoder in runs
(:meth:`~repro.core.encode.EventEncoder.encode_lines`) into packed integer
records, applied in chunks of :data:`CHUNK_EVENTS`, so no ``Event`` object
is built.  The other detectors read ``Event`` objects
(:func:`~repro.trace.load_trace`), as do ``oracle``, ``shrink`` and
``explain``.

Exit status of ``analyze`` (and ``oracle``): 0 no race, 1 races found, 2 a
trace that cannot be read (a missing file, a byte that is not UTF-8, a
malformed line, whose number the ``error:`` line gives) or a usage error.

The trace format is the line-based one of :mod:`repro.trace.io` (see that
module's docstring); ``fuzz`` emits it, the runtime's
:class:`~repro.trace.TraceRecorder` + :func:`~repro.trace.dump_trace`
produce it from live executions.
"""

from __future__ import annotations

import argparse
import sys
from array import array
from itertools import chain
from typing import Iterable, Iterator, List, Optional, Tuple

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
from .core.actions import DataVar, Event, Obj
from .core.lockset import Interner
from .core.report import RaceReport
from .oracle import HappensBeforeOracle
from .trace import RandomTraceGenerator, dump_trace, load_trace
from .trace.io import TraceFormatError, iter_records, open_lines

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

#: events per chunk of packed records ``analyze`` hands the encoded kernel
CHUNK_EVENTS = 512

#: one chunk: its records (six ints each) and the extras its commits use
Chunk = Tuple[array, array]

#: what reading a trace raises when it cannot be read: a missing file, a
#: truncated ``.gz``, a byte that is not UTF-8, a malformed line
_UNREADABLE = (OSError, EOFError, UnicodeDecodeError, TraceFormatError)


def _source(trace_arg: str):
    """A trace argument as a source: a path, a ``.gz`` path, or ``-`` for stdin."""
    return sys.stdin if trace_arg == "-" else trace_arg


def _load(trace_arg: str) -> List[Event]:
    """Load a trace argument: a path, a ``.gz`` path, or ``-`` for stdin."""
    return load_trace(_source(trace_arg))


def _unreadable(trace_arg: str, exc: Exception) -> int:
    """Report a trace that cannot be read, with no verdict: exit status 2."""
    name = "<stdin>" if trace_arg == "-" else trace_arg
    print(f"error: cannot read trace {name}: {exc}", file=sys.stderr)
    return 2


def _reads_records(detector) -> bool:
    """Whether a detector (class or instance) takes packed records."""
    return hasattr(detector, "apply_records")


def _make_detector(name: str, commit_sync: str):
    factory = DETECTORS[name]
    if name.startswith("goldilocks"):
        return factory(commit_sync=commit_sync)
    return factory()


class _Trace:
    """The trace ``analyze`` reads, in the form each detector takes.

    A detector with ``apply_records`` (the encoded kernel) takes packed
    records, encoded from the text by the service's encoder
    (:func:`~repro.trace.io.iter_records`); every other detector takes
    ``Event`` objects from :func:`load_trace`.  Unless ``shared``, the
    records stream from the source; shared, the text is read once (stdin
    can be read only once) and each form is built once, whole.  An
    admission filter drops the data accesses it proves race-free from
    either form; ``total`` and ``kept`` count the events of a whole form
    before and after it.
    """

    def __init__(self, trace_arg: str, admit, shared: bool) -> None:
        source = _source(trace_arg)
        if shared:
            with open_lines(source) as lines:
                source = list(lines)
        self.source = source
        self.admit = admit
        self.shared = shared
        self.total = self.kept = 0
        self._events: Optional[List[Event]] = None
        self._records: Optional[Tuple[Interner, Iterable[Chunk]]] = None

    def events(self) -> List[Event]:
        if self._events is None:
            events = load_trace(self.source)
            self.total = len(events)
            if self.admit is not None:
                events = self.admit.filter_events(events)
            self.kept = len(events)
            self._events = events
        return self._events

    def records(self) -> Tuple[Interner, Iterable[Chunk]]:
        """The id space of the records, and their chunks."""
        if self._records is None:
            interner = Interner()
            chunks: Iterable[Chunk] = self._encode(interner)
            if self.shared:
                chunks = list(chunks)
                self.kept = sum(len(records) for records, _ in chunks) // 6
            self._records = interner, chunks
        return self._records

    def _encode(self, interner: Interner) -> Iterator[Chunk]:
        with open_lines(self.source) as lines:
            lines = iter(lines)
            first = next(lines, None)
            if first is None:
                return  # no line: no encoder, so start-up imports nothing more
            from .core.encode import EventEncoder

            encoder = EventEncoder(admit=self.admit)
            encoder.interner = interner  # both empty: one id space
            yield from iter_records(chain((first,), lines), encoder, CHUNK_EVENTS)
            self.total = encoder.events_encoded

    def run(self, detector) -> Tuple[List[RaceReport], int]:
        """``(reports, events checked)`` of one detector over the trace."""
        if not _reads_records(detector):
            events = self.events()
            return detector.process_all(events), len(events)
        interner, chunks = self.records()
        # each chunk comes after the encoder interned every id it names
        detector.interner = interner
        reports: List[RaceReport] = []
        applied = 0
        for records, extras in chunks:
            found, count = detector.apply_records(records, extras)
            reports.extend(report for _seq, report in found)
            applied += count
        return reports, applied


def cmd_analyze(args) -> int:
    admit = None
    if getattr(args, "admit", None):
        from .analysis.admission import load_admission_filter

        try:
            admit = load_admission_filter(args.admit)
        except (OSError, ValueError) as exc:
            print(f"error: --admit: {exc}")
            return 2
    names = args.detector or ["goldilocks"]
    try:
        trace = _Trace(args.trace, admit, shared=len(names) > 1 or admit is not None)
        if admit is not None:
            # the counts come before any verdict: build the first form now
            if _reads_records(DETECTORS[names[0]]):
                trace.records()
            else:
                trace.events()
            print(
                f"[admit] {admit.describe()}; "
                f"{trace.total - trace.kept}/{trace.total} event(s) dropped"
            )
    except _UNREADABLE as exc:
        return _unreadable(args.trace, exc)
    status = 0
    for name in names:
        try:
            detector = _make_detector(name, args.commit_sync)
        except ValueError as exc:
            # e.g. --commit-sync writes: supported by the oracle only (the
            # online algorithm's last-access compression cannot express it).
            print(f"error: {exc}; use `repro-race oracle` for this policy")
            return 2
        try:
            reports, n_events = trace.run(detector)
        except _UNREADABLE as exc:
            return _unreadable(args.trace, exc)
        print(f"[{name}] {len(reports)} race(s) over {n_events} events")
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
    try:
        events = _load(args.trace)
    except _UNREADABLE as exc:
        return _unreadable(args.trace, exc)
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

    try:
        events = _load(args.trace)
    except _UNREADABLE as exc:
        return _unreadable(args.trace, exc)
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
    try:
        result = replay_flightrec(recording, provenance=True)
    except ValueError as exc:  # a frame the kernel refuses
        print(f"error: {exc}", file=sys.stderr)
        return 2
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
    try:
        events = _load(args.trace)
    except _UNREADABLE as exc:
        return _unreadable(args.trace, exc)
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
    unreadable file or a frame the kernel refuses (one ``error:`` line on
    stderr, nothing on stdout).
    """
    from .obs.flightrec import load_flightrec, replay_flightrec

    try:
        recording = load_flightrec(args.file)
        result = replay_flightrec(recording)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    header = recording.header
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
