"""Static admission control: drop provably race-free accesses at the edge.

The paper's Table 2 shows sound static analyses (Chord, RccJava)
eliminating the majority of dynamic checks.  :class:`AdmissionFilter`
turns those reports into an *ingestion-edge* gate: data accesses to
variables every selected analysis proved race-free are dropped before
they reach a queue or the kernel.  Sync events always pass, so the
happens-before state -- the one synchronization-event list -- stays
exact; per-variable race state is private to each variable, so dropping
one variable's accesses cannot change another variable's verdict.
Soundness is therefore exactly the static analyses' soundness, the same
argument :class:`~repro.runtime.filters.RaceFreeFieldsFilter` makes for
skipping in-process checks.

The decision is exact: the object's class (``objmap``, recorded from a
deterministic run of the workload) and one set lookup.  The ingestion
edge (:class:`~repro.core.encode.EventEncoder`) asks once per variable
and caches the verdict, so a later access to a dropped variable costs it
one dict hit and costs this module nothing.

Policies combine the two analyses' verdicts; each is individually sound,
so every combination is:

* ``chord`` / ``rccjava`` -- trust one tool's race-free set;
* ``intersect`` -- may-race = Chord ∩ RccJava, i.e. drop what *either*
  tool proved race-free (aggressive, still sound);
* ``union`` -- may-race = Chord ∪ RccJava, i.e. drop only what *both*
  tools proved race-free (conservative).
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from ..runtime.filters import field_key
from .facts import StaticRaceReport

ADMISSION_FORMAT = "repro-admission-filter"
#: the version ``to_json`` writes.  ``from_json`` also reads version 1,
#: whose extra bitmask field only approximated the same decision and is
#: ignored.
ADMISSION_VERSION = 2
POLICIES = ("chord", "rccjava", "intersect", "union")


class AdmissionFilter:
    """Per-workload admission decision for the ingestion edge.

    ``race_free`` holds ``(class_name, static_field)`` pairs the selected
    policy proved race-free; ``objmap`` maps object ids (from the
    deterministic recorded run) to class names.  Objects or classes the
    analyses never saw are admitted -- the sound default.

    ``refused`` collects every ``(obj_value, static_field)`` variable
    :meth:`admit` has refused.  It is observability (``/healthz`` reports
    its size as ``filtered_vars``), not state the decision depends on, and
    is *not* serialized.
    """

    def __init__(
        self,
        race_free: Iterable[Tuple[str, str]],
        objmap: Dict[int, str],
        policy: str = "intersect",
        workload: str = "?",
    ) -> None:
        if policy not in POLICIES:
            raise ValueError(f"unknown admission policy {policy!r}; want one of {POLICIES}")
        self.race_free: Set[Tuple[str, str]] = set(race_free)
        self.objmap: Dict[int, str] = dict(objmap)
        self.policy = policy
        self.workload = workload
        self.refused: Set[Tuple[int, str]] = set()

    def droppable_vars(self) -> Iterator[Tuple[int, str]]:
        """Every (obj_value, static_field) this filter may drop."""
        by_class: Dict[str, List[str]] = {}
        for cls, fld in self.race_free:
            by_class.setdefault(cls, []).append(fld)
        for obj_value, cls in self.objmap.items():
            for fld in by_class.get(cls, ()):
                yield obj_value, fld

    # -- the decision ---------------------------------------------------

    def admit(self, obj_value: int, field: str) -> bool:
        """True iff the access must be shipped; False iff provably race-free."""
        static_field = field_key(field)
        cls = self.objmap.get(obj_value)
        if cls is None or (cls, static_field) not in self.race_free:
            return True
        self.refused.add((obj_value, static_field))
        return False

    def filter_events(self, events: Iterable) -> List:
        """Offline path: the events that survive admission.

        Data accesses to non-admitted variables are dropped; everything
        else -- sync, alloc, commit -- passes untouched.
        """
        from ..core.actions import Read, Write

        kept = []
        for event in events:
            action = event.action
            if isinstance(action, (Read, Write)):
                var = action.var
                if not self.admit(var.obj.value, var.field):
                    continue
            kept.append(event)
        return kept

    # -- introspection --------------------------------------------------

    def describe(self) -> str:
        return (
            f"admit[{self.policy}] {self.workload}: "
            f"{len(self.race_free)} race-free fields x {len(self.objmap)} objects "
            f"-> {sum(1 for _ in self.droppable_vars())} droppable vars"
        )

    # -- serialization --------------------------------------------------

    def to_json(self) -> str:
        payload = {
            "format": ADMISSION_FORMAT,
            "version": ADMISSION_VERSION,
            "workload": self.workload,
            "policy": self.policy,
            "race_free": sorted(list(pair) for pair in self.race_free),
            "objmap": {str(obj): cls for obj, cls in sorted(self.objmap.items())},
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "AdmissionFilter":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"admission filter is not valid JSON: {exc}") from exc
        if not isinstance(payload, dict) or payload.get("format") != ADMISSION_FORMAT:
            raise ValueError("not an admission filter (missing format marker)")
        version = payload.get("version")
        if version not in (1, ADMISSION_VERSION):
            raise ValueError(
                f"unsupported admission filter version {version!r} "
                f"(this build reads versions 1 and {ADMISSION_VERSION})"
            )
        return cls(
            race_free={(cls_name, fld) for cls_name, fld in payload["race_free"]},
            objmap={int(obj): cls_name for obj, cls_name in payload["objmap"].items()},
            policy=payload["policy"],
            workload=payload.get("workload", "?"),
        )

    def clone(self) -> "AdmissionFilter":
        """A fresh filter with the same decision and nothing refused yet."""
        return AdmissionFilter(self.race_free, self.objmap, self.policy, self.workload)


def load_admission_filter(path: str) -> AdmissionFilter:
    """Read an admission filter JSON file (as written by ``to_json``)."""
    with open(path, "r", encoding="utf-8") as handle:
        return AdmissionFilter.from_json(handle.read())


def combine_race_free(
    chord: StaticRaceReport, rccjava: StaticRaceReport, policy: str
) -> Set[Tuple[str, str]]:
    """The droppable (class, field) set under the selected policy.

    Each report's guarantee is scoped to its own analyzed classes; the
    race-free complement is only meaningful inside that scope.
    """

    def scoped(report: StaticRaceReport) -> Set[Tuple[str, str]]:
        return {
            (cls, fld)
            for cls, fld in report.race_free_fields()
            if cls in report.analyzed_classes
        }

    if policy == "chord":
        return scoped(chord)
    if policy == "rccjava":
        return scoped(rccjava)
    if policy == "intersect":
        # may-race = intersection => race-free = union (either proof suffices)
        return scoped(chord) | scoped(rccjava)
    if policy == "union":
        # may-race = union => race-free = intersection (both must agree)
        return scoped(chord) & scoped(rccjava)
    raise ValueError(f"unknown admission policy {policy!r}; want one of {POLICIES}")


def record_workload(workload_name: str, scale: str = "tiny", seed: int = 0, stride: int = 8):
    """Deterministically run a workload, recording its trace and heap.

    Returns ``(events, objmap)``: the recorded event list and the
    object-id -> class-name map the admission filter needs.  The strided
    scheduler plus fixed seed make object ids reproducible, so the same
    objmap describes every replay of the recorded trace.
    """
    from ..lang import run_program
    from ..runtime import StridedScheduler
    from ..trace import TraceRecorder
    from ..workloads import get

    workload = get(workload_name)
    recorder = TraceRecorder()
    result = run_program(
        workload.program(),
        detector=recorder,
        race_policy="disable",
        main_args=workload.args(scale),
        scheduler=StridedScheduler(stride=stride),
        seed=seed,
        max_steps=50_000_000,
    )
    heap = result.interpreter.runtime.heap
    objmap = {obj.value: robj.class_name for obj, robj in heap.objects.items()}
    return recorder.events, objmap


def build_admission_filter(
    workload_name: str,
    policy: str = "intersect",
    scale: str = "tiny",
    objmap: Optional[Dict[int, str]] = None,
) -> AdmissionFilter:
    """Run both static analyses on a workload and build its filter.

    ``objmap`` can be supplied when the caller already recorded the run
    (the bench does); otherwise the workload is recorded here.
    """
    from .chord import run_chord
    from .model import AnalysisModel
    from .rccjava import run_rccjava
    from ..workloads import get

    program = get(workload_name).program()
    model = AnalysisModel(program)
    chord = run_chord(program, model)
    rccjava = run_rccjava(program, model)
    race_free = combine_race_free(chord, rccjava, policy)
    if objmap is None:
        _, objmap = record_workload(workload_name, scale=scale)
    return AdmissionFilter(
        race_free=race_free,
        objmap=objmap,
        policy=policy,
        workload=workload_name,
    )


def main(argv=None) -> int:
    """``python -m repro.analysis.admission <workload> -o filter.json``."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="repro-admission",
        description="build a static admission-control filter for a workload",
    )
    parser.add_argument("workload", help="registered workload name (e.g. colt)")
    parser.add_argument("--policy", default="intersect", choices=list(POLICIES))
    parser.add_argument("--scale", default="tiny", choices=["tiny", "small", "full"])
    parser.add_argument("-o", "--out", default=None, metavar="FILTER.json")
    parser.add_argument(
        "--trace",
        default=None,
        metavar="RUN.trace",
        help="also write the recorded trace (text lines) used for the objmap",
    )
    args = parser.parse_args(argv)

    events, objmap = record_workload(args.workload, scale=args.scale)
    filt = build_admission_filter(
        args.workload, policy=args.policy, scale=args.scale, objmap=objmap
    )
    if args.trace:
        from ..trace import dump_trace

        dump_trace(events, args.trace)
        print(f"wrote {args.trace} ({len(events)} events)")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(filt.to_json())
        print(f"wrote {args.out}")
    print(filt.describe())
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
