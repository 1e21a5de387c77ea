"""Static admission control: drop provably race-free accesses at the edge.

The paper's Table 2 shows sound static analyses (Chord, RccJava)
eliminating the majority of dynamic checks.  :class:`AdmissionFilter`
turns those reports into an *ingestion-edge* gate: data accesses to
variables every selected analysis proved race-free are dropped (folded
into a per-variable summary counter) before they reach a queue or the
kernel.  Sync events always pass, so the happens-before state -- the one
synchronization-event list -- stays exact; per-variable race
state is private to each variable, so dropping one variable's accesses
cannot change another variable's verdict.  Soundness is therefore
exactly the static analyses' soundness, the same argument
:class:`~repro.runtime.filters.RaceFreeFieldsFilter` makes for skipping
in-process checks.

The exact membership test needs the object's class (``objmap``, recorded
from a deterministic run of the workload) plus a set lookup.  A cheap
probabilistic pre-filter -- :class:`ApproximateVarSet`, an int-bitmask
approximate set -- guards it: the bitmask holds every *droppable*
variable key, so a miss proves the access is not droppable and admits it
with one mask test; only hits (including false positives) fall through
to the exact lookup.  Misses can never be droppable variables, hence no
false negatives: nothing racy is ever dropped.

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
import zlib
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from ..runtime.filters import field_key
from .facts import StaticRaceReport

ADMISSION_FORMAT = "repro-admission-filter"
ADMISSION_VERSION = 1
POLICIES = ("chord", "rccjava", "intersect", "union")
DEFAULT_NBITS = 8192


def var_key(obj_value: int, static_field: str) -> int:
    """Stable integer key for one dynamic variable (object x static field).

    Matches the wire partitioner's spelling (``obj.field`` through crc32)
    but over the *static* field name -- array indices collapse to ``[]``
    before hashing, since the static analyses cannot distinguish them.
    """
    return zlib.crc32(f"{obj_value}.{static_field}".encode("utf-8"))


class ApproximateVarSet:
    """Bloom-style approximate set over variable keys, one int bitmask.

    ``add`` sets bit ``key % nbits`` in an arbitrary-precision int;
    ``__contains__`` tests it.  Collisions only ever *add* members, so
    the structure overapproximates: a negative answer is definitive
    (guaranteed no false negatives), a positive answer may be a false
    positive and must be confirmed by the exact lookup.
    """

    __slots__ = ("nbits", "bits")

    def __init__(self, nbits: int = DEFAULT_NBITS, bits: int = 0) -> None:
        if nbits <= 0:
            raise ValueError(f"nbits must be positive, got {nbits}")
        self.nbits = nbits
        self.bits = bits

    def add(self, key: int) -> None:
        self.bits |= 1 << (key % self.nbits)

    def __contains__(self, key: int) -> bool:
        return (self.bits >> (key % self.nbits)) & 1 == 1

    def __len__(self) -> int:
        """Number of set bits (<= number of distinct keys added)."""
        return bin(self.bits).count("1")

    def to_hex(self) -> str:
        return f"{self.bits:x}"

    @classmethod
    def from_hex(cls, nbits: int, text: str) -> "ApproximateVarSet":
        return cls(nbits, int(text or "0", 16))


class AdmissionFilter:
    """Per-workload admission decision for the ingestion edge.

    ``race_free`` holds ``(class_name, static_field)`` pairs the selected
    policy proved race-free; ``objmap`` maps object ids (from the
    deterministic recorded run) to class names.  Objects or classes the
    analyses never saw are admitted -- the sound default.

    Mutable counters (``prefilter_hits``/``prefilter_misses`` and the
    per-variable ``filtered_summary``) accumulate across calls; they are
    observability, not state the decision depends on, and are *not*
    serialized.
    """

    def __init__(
        self,
        race_free: Iterable[Tuple[str, str]],
        objmap: Dict[int, str],
        policy: str = "intersect",
        workload: str = "?",
        nbits: int = DEFAULT_NBITS,
        prefilter: Optional[ApproximateVarSet] = None,
    ) -> None:
        if policy not in POLICIES:
            raise ValueError(f"unknown admission policy {policy!r}; want one of {POLICIES}")
        self.race_free: Set[Tuple[str, str]] = set(race_free)
        self.objmap: Dict[int, str] = dict(objmap)
        self.policy = policy
        self.workload = workload
        self.prefilter = prefilter if prefilter is not None else self._build_prefilter(nbits)
        # observability counters (not serialized)
        self.prefilter_hits = 0     # pre-filter positive: exact lookup ran
        self.prefilter_misses = 0   # pre-filter negative: admitted on the mask test
        self.filtered_summary: Dict[str, int] = {}

    # -- construction ---------------------------------------------------

    def droppable_vars(self) -> Iterator[Tuple[int, str]]:
        """Every (obj_value, static_field) this filter may drop."""
        by_class: Dict[str, List[str]] = {}
        for cls, fld in self.race_free:
            by_class.setdefault(cls, []).append(fld)
        for obj_value, cls in self.objmap.items():
            for fld in by_class.get(cls, ()):
                yield obj_value, fld

    def _build_prefilter(self, nbits: int) -> ApproximateVarSet:
        pre = ApproximateVarSet(nbits)
        for obj_value, fld in self.droppable_vars():
            pre.add(var_key(obj_value, fld))
        return pre

    # -- the decision ---------------------------------------------------

    def admit(self, obj_value: int, field: str) -> bool:
        """True iff the access must be shipped; False iff provably race-free."""
        static_field = field_key(field)
        if var_key(obj_value, static_field) not in self.prefilter:
            self.prefilter_misses += 1
            return True
        self.prefilter_hits += 1
        cls = self.objmap.get(obj_value)
        if cls is None:
            return True
        return (cls, static_field) not in self.race_free

    def note_filtered(self, obj_value: int, field: str) -> None:
        """Fold one dropped access into the per-variable summary counter."""
        key = f"{obj_value}.{field_key(field)}"
        self.filtered_summary[key] = self.filtered_summary.get(key, 0) + 1

    def filter_events(self, events: Iterable) -> List:
        """Offline path: the events that survive admission.

        Data accesses to non-admitted variables are dropped (and folded
        into the summary); everything else -- sync, alloc, commit --
        passes untouched.
        """
        from ..core.actions import Read, Write

        kept = []
        for event in events:
            action = event.action
            if isinstance(action, (Read, Write)):
                var = action.var
                if not self.admit(var.obj.value, var.field):
                    self.note_filtered(var.obj.value, var.field)
                    continue
            kept.append(event)
        return kept

    # -- introspection --------------------------------------------------

    @property
    def filtered_accesses(self) -> int:
        return sum(self.filtered_summary.values())

    def describe(self) -> str:
        return (
            f"admit[{self.policy}] {self.workload}: "
            f"{len(self.race_free)} race-free fields x {len(self.objmap)} objects "
            f"-> {sum(1 for _ in self.droppable_vars())} droppable vars "
            f"({self.prefilter.nbits}-bit pre-filter, {len(self.prefilter)} bits set)"
        )

    def counters(self) -> Dict[str, int]:
        return {
            "prefilter_hits": self.prefilter_hits,
            "prefilter_misses": self.prefilter_misses,
            "filtered_accesses": self.filtered_accesses,
            "filtered_vars": len(self.filtered_summary),
        }

    # -- serialization --------------------------------------------------

    def to_json(self) -> str:
        payload = {
            "format": ADMISSION_FORMAT,
            "version": ADMISSION_VERSION,
            "workload": self.workload,
            "policy": self.policy,
            "race_free": sorted(list(pair) for pair in self.race_free),
            "objmap": {str(obj): cls for obj, cls in sorted(self.objmap.items())},
            "prefilter": {"nbits": self.prefilter.nbits, "bits": self.prefilter.to_hex()},
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
        if payload.get("version") != ADMISSION_VERSION:
            raise ValueError(f"unsupported admission filter version {payload.get('version')!r}")
        pre = payload.get("prefilter") or {}
        prefilter = ApproximateVarSet.from_hex(
            int(pre.get("nbits", DEFAULT_NBITS)), pre.get("bits", "0")
        )
        return cls(
            race_free={(cls_name, fld) for cls_name, fld in payload["race_free"]},
            objmap={int(obj): cls_name for obj, cls_name in payload["objmap"].items()},
            policy=payload["policy"],
            workload=payload.get("workload", "?"),
            prefilter=prefilter,
        )

    def clone(self) -> "AdmissionFilter":
        """A fresh filter with the same decision and zeroed counters."""
        return AdmissionFilter.from_json(self.to_json())


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
    nbits: int = DEFAULT_NBITS,
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
        nbits=nbits,
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
    parser.add_argument("--nbits", type=int, default=DEFAULT_NBITS)
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
        args.workload, policy=args.policy, scale=args.scale,
        nbits=args.nbits, objmap=objmap,
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
