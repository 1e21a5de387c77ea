"""Sound static race analyses over MiniLang (paper Section 5.2).

The paper pre-processes benchmarks with two existing static tools and skips
dynamic checks on whatever they prove race-free:

* **Chord** (Naik-Aiken-Whaley): outputs may-race *access pairs* (source
  line pairs), from which the runtime infers race-free fields.  Our
  :mod:`repro.analysis.chord` reproduces its recipe -- allocation-site
  points-to, thread-escape, must-held locksets, coarse fork/join ordering --
  and, like the original, does **not** understand volatile-based barrier
  synchronization (the moldyn/raytracer blind spot Table 1 hinges on).
* **RccJava** (Abadi-Flanagan-Freund): a type-and-annotation checker that
  outputs may-race *fields*.  Our :mod:`repro.analysis.rccjava` verifies
  ``//@ field C.f: ...`` annotations (``guarded_by``, ``thread_local``,
  ``atomic_only``, ``readonly``, ``barrier_owned``) and infers the common
  unannotated cases; its barrier rule is what rescues the barrier
  benchmarks.

Both emit a :class:`~repro.analysis.facts.StaticRaceReport`, convertible to
the runtime's check filter via
:func:`~repro.analysis.facts.StaticRaceReport.to_filter`.
"""

from .facts import AccessPair, StaticRaceReport
from .model import AnalysisModel
from .chord import run_chord
from .rccjava import run_rccjava

#: admission-control names re-exported lazily (PEP 562): importing them
#: here eagerly would shadow ``python -m repro.analysis.admission``
_ADMISSION_NAMES = (
    "AdmissionFilter",
    "build_admission_filter",
    "combine_race_free",
    "load_admission_filter",
)


def __getattr__(name):
    if name in _ADMISSION_NAMES:
        from . import admission

        return getattr(admission, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "AccessPair",
    "AdmissionFilter",
    "AnalysisModel",
    "StaticRaceReport",
    "build_admission_filter",
    "combine_race_free",
    "load_admission_filter",
    "run_chord",
    "run_rccjava",
]
