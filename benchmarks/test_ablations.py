"""Ablations of the paper's design choices (DESIGN.md section 4).

All detector-cost ablations replay *recorded* event streams, so every
configuration processes the identical linearization and differences are
pure detector work:

* short-circuit checks on/off (Section 5.1);
* lockset memoization / event-list GC with partially-eager evaluation
  (Section 5.4);
* transaction-aware vs transaction-oblivious checking of the Multiset
  (Section 6.1's ">10x" remark);
* Goldilocks vs Eraser vs vector clocks vs FastTrack on the same trace.
"""

import pytest

from repro.baselines import (
    EraserDetector,
    FastTrackDetector,
    RaceTrackDetector,
    TransactionObliviousAdapter,
    VectorClockDetector,
)
from repro.bench.harness import run_workload
from repro.core import EagerGoldilocksRW, EncodedGoldilocks, LazyGoldilocks
from repro.trace import RandomTraceGenerator, TraceRecorder
from repro.workloads import get, table3_args


def record_workload(name, scale="tiny", main_args=None):
    recorder = TraceRecorder()
    run_workload(get(name), scale, detector=recorder, main_args=main_args)
    return recorder.events


MOLDYN_EVENTS = record_workload("moldyn")
MULTISET_EVENTS = record_workload("multiset", main_args=table3_args(10))
RANDOM_EVENTS = RandomTraceGenerator(
    max_threads=6, steps_per_thread=120, p_discipline=0.8
).generate(seed=42)


# ---------------------------------------------------------------------------
# Short circuits (Section 5.1)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
def test_ablation_short_circuits(benchmark, enabled):
    benchmark.group = "ablation:short-circuits"

    def replay():
        detector = LazyGoldilocks(
            sc_xact=enabled,
            sc_same_thread=enabled,
            sc_alock=enabled,
            sc_thread_restricted=enabled,
        )
        detector.process_all(MOLDYN_EVENTS)
        return detector

    detector = benchmark(replay)
    if enabled:
        assert detector.stats.short_circuit_hits > 0
    else:
        # Every happens-before query now pays a full lockset computation.
        assert detector.stats.sc_same_thread == 0
        assert detector.stats.sc_alock == 0
    benchmark.extra_info["full_computations"] = detector.stats.full_lockset_computations
    benchmark.extra_info["cells_traversed"] = detector.stats.cells_traversed


def test_short_circuits_cut_full_computations():
    on = LazyGoldilocks()
    on.process_all(MOLDYN_EVENTS)
    off = LazyGoldilocks(
        sc_xact=False, sc_same_thread=False, sc_alock=False, sc_thread_restricted=False
    )
    off.process_all(MOLDYN_EVENTS)
    assert on.stats.full_lockset_computations < off.stats.full_lockset_computations
    assert on.stats.detector_work < off.stats.detector_work


# ---------------------------------------------------------------------------
# Memoization and event-list GC (Section 5.4)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("memoize", [True, False], ids=["memoized", "fully-lazy"])
def test_ablation_memoization(benchmark, memoize):
    benchmark.group = "ablation:memoization"

    def replay():
        detector = LazyGoldilocks(memoize=memoize)
        detector.process_all(RANDOM_EVENTS)
        return detector

    detector = benchmark(replay)
    benchmark.extra_info["cells_traversed"] = detector.stats.cells_traversed


@pytest.mark.parametrize(
    "threshold", [None, 10_000, 200], ids=["gc-off", "gc-10k", "gc-200"]
)
def test_ablation_event_list_gc(benchmark, threshold):
    benchmark.group = "ablation:event-list-gc"

    def replay():
        detector = LazyGoldilocks(gc_threshold=threshold)
        detector.process_all(MULTISET_EVENTS)
        return detector

    detector = benchmark(replay)
    benchmark.extra_info["peak_list_len"] = len(detector.events)
    benchmark.extra_info["cells_collected"] = detector.stats.cells_collected
    if threshold == 200:
        # Aggressive collection must actually bound the resident list.
        assert len(detector.events) <= max(
            400, detector.events.total_enqueued // 2
        )


def test_gc_bounds_memory_without_changing_reports():
    unbounded = LazyGoldilocks(gc_threshold=None)
    r1 = unbounded.process_all(MULTISET_EVENTS)
    bounded = LazyGoldilocks(gc_threshold=200)
    r2 = bounded.process_all(MULTISET_EVENTS)
    assert [str(r) for r in r1] == [str(r) for r in r2]
    assert len(bounded.events) < len(unbounded.events)


# ---------------------------------------------------------------------------
# Transaction-aware vs oblivious (Section 6.1)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("aware", [True, False], ids=["txn-aware", "txn-oblivious"])
def test_ablation_transaction_awareness(benchmark, aware):
    benchmark.group = "ablation:transactions"

    def replay():
        if aware:
            detector = LazyGoldilocks()
        else:
            detector = TransactionObliviousAdapter(LazyGoldilocks())
        reports = detector.process_all(MULTISET_EVENTS)
        return detector, reports

    detector, reports = benchmark(replay)
    assert reports == []  # the Multiset is race-free either way
    benchmark.extra_info["detector_work"] = detector.stats.detector_work


def test_transaction_awareness_reduces_detector_work():
    """The Section 6.1 claim on deterministic counters."""
    aware = LazyGoldilocks()
    aware.process_all(MULTISET_EVENTS)
    oblivious = TransactionObliviousAdapter(LazyGoldilocks())
    oblivious.process_all(MULTISET_EVENTS)
    assert aware.stats.detector_work < oblivious.stats.detector_work
    assert aware.stats.sync_events < oblivious.stats.sync_events


# ---------------------------------------------------------------------------
# Library instrumentation (the Table 1 note: "for these experiments,
# instrumenting libraries at most doubles overhead")
# ---------------------------------------------------------------------------


def _semaphore_program():
    """A program whose shared traffic is dominated by 'library' internals."""
    from repro.runtime.concurrent import Semaphore

    def worker(th, sem, shared, rounds):
        for _ in range(rounds):
            yield from sem.acquire(th)
            value = yield th.read(shared, "n")
            yield th.write(shared, "n", value + 1)
            yield from sem.release(th)

    def main(th):
        shared = yield th.new("Counter", n=0)
        handles = []
        for _ in range(4):
            handles.append((yield th.fork(worker, SEM[0], shared, 15)))
        for handle in handles:
            yield th.join(handle)
        return 0

    SEM = []

    def build(detector, check_filter=None):
        from repro.runtime import Runtime, StridedScheduler

        runtime = Runtime(
            detector=detector,
            scheduler=StridedScheduler(stride=6),
            check_filter=check_filter,
            race_policy="disable",
        )
        SEM.clear()
        SEM.append(Semaphore(runtime, permits=1))
        runtime.spawn_main(main)
        return runtime

    return build


class _SkipLibraryClasses:
    """A filter excluding the j.u.c.-style utilities' internal fields,

    mirroring the paper's uninstrumented-libraries configuration.  Sound
    here because the utilities are verified separately (their tests) --
    the same argument the paper makes for trusting library internals."""

    LIBRARY_CLASSES = frozenset({"Semaphore", "CountDownLatch", "ReadWriteLock"})

    def should_check(self, class_name, field):
        return class_name not in self.LIBRARY_CLASSES

    def describe(self):
        return "library internals uninstrumented"


@pytest.mark.parametrize("instrument_libraries", [True, False], ids=["libs-on", "libs-off"])
def test_ablation_library_instrumentation(benchmark, instrument_libraries):
    benchmark.group = "ablation:library-instrumentation"
    build = _semaphore_program()
    check_filter = None if instrument_libraries else _SkipLibraryClasses()

    def run():
        runtime = build(LazyGoldilocks(), check_filter)
        return runtime.run(), runtime

    (result, runtime) = benchmark(run)
    assert result.races == []
    benchmark.extra_info["accesses_checked"] = result.counts.accesses_checked


def test_library_instrumentation_roughly_doubles_checked_accesses():
    """The paper's note, on counters: library internals account for a large

    share of checked accesses in utility-heavy code."""
    build = _semaphore_program()
    on_runtime = build(LazyGoldilocks())
    on = on_runtime.run()
    off_runtime = build(LazyGoldilocks(), _SkipLibraryClasses())
    off = off_runtime.run()
    assert on.races == off.races == []
    assert on.counts.accesses_checked >= 1.5 * off.counts.accesses_checked
    # Turning library checks off must not change user-data verdicts.
    assert off.counts.accesses_checked > 0


# ---------------------------------------------------------------------------
# Detector shoot-out (Sections 4.1 and 7)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "detector_cls",
    [LazyGoldilocks, EagerGoldilocksRW, VectorClockDetector, FastTrackDetector, EraserDetector, RaceTrackDetector],
    ids=lambda c: c.__name__,
)
def test_ablation_detector_costs(benchmark, detector_cls):
    benchmark.group = "ablation:detectors"

    def replay():
        detector = detector_cls()
        detector.process_all(RANDOM_EVENTS)
        return detector

    detector = benchmark(replay)
    benchmark.extra_info["rule_applications"] = detector.stats.rule_applications


def test_lazy_goldilocks_beats_eager_on_detector_work():
    # The seed lazy detector's linked-list traversal walks (and now honestly
    # counts) every cell in a thread-restricted replay, so on this small
    # trace its counted work only beats the eager detector's *total* work.
    # The encoded kernel, whose key index touches only the cells whose
    # rule can fire, beats even the eager detector's bare rule count.
    lazy = LazyGoldilocks()
    lazy.process_all(RANDOM_EVENTS)
    eager = EagerGoldilocksRW()
    eager.process_all(RANDOM_EVENTS)
    assert lazy.stats.detector_work < eager.stats.detector_work
    kernel = EncodedGoldilocks()
    kernel.process_all(RANDOM_EVENTS)
    assert kernel.stats.detector_work < eager.stats.rule_applications
