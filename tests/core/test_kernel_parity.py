"""Verdict parity: the encoded kernel against the seed detectors.

The integer kernel's acceptance contract is *identical* reports -- same
variables, same access pairs, same order, same detector name -- on every
trace in the repo.  Counters may (and should) differ; verdicts never.
"""

import pytest

from repro.core import EncodedGoldilocks, LazyGoldilocks
from repro.trace import RandomTraceGenerator, TraceRecorder
from repro.workloads import run_ftpserver

from .test_paper_figures import build_figure6_trace, build_figure7_trace


def random_trace(seed, discipline=0.5):
    return RandomTraceGenerator(
        max_threads=6,
        steps_per_thread=120,
        p_discipline=discipline,
        n_objects=6,
        n_fields=3,
    ).generate(seed=seed)


def ftpserver_trace(seed):
    recorder = TraceRecorder()
    run_ftpserver(recorder, seed=seed)
    return recorder.events


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("commit_sync", ["footprint", "atomic-order"])
def test_kernel_matches_seed_lazy_on_random_traces(seed, commit_sync):
    events = random_trace(seed, discipline=0.3 + 0.08 * seed)
    expected = LazyGoldilocks(commit_sync=commit_sync).process_all(events)
    got = EncodedGoldilocks(commit_sync=commit_sync).process_all(events)
    assert got == expected  # full RaceReport equality, name included


@pytest.mark.parametrize(
    "builder", [build_figure6_trace, build_figure7_trace], ids=["figure6", "figure7"]
)
def test_kernel_agrees_on_the_paper_figures(builder):
    events = builder()[0]
    assert EncodedGoldilocks().process_all(events) == []


@pytest.mark.parametrize("seed", range(4))
def test_kernel_matches_seed_on_recorded_ftpserver_runs(seed):
    events = ftpserver_trace(seed)
    expected = LazyGoldilocks().process_all(events)
    assert EncodedGoldilocks().process_all(events) == expected


def test_parity_holds_under_ablations_and_gc():
    """Aggressive GC on small segments must still reproduce the seed
    verdicts, and so must the reference with its short circuits and
    memoization switched off."""
    events = random_trace(3, discipline=0.35)
    expected = LazyGoldilocks().process_all(events)
    assert any(expected), "trace has no races; parity here would prove nothing"
    ablated = LazyGoldilocks(
        sc_xact=False,
        sc_same_thread=False,
        sc_alock=False,
        sc_thread_restricted=False,
        memoize=False,
    )
    assert ablated.process_all(events) == expected
    kernel = EncodedGoldilocks(gc_threshold=30, trim_fraction=0.5, segment_size=16)
    assert kernel.process_all(events) == expected
    assert kernel.stats.cells_collected > 0, "GC never ran; weak test"


def test_kernel_counters_actually_move():
    # Guard against parity-by-dead-code: the new rungs must fire somewhere
    # on a busy trace.
    detector = EncodedGoldilocks()
    detector.process_all(random_trace(5))
    assert detector.stats.sc_epoch > 0
    assert detector.stats.hb_queries > 0
