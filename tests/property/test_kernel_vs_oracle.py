"""The production kernel and the one-kernel engine against the definitions.

Every service and cluster path runs :class:`EncodedGoldilocks`, so it is
checked here against :mod:`repro.oracle` directly, not against another
detector: the first race per variable must be the oracle's first racy
access, over the seeded fuzzer's default and wild mixes (as in
``test_theorem1.py``), through

* the kernel's object path, :meth:`EncodedGoldilocks.process`;
* its packed paths: the text encoded by :func:`repro.trace.io.iter_records`
  (:meth:`EventEncoder.encode_line`), then applied as wire frames
  (:meth:`EncodedGoldilocks.apply_packed`, the service's path) or as the
  record arrays themselves (:meth:`EncodedGoldilocks.apply_records` on
  the encoder's id space, ``repro-race analyze``'s path);
* both of these at a drawn GC setting: the default threshold, which these
  traces never reach, or a small ``(gc_threshold, segment_size)`` pair
  under which the kernel collects its list and partially-eagerly advances
  its infos as the trace runs;
* a 4-group :class:`ShardedEngine` fed text lines, one of whose groups is
  handed over at a drawn cut: exported and retired on the engine, then
  adopted by a second engine that hosts nothing and was fed the same
  lines.  Both take the rest of the trace, and their race lines together
  must equal a single engine's, ``seq`` and order included.

The traces carry commits, whose footprints reach a process whatever groups
it hosts: the hand-off is the case where a footprint variable's owner
changes under the kernel.
"""

from hypothesis import given, settings, strategies as st

from repro.core import EncodedGoldilocks
from repro.core.encode import EventEncoder
from repro.server.engine import EngineConfig, ShardedEngine, shard_of
from repro.server.protocol import format_race
from repro.trace import RandomTraceGenerator
from repro.trace.io import format_event, iter_packed_frames, iter_records

from tests.helpers import detector_first_races, oracle_first_races

MIXES = {
    "default": RandomTraceGenerator(),
    "wild": RandomTraceGenerator(max_threads=6, steps_per_thread=20, p_discipline=0.3),
}
N_GROUPS = 4

mixes = st.sampled_from(sorted(MIXES))
seeds = st.integers(min_value=0, max_value=10**9)
#: the kernel's GC settings: its defaults, or a small threshold and segment
gc_settings = st.sampled_from(
    [{}]
    + [
        {"gc_threshold": threshold, "segment_size": size}
        for threshold, size in ((2, 1), (4, 2), (8, 4))
    ]
)


def first_by_seq(reports):
    """var -> seq of the access completing its first race."""
    firsts = {}
    for seq, report in reports:
        firsts.setdefault(report.var, seq)
    return firsts


@settings(max_examples=60, deadline=None)
@given(mix=mixes, seed=seeds, gc=gc_settings)
def test_kernel_object_path_matches_the_oracle(mix, seed, gc):
    events = MIXES[mix].generate(seed)
    got = detector_first_races(EncodedGoldilocks(**gc), events)
    assert got == oracle_first_races(events), f"{mix} seed {seed} {gc}"


@settings(max_examples=60, deadline=None)
@given(
    mix=mixes,
    seed=seeds,
    per_frame=st.integers(min_value=1, max_value=40),
    gc=gc_settings,
    framed=st.booleans(),
)
def test_kernel_packed_path_matches_the_oracle(mix, seed, per_frame, gc, framed):
    events = MIXES[mix].generate(seed)
    lines = [format_event(event) for event in events]
    kernel = EncodedGoldilocks(**gc)
    reports = []
    if framed:
        for frame in iter_packed_frames(lines, per_frame):
            reports.extend(kernel.apply_packed(frame)[0])
    else:
        encoder = EventEncoder()
        kernel.interner = encoder.interner
        for records, extras in iter_records(lines, encoder, per_frame):
            reports.extend(kernel.apply_records(records, extras)[0])
    # the records' seq column is the event's index in the trace
    assert first_by_seq(reports) == oracle_first_races(events), f"{mix} seed {seed} {gc}"


def race_lines(reports):
    """Race lines in the order one engine's barrier gives them."""
    ordered = sorted(reports, key=lambda pair: (pair[0], shard_of(pair[1].var, N_GROUPS)))
    return [format_race(seq, report) for seq, report in ordered]


@settings(max_examples=40, deadline=None)
@given(mix=mixes, seed=seeds, data=st.data())
def test_a_group_handed_over_mid_stream_keeps_the_race_lines(mix, seed, data):
    events = MIXES[mix].generate(seed)
    lines = [format_event(event) for event in events]
    cut = data.draw(st.integers(min_value=0, max_value=len(lines)), label="cut")
    group = data.draw(st.integers(min_value=0, max_value=N_GROUPS - 1), label="group")

    with ShardedEngine(EngineConfig(n_shards=N_GROUPS)) as single:
        for line in lines:
            single.submit_line(line)
        expected = single.barrier()
    assert first_by_seq(expected) == oracle_first_races(events), f"{mix} seed {seed}"

    source = ShardedEngine(EngineConfig(n_shards=N_GROUPS))
    target = ShardedEngine(EngineConfig(n_shards=N_GROUPS, groups=()))
    with source, target:
        for line in lines[:cut]:
            source.submit_line(line)
            target.submit_line(line)
        got = source.barrier() + target.barrier()
        blob = source.export_group(group)
        source.retire_group(group)
        target.adopt_group(group, blob)
        for line in lines[cut:]:
            source.submit_line(line)
            target.submit_line(line)
        got += source.barrier() + target.barrier()
    assert race_lines(got) == race_lines(expected), f"{mix} seed {seed} cut {cut}"
    assert first_by_seq(got) == oracle_first_races(events)
