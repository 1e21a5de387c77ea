"""The production kernel and the one-kernel engine against the definitions.

Every service and cluster path runs :class:`EncodedGoldilocks`, so it is
checked here against :mod:`repro.oracle` directly, not against another
detector: the first race per variable must be the oracle's first racy
access, over the seeded fuzzer's default and wild mixes (as in
``test_theorem1.py``), through

* the kernel's object path, :meth:`EncodedGoldilocks.process`;
* its packed path, :meth:`EventEncoder.encode_line` then
  :meth:`EncodedGoldilocks.apply_packed`;
* a 4-group :class:`ShardedEngine` fed text lines, one of whose groups is
  handed over at a drawn cut: exported and retired on the engine, then
  adopted by a second engine that hosts nothing and was fed the same
  lines.  Both take the rest of the trace, and their race lines together
  must equal a single engine's, ``seq`` and order included.

The traces carry commits, whose footprints reach a process whatever groups
it hosts: the hand-off is the case where a footprint variable's owner
changes under the kernel.
"""

from array import array

from hypothesis import given, settings, strategies as st

from repro.core import EncodedGoldilocks
from repro.core.encode import EventEncoder, encode_frame
from repro.server.engine import EngineConfig, ShardedEngine, shard_of
from repro.server.protocol import format_race
from repro.trace import RandomTraceGenerator
from repro.trace.io import format_event

from tests.helpers import detector_first_races, oracle_first_races

MIXES = {
    "default": RandomTraceGenerator(),
    "wild": RandomTraceGenerator(max_threads=6, steps_per_thread=20, p_discipline=0.3),
}
N_GROUPS = 4

mixes = st.sampled_from(sorted(MIXES))
seeds = st.integers(min_value=0, max_value=10**9)


def first_by_seq(reports):
    """var -> seq of the access completing its first race."""
    firsts = {}
    for seq, report in reports:
        firsts.setdefault(report.var, seq)
    return firsts


@settings(max_examples=60, deadline=None)
@given(mix=mixes, seed=seeds)
def test_kernel_object_path_matches_the_oracle(mix, seed):
    events = MIXES[mix].generate(seed)
    got = detector_first_races(EncodedGoldilocks(), events)
    assert got == oracle_first_races(events), f"{mix} seed {seed}"


@settings(max_examples=60, deadline=None)
@given(mix=mixes, seed=seeds, per_frame=st.integers(min_value=1, max_value=40))
def test_kernel_packed_path_matches_the_oracle(mix, seed, per_frame):
    events = MIXES[mix].generate(seed)
    encoder = EventEncoder()
    kernel = EncodedGoldilocks()
    reports = []
    cursor = 1
    for start in range(0, len(events), per_frame):
        records, extras = array("q"), array("q")
        for seq in range(start, min(start + per_frame, len(events))):
            op, tid, index, a, b, ex = encoder.encode_line(format_event(events[seq]))
            if ex is not None:
                a = len(extras)
                extras.extend(ex)
            records.extend((op, seq, tid, index, a, b))
        frame = encode_frame(cursor, encoder.interner.elements_since(cursor), records, extras)
        cursor = len(encoder.interner)
        reports.extend(kernel.apply_packed(frame)[0])
    assert first_by_seq(reports) == oracle_first_races(events), f"{mix} seed {seed}"


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

    with ShardedEngine(EngineConfig(n_shards=N_GROUPS, batch_size=8)) as single:
        for line in lines:
            single.submit_line(line)
        expected = single.barrier()
    assert first_by_seq(expected) == oracle_first_races(events), f"{mix} seed {seed}"

    source = ShardedEngine(EngineConfig(n_shards=N_GROUPS, batch_size=8))
    target = ShardedEngine(EngineConfig(n_shards=N_GROUPS, batch_size=8, groups=()))
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
