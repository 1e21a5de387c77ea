"""The benchmark-owned generators are deterministic per seed."""

import pytest

from perf import gen


@pytest.mark.parametrize(
    "make", [lambda s: gen.service_mix(s, 20_000), lambda s: gen.pipeline(s, 300)]
)
def test_one_seed_gives_byte_identical_traces(make):
    assert "\n".join(make(7)).encode() == "\n".join(make(7)).encode()


@pytest.mark.parametrize(
    "make", [lambda s: gen.service_mix(s, 20_000), lambda s: gen.pipeline(s, 300)]
)
def test_seeds_differ_with_event_counts_within_two_percent(make):
    traces = [make(seed) for seed in (1, 2, 3)]
    assert len({"\n".join(t) for t in traces}) == 3
    counts = [len(t) for t in traces]
    assert max(counts) <= 1.02 * min(counts)


def test_traces_parse_and_service_mix_races_about_two_percent():
    from repro.core import LazyGoldilocks
    from repro.trace.io import parse_event

    lines = gen.service_mix(1, 20_000)
    races = LazyGoldilocks(gc_threshold=None).process_all(parse_event(l) for l in lines)
    assert 0.01 < len(races) / len(lines) < 0.03
    assert all(parse_event(line) for line in gen.pipeline(1, 50))
