"""The correctness checks reject doctored output, lost events and crashes."""

import json

import pytest

from perf import __main__ as cli
from perf import analyze, gen, serve, spec
from perf.outcome import Outcome
from perf.reference import analyze_rendering, trace_races


@pytest.fixture(scope="module")
def reference():
    lines = gen.service_mix(3, 5_000)
    races = trace_races("service-mix", 3, lines, use_cache=False)
    assert races
    return lines, races


def test_the_reference_is_accepted(reference):
    lines, races = reference
    assert serve.check(list(races), races, len(lines), len(lines), 0) == (True, 0)


def test_a_doctored_race_line_is_rejected(reference):
    lines, races = reference
    doctored = list(races)
    head, _, seq = doctored[0].rpartition("seq=")
    doctored[0] = f"{head}seq={int(seq) + 1}"
    correct, _failed = serve.check(sorted(doctored), races, len(lines), len(lines), 0)
    assert not correct


def test_a_dropped_event_is_rejected_and_counted(reference):
    lines, races = reference
    assert serve.check(list(races), races, len(lines) - 1, len(lines), 0) == (False, 1)


def test_an_error_line_is_a_failed_operation(reference):
    lines, races = reference
    assert serve.check(list(races), races, len(lines), len(lines), 2) == (False, 2)


def test_analyze_rendering_matches_the_cli_format(reference):
    _lines, races = reference
    rendered = analyze_rendering(races)
    assert len(rendered) == len(races)
    assert all(line.startswith("data race on ") for line in rendered)


def test_a_crashed_system_under_test_fails_the_run(monkeypatch):
    crash = ["-c", "import os; os.abort()"]
    monkeypatch.setattr(analyze, "_analyze_argv", lambda path: analyze.python_argv(*crash))
    outcome = analyze.run(seed=1, seconds=12, trace=False, smoke=True, use_cache=True)
    assert not outcome.correct
    assert outcome.failed >= 1


def test_an_incorrect_run_exits_nonzero(monkeypatch, capsys):
    names = [m["name"] for m in spec.load()["end_to_end"]]
    fake = Outcome(metrics={n: 1.0 for n in names}, layers={}, attempted=10,
                   failed=0, correct=False)
    monkeypatch.setattr(cli, "_runner", lambda name: lambda **kw: fake)
    assert cli.main(["run", "--workload", "serve-text"]) == 1
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert result["correct"] is False
