"""Tests for the repro-race command-line interface."""

import pytest

from repro.cli import main
from repro.core import Obj, Tid
from repro.trace import TraceBuilder, dump_trace


@pytest.fixture()
def racy_trace(tmp_path):
    tb = TraceBuilder()
    tb.write(Tid(1), Obj(1), "data")
    tb.write(Tid(2), Obj(1), "data")
    path = str(tmp_path / "racy.txt")
    dump_trace(tb.build(), path)
    return path


@pytest.fixture()
def clean_trace(tmp_path):
    tb = TraceBuilder()
    m = Obj(9)
    tb.acq(Tid(1), m).write(Tid(1), Obj(1), "data").rel(Tid(1), m)
    tb.acq(Tid(2), m).write(Tid(2), Obj(1), "data").rel(Tid(2), m)
    path = str(tmp_path / "clean.txt")
    dump_trace(tb.build(), path)
    return path


def test_analyze_reports_race_and_exits_nonzero(racy_trace, capsys):
    assert main(["analyze", racy_trace]) == 1
    out = capsys.readouterr().out
    assert "1 race(s)" in out
    assert "o1.data" in out


def test_analyze_clean_trace_exits_zero(clean_trace, capsys):
    assert main(["analyze", clean_trace]) == 0
    assert "0 race(s)" in capsys.readouterr().out


def test_analyze_multiple_detectors_with_stats(racy_trace, capsys):
    code = main(
        ["analyze", racy_trace, "--detector", "goldilocks",
         "--detector", "vectorclock", "--stats"]
    )
    assert code == 1
    out = capsys.readouterr().out
    assert "[goldilocks]" in out
    assert "[vectorclock]" in out
    assert "accesses_checked" in out


def test_oracle_command(racy_trace, clean_trace, capsys):
    assert main(["oracle", racy_trace]) == 1
    assert "unordered" in capsys.readouterr().out
    assert main(["oracle", clean_trace]) == 0


def test_fuzz_roundtrips_through_analyze(tmp_path, capsys):
    out_path = str(tmp_path / "fuzzed.txt")
    assert main(["fuzz", "--seed", "5", "--out", out_path]) == 0
    code = main(["analyze", out_path])
    assert code in (0, 1)
    # detector verdict agrees with the oracle verdict
    capsys.readouterr()
    oracle_code = main(["oracle", out_path])
    assert (code == 1) == (oracle_code == 1)


def test_fuzz_to_stdout(capsys):
    assert main(["fuzz", "--seed", "1", "--steps", "4"]) == 0
    out = capsys.readouterr().out
    assert "alloc" in out


def test_explain_prints_lockset_evolution(clean_trace, capsys):
    assert main(["explain", clean_trace, "--var", "1.data"]) == 0
    out = capsys.readouterr().out
    assert "LS(o1.data)" in out
    assert "T1" in out


def test_shrink_command_minimizes_a_racy_trace(tmp_path, capsys):
    from repro.trace import RandomTraceGenerator
    from repro.trace.io import dump_trace as dump

    # Find a seed whose trace races, write it out, shrink it.
    gen = RandomTraceGenerator(p_discipline=0.2)
    from repro.core import LazyGoldilocks as LG

    for seed in range(50):
        events = gen.generate(seed)
        if LG().process_all(events):
            break
    else:
        pytest.skip("no racy seed in range")
    path = str(tmp_path / "racy.txt")
    dump(events, path)
    out_path = str(tmp_path / "minimal.txt")
    assert main(["shrink", path, "--out", out_path]) == 0
    text = capsys.readouterr().out
    assert "shrunk" in text
    from repro.trace import load_trace as load

    minimal = load(out_path)
    assert len(minimal) <= len(events)
    assert LG().process_all(minimal), "the shrunken trace still races"


def test_shrink_on_clean_trace_reports_nothing(clean_trace, capsys):
    assert main(["shrink", clean_trace]) == 1
    assert "no race" in capsys.readouterr().out


def test_commit_sync_flag_changes_the_verdict(tmp_path, capsys):
    from repro.core.actions import DataVar

    tb = TraceBuilder()
    o = Obj(1)
    tb.write(Tid(1), o, "data")
    tb.commit(Tid(1), writes=[DataVar(Obj(2), "p")])
    tb.commit(Tid(2), writes=[DataVar(Obj(3), "q")])
    tb.write(Tid(2), o, "data")
    path = str(tmp_path / "txn.txt")
    dump_trace(tb.build(), path)

    assert main(["analyze", path]) == 1                      # footprint: race
    assert main(["--commit-sync", "atomic-order", "analyze", path]) == 0


# -- reading the trace from stdin ----------------------------------------------


def pipe_stdin(monkeypatch, path):
    import io

    with open(path) as handle:
        monkeypatch.setattr("sys.stdin", io.StringIO(handle.read()))


def test_analyze_reads_trace_from_stdin(racy_trace, monkeypatch, capsys):
    pipe_stdin(monkeypatch, racy_trace)
    assert main(["analyze", "-"]) == 1
    assert "o1.data" in capsys.readouterr().out


def test_analyze_stdin_clean_trace(clean_trace, monkeypatch, capsys):
    pipe_stdin(monkeypatch, clean_trace)
    assert main(["analyze", "-"]) == 0


def test_oracle_reads_from_stdin(racy_trace, monkeypatch, capsys):
    pipe_stdin(monkeypatch, racy_trace)
    assert main(["oracle", "-"]) == 1


def test_explain_reads_from_stdin(clean_trace, monkeypatch, capsys):
    pipe_stdin(monkeypatch, clean_trace)
    assert main(["explain", "-", "--var", "1.data"]) == 0
    assert capsys.readouterr().out


def test_analyze_gz_trace_path(tmp_path, capsys):
    from repro.core import Obj, Tid
    from repro.trace import TraceBuilder, dump_trace

    tb = TraceBuilder()
    tb.write(Tid(1), Obj(1), "data")
    tb.write(Tid(2), Obj(1), "data")
    path = str(tmp_path / "racy.trace.gz")
    dump_trace(tb.build(), path)
    assert main(["analyze", path]) == 1


def test_cli_start_up_imports_no_numpy():
    """Both command-line entry points start without loading numpy or
    multiprocessing: the detector is pure Python, numpy alone costs ~0.1 s
    per start-up, and every shard runs in the service process."""
    import os
    import subprocess
    import sys

    import repro

    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    probe = (
        "import sys, repro.cli, repro.server.cli; "
        "sys.exit(' '.join({'numpy', 'multiprocessing'} & set(sys.modules)) or None)"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, timeout=60,
        capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr


def test_serve_commit_sync_offers_only_detector_policies(capsys):
    """``writes`` is an oracle-only interpretation: repro-serve must refuse
    it as a usage error (exit 2), not die in the kernel with exit 1."""
    from repro.server.cli import main as serve_main

    with pytest.raises(SystemExit) as excinfo:
        serve_main(["--commit-sync", "writes"])
    assert excinfo.value.code == 2
    assert "invalid choice: 'writes'" in capsys.readouterr().err


def test_serve_help_lists_no_retired_shard_options(capsys):
    from repro.server.cli import main as serve_main

    with pytest.raises(SystemExit) as excinfo:
        serve_main(["--help"])
    assert excinfo.value.code == 0
    usage = capsys.readouterr().out
    for retired in ("--workers", "--transport", "--queue-depth"):
        assert retired not in usage
