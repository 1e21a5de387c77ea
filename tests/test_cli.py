"""Tests for the repro-race command-line interface."""

import io

import pytest

from repro.baselines import EraserDetector
from repro.cli import main
from repro.core import EncodedGoldilocks, LazyGoldilocks, Obj, Tid
from repro.trace import RandomTraceGenerator, TraceBuilder, dump_trace, load_trace

from tests.helpers import service_trace_text


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


# -- analyze through the encoder: what the object path printed -----------------
#
# The default detector reads packed records through the service's encoder;
# its output must equal what ``analyze`` printed when every detector took
# ``Event`` objects: the detector's ``process_all`` over ``load_trace``.

OBJECT_PATH = {
    "goldilocks": EncodedGoldilocks,
    "goldilocks-seed": LazyGoldilocks,
    "eraser": EraserDetector,
}


def object_path_output(events, names=("goldilocks",), commit_sync="footprint"):
    """``(stdout, exit status)`` of the object path over ``events``."""
    out, status = [], 0
    for name in names:
        factory = OBJECT_PATH[name]
        if name.startswith("goldilocks"):
            detector = factory(commit_sync=commit_sync)
        else:
            detector = factory()
        reports = detector.process_all(events)
        out.append(f"[{name}] {len(reports)} race(s) over {len(events)} events")
        out.extend(f"  {report}" for report in reports)
        out.extend(f"    {k}: {v}" for k, v in detector.stats.as_dict().items() if v)
        status = status or int(bool(reports))
    return "".join(line + "\n" for line in out), status


FUZZ_MIXES = {
    "default": RandomTraceGenerator(),
    "wild": RandomTraceGenerator(max_threads=6, steps_per_thread=20, p_discipline=0.3),
}


@pytest.mark.parametrize("commit_sync", ["footprint", "atomic-order"])
@pytest.mark.parametrize("mix", sorted(FUZZ_MIXES))
def test_analyze_prints_what_the_object_path_printed(tmp_path, capsys, mix, commit_sync):
    path = str(tmp_path / "fuzzed.trace")
    for seed in range(15):
        dump_trace(FUZZ_MIXES[mix].generate(seed), path)
        want = object_path_output(load_trace(path), commit_sync=commit_sync)
        code = main(["--commit-sync", commit_sync, "analyze", path, "--stats"])
        assert (capsys.readouterr().out, code) == want, f"{mix} seed {seed}"


@pytest.mark.parametrize("source", ["file", "gz", "stdin"])
def test_analyze_the_service_trace_from_any_source(tmp_path, monkeypatch, capsys, source):
    text = service_trace_text()
    want = object_path_output(load_trace(io.StringIO(text)))
    assert want[1] == 1 and "cells_traversed" in want[0]
    if source == "stdin":
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        arg = "-"
    else:
        arg = str(tmp_path / ("service.trace.gz" if source == "gz" else "service.trace"))
        dump_trace(load_trace(io.StringIO(text)), arg)
    code = main(["analyze", arg, "--stats"])
    assert (capsys.readouterr().out, code) == want


def test_several_detectors_read_stdin_once(monkeypatch, capsys):
    text = service_trace_text()
    names = ["goldilocks", "goldilocks-seed", "eraser"]
    want = object_path_output(load_trace(io.StringIO(text)), names)
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    argv = ["analyze", "-", "--stats"]
    for name in names:
        argv += ["--detector", name]
    code = main(argv)
    assert (capsys.readouterr().out, code) == want


@pytest.fixture(scope="module")
def colt_admission(tmp_path_factory):
    """A recorded colt trace and the admission filter built for it."""
    from repro.analysis.admission import build_admission_filter, record_workload

    events, objmap = record_workload("colt", scale="tiny")
    directory = tmp_path_factory.mktemp("colt")
    trace, filter_path = str(directory / "colt.trace"), str(directory / "colt.json")
    dump_trace(events, trace)
    with open(filter_path, "w", encoding="utf-8") as handle:
        handle.write(build_admission_filter("colt", objmap=objmap).to_json())
    return trace, filter_path


@pytest.mark.parametrize(
    "names",
    [["goldilocks"], ["goldilocks", "eraser"], ["eraser", "goldilocks"]],
    ids="+".join,
)
def test_analyze_admit_drops_what_the_filter_proves(colt_admission, capsys, names):
    from repro.analysis.admission import load_admission_filter

    trace, filter_path = colt_admission
    admit = load_admission_filter(filter_path)
    events = load_trace(trace)
    kept = admit.filter_events(events)
    assert 0 < len(kept) < len(events)
    out, status = object_path_output(kept, names)
    dropped = f"{len(events) - len(kept)}/{len(events)} event(s) dropped"
    want = f"[admit] {admit.describe()}; {dropped}\n" + out
    argv = ["analyze", trace, "--admit", filter_path, "--stats"]
    for name in names:
        argv += ["--detector", name]
    code = main(argv)
    assert (capsys.readouterr().out, code) == (want, status)


# -- a trace that cannot be read ---------------------------------------------


@pytest.fixture(params=["missing", "not-utf8", "malformed"])
def unreadable_trace(request, tmp_path):
    """``(path, what the error line must say)`` of a trace that cannot be read."""
    path = tmp_path / "bad.trace"
    if request.param == "missing":
        return str(path), "No such file"
    if request.param == "not-utf8":
        path.write_bytes(b"1 0 write 5 f\n2 0 write 5 \xff\n")
        return str(path), "can't decode byte 0xff"
    path.write_text("1 0 write 5 f\n# a comment\n2 0 write x f\n2 1 write 5 f\n")
    return str(path), "line 3: "


@pytest.mark.parametrize(
    "command",
    [
        ["analyze"],
        ["analyze", "--detector", "goldilocks-seed"],
        ["analyze", "--detector", "goldilocks", "--detector", "eraser"],
        ["oracle"],
        ["shrink"],
        ["explain", "--var", "5.f"],
    ],
    ids=" ".join,
)
def test_a_trace_that_cannot_be_read_exits_2(unreadable_trace, command, capsys):
    path, says = unreadable_trace
    assert main([command[0], path, *command[1:]]) == 2
    out, err = capsys.readouterr()
    assert out == ""  # no verdict
    assert err.startswith(f"error: cannot read trace {path}: ")
    assert says in err
    assert err.count("\n") == 1
