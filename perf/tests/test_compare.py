"""``perf compare`` verdicts and exit status."""

import json

from perf.compare import compare, judge


def test_judge_verdicts():
    base = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert judge(base, [100.2, 100.8, 99.4, 100.1, 99.9], 0.05, "lower") == "same"
    assert judge(base, [120.0, 121.0, 119.0, 120.5, 119.5], 0.05, "lower") == "worse"
    assert judge(base, [120.0, 121.0, 119.0, 120.5, 119.5], 0.05, "higher") == "better"
    noisy = [50.0, 150.0, 100.0, 80.0, 120.0]
    assert judge(base, noisy, 0.05, "lower") == "unresolved"
    # spread over the bound, but every run of one side beats every run of the other
    assert judge([10.0, 20.0, 15.0], [30.0, 45.0, 40.0], 0.05, "lower") == "worse"


def _write(path, slowdown, failed=0):
    runs = [
        {"workload": "serve-text", "seed": i, "valid": True, "correct": True,
         "attempted": 100, "failed": failed,
         "metrics": {"slowdown": value}, "layers": {}}
        for i, value in enumerate(slowdown)
    ]
    path.write_text(json.dumps({"runs": runs}))
    return str(path)


def test_compare_exit_status(tmp_path, capsys):
    base = _write(tmp_path / "base.json", [100, 101, 99, 100, 100])
    same = _write(tmp_path / "same.json", [100, 100, 101, 99, 100])
    slower = _write(tmp_path / "slower.json", [140, 141, 139, 140, 140])
    failing = _write(tmp_path / "failing.json", [100, 101, 99, 100, 100], failed=1)
    assert compare(base, same) == 0
    assert compare(base, slower) == 1
    assert compare(base, failing) == 1
    assert "worse" in capsys.readouterr().out
