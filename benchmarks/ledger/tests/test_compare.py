"""compare.py verdicts from the bounds in BENCHMARK.json."""

import json

from ledger import compare, spec


def _doc(values_by_metric: dict, failed: int = 0, workload: str = "paper-native") -> dict:
    runs = []
    n = len(next(iter(values_by_metric.values())))
    for i in range(n):
        runs.append({
            "workload": workload, "traced": False, "attempted": 10, "failed": failed,
            "end_to_end": {k: {"value": v[i], "unit": "ms"}
                           for k, v in values_by_metric.items()},
        })
    return {"git_sha": "x", "seed": 0, "runs": runs}


def _verdicts(a, b):
    rows = compare.compare(a, b, spec.bounds())
    return {r["metric"]: r["verdict"] for r in rows}


def test_verdicts():
    bound = spec.bounds()["row1_ms"]
    base = _doc({"rerun_ms": [100.0, 101.0, 99.0, 100.5]})
    assert _verdicts(base, base)["rerun_ms"] == "same"
    worse = _doc({"rerun_ms": [100.0 * (1 + 1.5 * bound)] * 4})
    assert _verdicts(base, worse)["rerun_ms"] == "worse"
    better = _doc({"rerun_ms": [100.0 * (1 - 1.5 * bound)] * 4})
    assert _verdicts(base, better)["rerun_ms"] == "better"
    noisy = _doc({"rerun_ms": [60.0, 100.0, 140.0, 180.0]})
    assert _verdicts(base, noisy)["rerun_ms"] == "unresolved"


def test_any_new_failure_is_worse():
    base = _doc({"rerun_ms": [100.0, 100.0]})
    broken = _doc({"rerun_ms": [100.0, 100.0]}, failed=1)
    assert _verdicts(base, broken)["fail_ratio"] == "worse"
    assert _verdicts(base, base)["fail_ratio"] == "same"


def test_exit_status(tmp_path, capsys):
    bound = spec.bounds()["row1_ms"]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(_doc({"rerun_ms": [100.0, 100.0]})))
    b.write_text(json.dumps(_doc({"rerun_ms": [100.0 * (1 + 2 * bound)] * 2})))
    assert compare.main([str(a), str(a)]) == 0
    assert compare.main([str(a), str(b)]) == 1
    out = capsys.readouterr().out
    assert "rerun_ms" in out and "worse" in out
    assert compare.main([str(a)]) == 2
