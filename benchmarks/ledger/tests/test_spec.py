"""BENCHMARK.json and the metric tables obey the benchmark contract."""

import json
import re

from ledger import spec

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
PATH = re.compile(r"[A-Za-z0-9_./-]{1,200}")


def _checked_in() -> dict:
    with open(spec.ROOT / "BENCHMARK.json", encoding="utf-8") as fp:
        return json.load(fp)


def test_benchmark_json_is_generated_from_spec():
    assert _checked_in() == json.loads(json.dumps(spec.benchmark_json()))


def test_contract_limits():
    doc = _checked_in()
    assert set(doc) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}
    assert (spec.ROOT / "BENCHMARK.json").stat().st_size <= 64 * 1024
    assert 1 <= len(doc["command"]) <= 32 and all(len(c) <= 200 for c in doc["command"])
    assert 1 <= len(doc["paths"]) <= 16
    for path in doc["paths"]:
        assert PATH.fullmatch(path) and not path.startswith("/") and ".." not in path
    assert isinstance(doc["run_seconds"], int) and 1 <= doc["run_seconds"] <= 60
    assert 2 <= len(doc["workloads"]) <= 8
    assert 1 <= len(doc["end_to_end"]) <= 16
    assert 1 <= len(doc["per_layer"]) <= 128
    for w in doc["workloads"]:
        assert set(w) == {"name", "why"}
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in doc["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in doc["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    setup = [m for m in doc["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"] for m in doc["end_to_end"])}]
    # the driver's whole session: 4 + 22 x workloads runs within 3420 s
    runs = 4 + 22 * len(doc["workloads"])
    assert runs * (doc["run_seconds"] + 12) < 3420


def test_names_and_units():
    doc = _checked_in()
    names = [x["name"] for key in ("workloads", "end_to_end", "per_layer")
             for x in doc[key]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for m in doc["end_to_end"] + doc["per_layer"]:
        assert UNIT.fullmatch(m["unit"]), m
        assert m["better"] in ("lower", "higher")


def test_every_workload_fills_every_row_slot():
    assert set(spec.ROWS) == set(spec.WORKLOADS)
    for rows in spec.ROWS.values():
        assert len(rows) == len(spec.SLOTS) == 6
        assert all(NAME.fullmatch(r) for r in rows)
