"""BENCHMARK.json is generated from the tables the code measures with, and
stays inside the limits of the benchmark contract."""

import json
import re
from pathlib import Path

from bench.endtoend import END_TO_END_UNITS
from bench.layers import PER_LAYER
from bench.make_spec import spec
from bench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


def _committed():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def test_committed_spec_is_the_generated_one():
    assert _committed() == spec()


def test_names_match_the_code():
    doc = _committed()
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert [m["name"] for m in doc["end_to_end"]] == list(END_TO_END_UNITS)
    assert [m["name"] for m in doc["per_layer"]] == list(PER_LAYER)


def test_contract_limits():
    doc = _committed()
    assert set(doc) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}
    assert doc["paths"] == ["bench"]
    assert 1 <= doc["run_seconds"] <= 60
    assert 2 <= len(doc["workloads"]) <= 8
    assert 1 <= len(doc["end_to_end"]) <= 16
    assert 1 <= len(doc["per_layer"]) <= 128
    names = [x["name"] for key in ("workloads", "end_to_end", "per_layer")
             for x in doc[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for w in doc["workloads"]:
        assert set(w) == {"name", "why"}
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in doc["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in doc["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in doc["end_to_end"] + doc["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])
    assert (ROOT / "BENCHMARK.json").stat().st_size <= 64 * 1024
