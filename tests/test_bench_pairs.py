"""scripts/bench_pairs.py summarizes alternating pairs, flags every
metric whose change median leaves its benchmark bound, judges a claimed
gain, and compares the two sides' acceptance-run reports byte for byte."""

import importlib.util
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"

DECLARED = [
    {"name": "sweep_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.1},
]


def _load():
    sys.path.insert(0, str(SCRIPTS))  # bench_pairs imports code_lines beside it
    try:
        spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPTS / "bench_pairs.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(SCRIPTS))
    return module


def _results(parent, change):
    """Synthetic runs: parent[i] and change[i] are (sweep_s, rate) of pair i."""

    def run(values):
        return {
            "correct": True,
            "failed": 0,
            "attempted": 12,
            "metrics": {m["name"]: {"value": v, "unit": m["unit"]} for m, v in zip(DECLARED, values)},
        }

    return {
        "pairs": len(parent),
        "seeds": list(range(len(parent))),
        "first": ["parent", "change"] * (len(parent) // 2) + ["parent"] * (len(parent) % 2),
        "parent": [run(v) for v in parent],
        "change": [run(v) for v in change],
    }


@pytest.mark.parametrize(
    "change, within",
    [
        # medians 1.0 s and 10/s at the parent; the bounds allow 1.25 s and 9/s
        ([(1.25, 9.0)] * 3, {"sweep_s": True, "rate": True}),
        ([(1.26, 9.0)] * 3, {"sweep_s": False, "rate": True}),
        ([(0.5, 8.9)] * 3, {"sweep_s": True, "rate": False}),
        ([(1.3, 20.0), (1.2, 20.0), (1.2, 20.0)], {"sweep_s": True, "rate": True}),
    ],
)
def test_within_bound_compares_medians_in_the_better_direction(change, within):
    bench = _load()
    parent = [(1.0, 10.0), (0.9, 11.0), (1.1, 9.0)]
    entry = bench._workload_entry(_results(parent, change), DECLARED)
    assert {name: m["within_bound"] for name, m in entry["metrics"].items()} == within
    out = {"end_to_end": {"workloads": {"w": entry}}}
    flagged = [line.split(":")[0] for line in bench.out_of_bound(out)]
    assert flagged == [f"w {name}" for name, ok in within.items() if not ok]


def test_out_of_bound_names_each_workload_and_metric():
    bench = _load()
    parent = [(1.0, 10.0)] * 2
    workloads = {
        "a": bench._workload_entry(_results(parent, [(2.0, 10.0)] * 2), DECLARED),
        "b": bench._workload_entry(_results(parent, [(1.0, 1.0)] * 2), DECLARED),
    }
    lines = bench.out_of_bound({"end_to_end": {"workloads": workloads}})
    assert [line.split(":")[0] for line in lines] == ["a sweep_s", "b rate"]
    assert "change median 2.0 against parent 1.0 (ratio 2.0, lower is better)" in lines[0]


PARENT_SWEEPS = [1.0, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.0, 1.02, 0.98]


@pytest.mark.parametrize(
    "change, met",
    [
        # 10/10 wins, medians 1.0 -> 0.9 against a parent quartile spread of 0.035
        ([s - 0.1 for s in PARENT_SWEEPS], True),
        # the same gap with 8/10 wins: two pairs are worse
        ([s - 0.1 for s in PARENT_SWEEPS[:8]] + [1.1, 1.1], False),
        # 10/10 wins, but the medians differ by 0.01, inside the spread
        ([s - 0.01 for s in PARENT_SWEEPS], False),
    ],
    ids=["met", "too-few-wins", "gap-inside-spread"],
)
def test_claim_needs_nine_tenths_of_the_pairs_and_a_gap_beyond_the_spread(change, met):
    bench = _load()
    # the rate runs mirror the sweeps, so "higher is better" is judged too
    entry = bench._workload_entry(
        _results([(s, 1 / s) for s in PARENT_SWEEPS], [(s, 1 / s) for s in change]), DECLARED
    )
    for name in ("sweep_s", "rate"):
        out = {"end_to_end": {"claimed": f"w:{name}", "workloads": {"w": entry}}}
        assert bench.claim_met(out) is met
    assert bench.claim_met({"end_to_end": {"claimed": None, "workloads": {"w": entry}}}) is None


def test_acceptance_entry_summarizes_whole_runs_in_seconds():
    bench = _load()
    results = {
        "first": ["parent", "change", "parent", "change", "parent"],
        "parent": [0.60, 0.58, 0.62, 0.59, 0.61],
        "change": [0.57, 0.59, 0.56, 0.55, 0.58],
        "identical": [True] * 5,
    }
    entry = bench._acceptance_entry(results)
    assert (entry["unit"], entry["better"], entry["pairs"]) == ("s", "lower", 5)
    assert entry["first"] == results["first"]
    assert entry["parent"]["runs"] == results["parent"]
    assert entry["parent"]["median"] == 0.60 and entry["change"]["median"] == 0.57
    # statistics.quantiles, exclusive method: q1 and q3 of five runs
    assert entry["parent"]["q1"] == pytest.approx(0.585) and entry["parent"]["q3"] == pytest.approx(0.615)
    assert entry["change_better_in_pairs"] == "4/5"
    assert entry["median_ratio"] == pytest.approx(0.57 / 0.60)
    assert entry["reports_identical"] is True
    results["identical"][3] = False
    assert bench._acceptance_entry(results)["reports_identical"] is False


def test_same_reports_needs_both_reports_byte_identical(tmp_path):
    bench = _load()
    a, b = tmp_path / "a", tmp_path / "b"
    for side in (a, b):
        side.mkdir()
        (side / "report.csv").write_bytes(b"metric,value\nx,0.1\n")
        (side / "report.json").write_bytes(b'{"x": 0.1}\n')
    assert bench.same_reports(a, b)
    (b / "report.json").write_bytes(b'{"x": 0.10000000000000002}\n')
    assert not bench.same_reports(a, b)
    (b / "report.json").write_bytes(b'{"x": 0.1}\n')
    (b / "report.csv").unlink()
    assert not bench.same_reports(a, b)
    assert not bench.same_reports(a, tmp_path / "missing")


@pytest.mark.parametrize(
    "environ, cached",
    [({}, True), ({"PYTHONDONTWRITEBYTECODE": ""}, True), ({"PYTHONDONTWRITEBYTECODE": "1"}, False)],
    ids=["unset", "empty", "set"],
)
def test_host_records_whether_runs_can_cache_bytecode(environ, cached):
    # Python reads an empty PYTHONDONTWRITEBYTECODE as unset
    info = _load().host(environ)
    assert info["bytecode_cached"] is cached
    assert set(info) == {"cores", "cpu_count", "machine", "python", "bytecode_cached"}
