"""The benchmark's checks have teeth.

    python3 -m pytest perfbench/test_checks.py

Runs two workload sweeps through `lrvlab run` (a few seconds each), checks
that the real reports pass, and that a report with one estimator mean moved
by 10 standard errors, or a second report that differs by one byte, is
counted as failed.
"""

from __future__ import annotations

import json
import math
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
from workloads import make_workload  # noqa: E402


def _run(workload, seed, tmp_path):
    from lrvlab.cli import main

    config = make_workload(workload, seed)["config"]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    files = ((tmp_path / "out" / "report.json").read_bytes(), (tmp_path / "out" / "report.csv").read_bytes())
    return config, files


@pytest.fixture(scope="module", params=["small-n", "many-small-clusters"])
def real_report(request, tmp_path_factory):
    return _run(request.param, 7, tmp_path_factory.mktemp(request.param))


def test_real_report_passes(real_report):
    config, (report_json, _) = real_report
    assert checks.check_report(config, json.loads(report_json)) == [[] for _ in checks.cell_list(config)]


def test_estimator_mean_moved_by_ten_se_fails(real_report):
    config, (report_json, _) = real_report
    report = json.loads(report_json)
    cells = checks.cell_list(config)
    target = next(i for i, (e, _, _) in enumerate(cells) if e["experiment"] == "estimator_consistency")
    entry, n, _ = cells[target]
    design = checks.Design(entry, n)
    mean, var = design.estimator_moments("cluster", design.mu(entry))
    se = math.sqrt(var / entry["replications"])
    metrics = {m["metric"]: m for m in report["cells"][target]["metrics"]}
    shift = math.copysign(10.0 * se, metrics["cluster_mean"]["value"] - mean)
    metrics["cluster_mean"]["value"] += shift
    metrics["cluster_bias"]["value"] += shift
    failures = checks.check_report(config, report)
    assert [i for i, f in enumerate(failures) if f] == [target]
    assert "cluster_mean" in failures[target][0]


def test_quarantined_cell_fails(real_report):
    config, (report_json, _) = real_report
    report = json.loads(report_json)
    report["cells"][0].update(metrics=[], error="ModelInvalidError: not positive definite")
    assert [i for i, f in enumerate(checks.check_report(config, report)) if f] == [0]


def _bump_last_digit(text: bytes, start: int) -> bytes:
    """Change the last digit of the first number at or after start."""
    match = re.compile(rb"\d+\.\d+").search(text, start)
    pos = match.end() - 1
    return text[:pos] + str((int(text[pos : pos + 1]) + 1) % 10).encode() + text[pos + 1 :]


def test_one_byte_difference_fails_its_cell(real_report):
    config, (report_json, report_csv) = real_report
    keys = checks.cell_keys(config)
    last = len(keys) - 1
    design_id, n = keys[last]
    assert checks.differing_cells((report_json, report_csv), (report_json, report_csv), keys) == set()

    row = report_csv.index(f"\n{config['experiments'][-1]['experiment']},{design_id},{n},".encode())
    value_field = report_csv.index(b"graph[", row)  # the metric name; the value follows
    csv_changed = _bump_last_digit(report_csv, value_field)
    assert len(csv_changed) == len(report_csv)
    assert checks.differing_cells((report_json, report_csv), (report_json, csv_changed), keys) == {last}

    json_changed = _bump_last_digit(report_json, report_json.rindex(b'"metrics"'))
    assert checks.differing_cells((report_json, report_csv), (json_changed, report_csv), keys) == {last}


def test_difference_outside_any_cell_fails_every_cell(real_report):
    config, (report_json, report_csv) = real_report
    keys = checks.cell_keys(config)
    everything = set(range(len(keys)))
    changed = report_json.replace(b'"version":"', b'"version":"x', 1)
    assert checks.differing_cells((report_json, report_csv), (changed, report_csv), keys) == everything
    reformatted = json.dumps(json.loads(report_json), indent=1).encode()
    assert checks.differing_cells((report_json, report_csv), (reformatted, report_csv), keys) == everything
    assert checks.differing_cells((report_json, report_csv), (b"{", report_csv), keys) == everything
