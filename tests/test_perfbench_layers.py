"""The benchmark still finds every program name it calls, and its configs load.

perfbench/layers.py calls public functions from several lrvlab modules by
name, and it otherwise runs only in a traced benchmark
(`python3 perfbench/run.py --trace 1`).  Running it here once, on one
workload, turns a deleted or renamed name, or a changed signature, into a
test failure.  Likewise a config check that refused a key
the benchmark's workloads or the acceptance config use fails here, not in
every benchmark run.
"""

import importlib
import json
import math
from pathlib import Path

from lrvlab.harness import load_config

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def test_layers_measure_runs(monkeypatch, tmp_path):
    # One workload at one seed: every layer call, generate_graph and
    # graph_rows included, runs and gives a finite, nonnegative value.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layers = importlib.import_module("layers")
    workloads = importlib.import_module("workloads")
    workload = workloads.make_workload("many-small-clusters", 1)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(workload["config"]), encoding="utf-8")
    values = layers.measure(workload, str(config), 1)
    assert values and all(math.isfinite(v) and v >= 0.0 for v in values.values()), values


def test_acceptance_and_workload_configs_load(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    load_config(ROOT / "configs" / "acceptance.json")
    for name in workloads.WORKLOADS:
        for seed in range(1, 11):
            load_config(workloads.make_workload(name, seed)["config"])
