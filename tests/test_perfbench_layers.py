"""The benchmark still finds every program name it calls, and its configs load.

perfbench/layers.py imports public functions from several lrvlab modules by
name, and it otherwise runs only in a traced benchmark
(`python3 perfbench/run.py --trace 1`).  Importing it here turns a deleted or
renamed name into a test failure.  Likewise a config check that refused a key
the benchmark's workloads or the acceptance config use fails here, not in
every benchmark run.
"""

import importlib
from pathlib import Path

from lrvlab.harness import load_config

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def test_layers_module_imports(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layers = importlib.import_module("layers")
    assert callable(layers.measure)


def test_acceptance_and_workload_configs_load(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    load_config(ROOT / "configs" / "acceptance.json")
    for name in workloads.WORKLOADS:
        for seed in range(1, 11):
            load_config(workloads.make_workload(name, seed)["config"])
