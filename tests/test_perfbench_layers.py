"""The per-layer benchmark still finds every program name it calls.

perfbench/layers.py imports public functions from several lrvlab modules by
name, and it otherwise runs only in a traced benchmark
(`python3 perfbench/run.py --trace 1`).  Importing it here turns a deleted or
renamed name into a test failure.
"""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_layers_module_imports(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layers = importlib.import_module("layers")
    assert callable(layers.measure)
