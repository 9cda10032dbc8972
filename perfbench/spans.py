"""Spans and counts around the calls `lrvlab run` makes between modules.

`install` replaces, in the namespaces of `lrvlab.cli`, `lrvlab.harness` and
`lrvlab.likelihood`, every public lrvlab function those modules call by name
with a wrapper that records a span: its name, the lrvlab module that defines
the function, start, end and the index of the enclosing span. The program is
not edited; the wrappers live only in the process that installs them.

The calls that draw random rows also add to exact counts: one chunk per
call, one stream per replication, and the scalars drawn.
"""

from __future__ import annotations

import importlib
import inspect
import time
import types
from collections import Counter

PATCHED_MODULES = ("lrvlab.cli", "lrvlab.harness", "lrvlab.likelihood")
MODULES = (
    "cli",
    "harness",
    "sampler",
    "estimators",
    "likelihood",
    "inference_tests",
    "graphs",
    "cluster_model",
)


# Row samplers, and the scalars each draws per replication id.
_ROW_SAMPLERS = {
    "sample_rows": lambda a: a["model"].structure.n,
    "sample_rows_and_uniform": lambda a: a["model"].structure.n + 1,
    "normal_rows": lambda a: int(a["n"]),
}


class Tracer:
    def __init__(self):
        self.spans = []  # [name, module, start, end, parent index]
        self.counts = Counter(dict.fromkeys(("harness.chunks", "sampler.streams", "sampler.scalars"), 0))
        self._stack = []

    def span(self, name, module, fn):
        width = _ROW_SAMPLERS.get(name)
        signature = inspect.signature(fn) if width else None

        def traced(*args, **kwargs):
            if width:
                bound = signature.bind(*args, **kwargs).arguments
                reps = len(bound["replication_ids"])
                self.counts["harness.chunks"] += 1
                self.counts["sampler.streams"] += reps
                self.counts["sampler.scalars"] += reps * width(bound)
            parent = self._stack[-1] if self._stack else -1
            record = [f"{module}.{name}", module, time.perf_counter(), None, parent]
            self._stack.append(len(self.spans))
            self.spans.append(record)
            try:
                return fn(*args, **kwargs)
            finally:
                record[3] = time.perf_counter()
                self._stack.pop()

        return traced

    def install(self):
        for target in PATCHED_MODULES:
            namespace = importlib.import_module(target)
            for name, fn in list(vars(namespace).items()):
                if (
                    isinstance(fn, types.FunctionType)
                    and not name.startswith("_")
                    and fn.__module__.startswith("lrvlab.")
                    and fn.__module__ != "lrvlab.cli"
                ):
                    module = fn.__module__.split(".")[-1]
                    setattr(namespace, name, self.span(name, module, fn))

    def self_times(self) -> dict:
        """Seconds per module that no child span covers; they sum to the root spans."""
        own = Counter()
        for name, module, start, end, parent in self.spans:
            own[module] += end - start
            if parent >= 0:
                own[self.spans[parent][1]] -= end - start
        return {f"{m}.self_s": own[m] for m in MODULES}
