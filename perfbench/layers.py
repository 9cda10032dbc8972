"""Per-layer timings: each module's public functions called on a workload's designs.

Row kernels are timed on a batch of about 10^6 scalars of the workload's
layer design (see `workloads.py`) and reported in ms per 10^6 scalars. The
sampler stages are inclusive: `uniforms` contains `raw` and `normals`
contains both, so a stage's own cost is the difference. `harness.max_cell_s`
runs each cell of the workload's sweep alone, which is the critical path a
sweep cannot beat however many threads share its cells.
"""

from __future__ import annotations

import dataclasses
import statistics
import time

import numpy as np

from lrvlab import (
    __version__,
    block_model,
    build_structure,
    derive_stream,
    generate_graph,
    long_run_variance,
)
from lrvlab.estimators import cluster_rows, graph_rows, sample_variance_rows, second_moment_rows
from lrvlab.harness import ExperimentReport, config_hash, load_config, run_sweep, summarize
from lrvlab.inference_tests import cluster_t_rows, sign_test_rows, z_test_rows
from lrvlab.likelihood import LimitLaw, ks_distance, loglr_cluster_rows
from lrvlab.sampler import sample_rows

BATCH_SCALARS = 1 << 20
REPEATS = 5


def _median_time(fn, repeats=REPEATS):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _sizes(structure: dict, n: int):
    if structure["pattern"] == "pairs":
        return [2] * (n // 2)
    if structure["pattern"] == "equal":
        m = structure["clusters"]
        return [n // m] * m
    raise ValueError(f"layer structure {structure!r} is not supported")


def measure(workload: dict, config_path: str, seed: int) -> dict:
    layer = workload["layer"]
    n = layer["n"]
    rows = max(1, BATCH_SCALARS // n)
    per_m = 1e3 * 1e6 / (rows * n)  # seconds per batch -> ms per 10^6 scalars
    sizes = _sizes(layer["structure"], n)
    out = {}

    def resolve():
        cs = build_structure(sizes)
        model = block_model(cs, [layer["delta"]] * cs.M)
        return cs, model, long_run_variance(model)

    out["cluster_model.resolve_us"] = 1e6 * _median_time(resolve)
    cs, model, sigma_sq = resolve()

    ids = range(2000)
    out["sampler.derive_stream_us"] = 1e6 * _median_time(lambda: [derive_stream(seed, r) for r in ids]) / len(ids)
    stream = derive_stream(seed, 0)
    out["sampler.raw_ms_per_M"] = per_m * _median_time(lambda: stream.raw(rows * n))
    out["sampler.uniforms_ms_per_M"] = per_m * _median_time(lambda: stream.uniforms(rows * n))
    out["sampler.normals_ms_per_M"] = per_m * _median_time(lambda: stream.normals(rows * n))
    out["sampler.sample_rows_ms_per_M"] = per_m * _median_time(lambda: sample_rows(model, 0.0, seed, range(rows)))

    x = sample_rows(model, 0.0, seed, range(rows))
    u = np.linspace(0.0, 1.0, rows + 2)[1:-1]
    t0 = time.perf_counter()
    graph = generate_graph(layer["graph"], cs=cs, n=n)
    out["graphs.generate_graph_ms"] = 1e3 * (time.perf_counter() - t0)
    kernels = {
        "estimators.cluster_rows_ms_per_M": lambda: cluster_rows(x, cs),
        "estimators.sample_variance_rows_ms_per_M": lambda: sample_variance_rows(x),
        "estimators.second_moment_rows_ms_per_M": lambda: second_moment_rows(x),
        "estimators.graph_rows_ms_per_M": lambda: graph_rows(x, graph),
        "likelihood.loglr_cluster_rows_ms_per_M": lambda: loglr_cluster_rows(x, model, 0.0),
        "inference_tests.sign_test_rows_ms_per_M": lambda: sign_test_rows(x, 0.05, u),
        "inference_tests.cluster_t_rows_ms_per_M": lambda: cluster_t_rows(x, cs, 0.05),
        "inference_tests.z_test_rows_ms_per_M": lambda: z_test_rows(x, sigma_sq, 0.05),
    }
    for name, kernel in kernels.items():
        out[name] = per_m * _median_time(kernel)

    # ks_distance on as many values as the workload's largest contiguity cell.
    config = workload["config"]
    reps = max(e["replications"] for e in config["experiments"] if e["experiment"] == "contiguity")
    w = np.random.default_rng(seed).standard_normal(reps)
    cdf = LimitLaw(0.5).cdf
    out["likelihood.ks_distance_ms"] = 1e3 * _median_time(lambda: ks_distance(w, cdf))

    out["harness.load_config_ms"] = 1e3 * _median_time(lambda: load_config(config_path))
    master_seed, entries = load_config(config_path)
    cells, longest, index = [], 0.0, 0
    for entry in entries:
        for cell_n in entry.n_grid:
            single = dataclasses.replace(entry, n_grid=(cell_n,))
            t0 = time.perf_counter()
            cells.extend(run_sweep([single], master_seed + index).cells)
            longest = max(longest, time.perf_counter() - t0)
            index += 1
    out["harness.max_cell_s"] = longest
    report = ExperimentReport(
        version=__version__,
        master_seed=master_seed,
        config_sha256=config_hash(master_seed, entries),
        cells=tuple(cells),
    )
    out["harness.summarize_ms"] = 1e3 * _median_time(
        lambda: (summarize(report, "csv"), summarize(report, "json"))
    )
    return out
