"""One measured step of the benchmark, in a fresh interpreter.

    python3 perfbench/child.py <mode> <config.json> <out-dir> <threads> <workload> <seed>

Modes:
  warm    import lrvlab only (fills the bytecode and file caches)
  round   setup_s, then `lrvlab run` serially, then with <threads> threads
          (one of each: a second threaded sweep in the same process was
          seen to run about 15% faster, so only the first stands for a
          fresh `lrvlab run`)
  traced  setup_s, then the serial `lrvlab run` with spans (see spans.py)
  layers  per-layer timings (see layers.py)

The last line of standard output is one JSON object with the results.
`lrvlab` must be importable (run.py puts the checkout's src/ on PYTHONPATH).
"""

import contextlib
import io
import json
import os
import resource
import sys
import time


def _run_cli(cli, config, out, threads=1):
    argv = ["run", "--config", config, "--out", out, "--threads", str(threads)]
    with contextlib.redirect_stdout(io.StringIO()):
        t0 = time.perf_counter()
        code = cli.main(argv)
        elapsed = time.perf_counter() - t0
    if code != 0:
        raise SystemExit(f"lrvlab run exited with {code}")
    return elapsed


def main(mode, config, out, threads, workload, seed):
    t0 = time.perf_counter()
    import lrvlab.cli as cli
    from lrvlab.harness import load_config

    load_config(config)
    result = {"setup_s": time.perf_counter() - t0}
    if mode == "round":
        result["sweep_s"] = _run_cli(cli, config, os.path.join(out, "serial"))
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["sweep_threads_s"] = _run_cli(cli, config, os.path.join(out, "threads"), threads)
    elif mode == "traced":
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
        cli.main = tracer.span("main", "cli", cli.main)
        result["sweep_s"] = _run_cli(cli, config, os.path.join(out, "traced"))
        result["self_s"] = tracer.self_times()
        result["counts"] = dict(tracer.counts)
    elif mode == "layers":
        import layers
        from workloads import make_workload

        result["layers"] = layers.measure(make_workload(workload, seed), config, seed)
    elif mode != "warm":
        raise SystemExit(f"unknown mode {mode!r}")
    print(json.dumps(result))


if __name__ == "__main__":
    _, mode, config, out, threads, workload, seed = sys.argv
    main(mode, config, out, int(threads), workload, int(seed))
