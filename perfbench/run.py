"""The lrvlab benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; the program is imported from its src/. The
workload's sweep config is generated from the seed (workloads.py). Each round
starts a fresh interpreter (child.py) that times its own set-up and runs
`lrvlab run` on the config serially and with one thread per core. Rounds
repeat until the next one would end after --seconds; every timing reported is
the median over rounds.

With --trace 1 the same rounds run, each followed by a serial sweep with
spans (spans.py), and one child times each module's public functions
(layers.py); the per-layer metrics are printed instead.

An operation is one cell of one sweep. A cell fails when it is quarantined,
when it fails a check against exact values (checks.py, on the first serial
report), or when its entry differs from that report in any later sweep of the
run, threaded or traced. The last line of standard output is
{"correct", "attempted", "failed", "metrics"}. Without a runnable program
(no src/lrvlab, or a child that fails) it exits 1 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from workloads import WORKLOADS, make_workload  # noqa: E402

MIN_ROUNDS = 3
# A round takes a few seconds; no round starts after HARD_STOP_S, so even a
# child that hangs until its timeout ends the run within 180 s.
CHILD_TIMEOUT_S = 60
HARD_STOP_S = 100

class ChildFailed(RuntimeError):
    pass


def _child(mode, config, out, threads, workload, seed):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    argv = [sys.executable, str(HERE / "child.py"), mode, str(config), str(out), str(threads), workload, str(seed)]
    try:
        proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{mode} child timed out after {exc.timeout} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"{mode} child exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def _read_report(directory: Path):
    return ((directory / "report.json").read_bytes(), (directory / "report.csv").read_bytes())


def run(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    if not (ROOT / "src" / "lrvlab" / "__init__.py").is_file():
        raise ChildFailed(f"no lrvlab sources under {ROOT / 'src'}")
    spec = make_workload(workload, seed)
    config = spec["config"]
    keys = checks.cell_keys(config)
    work = HERE / "_out" / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    config_path = work / "config.json"
    config_path.write_text(json.dumps(config, indent=2))
    threads = len(os.sched_getaffinity(0))

    def child(mode, out=work):
        return _child(mode, config_path, out, threads, workload, seed)

    try:
        child("warm")
        start = time.perf_counter()
        layer_times = child("layers")["layers"] if trace else None
        layer_s = time.perf_counter() - start
        reference = None
        sweeps = []  # per sweep: set of cells that differ from the first report
        rounds, traced = [], []
        while True:
            out = work / f"round{len(rounds)}"
            result = child("round", out)
            rounds.append(result)
            print(f"round {len(rounds)}: {json.dumps(result)}", file=sys.stderr)
            reports = [_read_report(out / "serial"), _read_report(out / "threads")]
            if trace:
                traced.append(child("traced", out))
                reports.append(_read_report(out / "traced"))
            if reference is None:
                reference = reports[0]
            sweeps.extend(checks.differing_cells(reference, r, keys) for r in reports)
            shutil.rmtree(out)
            elapsed = time.perf_counter() - start
            per_round = (elapsed - layer_s) / len(rounds)
            if len(rounds) >= MIN_ROUNDS and elapsed + per_round > min(seconds, HARD_STOP_S):
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    report = json.loads(reference[0])
    per_cell = checks.check_report(config, report)
    check_failed = {i for i, failures in enumerate(per_cell) if failures}
    quarantined = {i for i, cell in enumerate(report["cells"]) if cell.get("error") is not None}
    for i, failures in enumerate(per_cell):
        for failure in failures:
            print(f"check failed: {keys[i][0]} n={keys[i][1]}: {failure}", file=sys.stderr)
    failed = sum(len(check_failed | differ) for differ in sweeps)
    for s, differ in enumerate(sweeps):
        if differ:
            print(f"sweep {s} differs from the first report in cells {sorted(differ)}", file=sys.stderr)

    if trace:
        # Self times come from the traced sweep of median length, so that
        # they add up to the trace.sweep_s reported beside them.
        typical = sorted(traced, key=lambda t: t["sweep_s"])[(len(traced) - 1) // 2]
        values = dict(layer_times)
        values.update(typical["self_s"])
        values.update(typical["counts"])
        values["trace.sweep_s"] = typical["sweep_s"]
        values["trace.overhead_s"] = statistics.median([t["sweep_s"] for t in traced]) - statistics.median(
            [r["sweep_s"] for r in rounds]
        )
    else:
        values = {name: statistics.median([r[name] for r in rounds]) for name in rounds[0]}
    # Names and units are the ones BENCHMARK.json declares.
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    return {
        # Quarantined cells failed without output; any other failure is a
        # wrong or irreproducible output.
        "correct": check_failed <= quarantined and not any(sweeps),
        "attempted": len(sweeps) * len(keys),
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except ChildFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
