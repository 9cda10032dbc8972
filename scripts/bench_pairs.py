"""Benchmark a change against its parent commit in alternating pairs.

    python3 scripts/bench_pairs.py --out BENCH_<pr>.json --first-seed S \
        --pairs small-n=4 one-large-cluster=4 many-small-clusters=10 \
        [--parent REV] [--seconds 35] [--claim WORKLOAD:METRIC] [--change TEXT]

Both sides are snapshots in a temporary directory: the parent is
`git archive REV` (default HEAD, so an uncommitted change is compared with
the commit it sits on; pass HEAD~1 once the change is committed), and the
change is the working tree's tracked and untracked, not ignored files.
Each side runs `python3 perfbench/run.py --workload W --seed S --seconds T
--trace 0` from its own snapshot, in the caller's environment, so nothing is
written into the repository but --out.

Pair p of a workload runs both sides at seed S + p; the parent goes first in
even pairs and the change in odd ones, so drift of the host's speed within a
pair falls on both sides alike.  The output holds, per workload and
end-to-end metric (BENCHMARK.json), each side's runs in pair order, their
median and quartiles (statistics.quantiles, exclusive method), the pairs in
which the change is better, and the median ratio; plus the seeds, the order
within each pair, correctness counts and the host's core count.  It is
rewritten after every pair, so an interrupted run keeps what it measured.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 300


def _git(*args: str) -> bytes:
    return subprocess.run(("git", "-C", str(ROOT), *args), check=True, capture_output=True).stdout


def _snapshot_parent(rev: str, dest: Path) -> None:
    archive = dest.parent / "parent.tar"
    archive.write_bytes(_git("archive", "--format=tar", rev))
    with tarfile.open(archive) as tar:
        tar.extractall(dest, filter="data")
    archive.unlink()


def _snapshot_working_tree(dest: Path) -> None:
    files = _git("ls-files", "-z", "--cached", "--others", "--exclude-standard").split(b"\0")
    for name in filter(None, files):
        src = ROOT / os.fsdecode(name)
        if src.is_file():  # a tracked file deleted in the working tree is skipped
            target = dest / os.fsdecode(name)
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, target)


def _run(side: Path, workload: str, seed: int, seconds: int) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=side, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{side.name} {workload} seed {seed} failed: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def _summary(runs: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(runs, n=4) if len(runs) > 1 else (runs[0],) * 3
    return {"median": statistics.median(runs), "q1": q1, "q3": q3, "runs": runs}


def _workload_entry(results: dict, declared: list[dict]) -> dict:
    entry = {key: results[key] for key in ("pairs", "seeds", "first")}
    runs = [r for side in ("parent", "change") for r in results[side]]
    entry["all_correct"] = all(r["correct"] for r in runs)
    entry["failed"] = {side: sum(r["failed"] for r in results[side]) for side in ("parent", "change")}
    entry["attempted"] = {side: sum(r["attempted"] for r in results[side]) for side in ("parent", "change")}
    metrics = {}
    for m in declared:
        name = m["name"]
        sides = {side: [r["metrics"][name]["value"] for r in results[side]] for side in ("parent", "change")}
        sign = 1.0 if m["better"] == "lower" else -1.0
        wins = sum(sign * (c - p) < 0 for p, c in zip(sides["parent"], sides["change"]))
        parent, change = _summary(sides["parent"]), _summary(sides["change"])
        metrics[name] = {
            "unit": m["unit"],
            "better": m["better"],
            "parent": parent,
            "change": change,
            "change_better_in_pairs": f"{wins}/{len(sides['parent'])}",
            "median_ratio": change["median"] / parent["median"] if parent["median"] else None,
        }
    entry["metrics"] = metrics
    return entry


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--first-seed", required=True, type=int)
    parser.add_argument("--pairs", required=True, nargs="+", metavar="WORKLOAD=N")
    parser.add_argument("--parent", default="HEAD")
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--claim", default=None, metavar="WORKLOAD:METRIC")
    parser.add_argument("--change", default="", help="one line describing the change")
    args = parser.parse_args(argv)
    plan = [(w, int(n)) for w, n in (p.split("=", 1) for p in args.pairs)]
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    parent_rev = _git("rev-parse", args.parent).decode().strip()
    out = {
        "change": args.change,
        "parent": parent_rev,
        "host": {
            "cores": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(),
            "machine": platform.machine(),
            "python": platform.python_version(),
        },
        "end_to_end": {
            "command": f"python3 perfbench/run.py --workload W --seed S --seconds {args.seconds} --trace 0, "
            "run from a snapshot of each side",
            "design": f"alternating pairs, pair p at seed {args.first_seed} + p on both sides; the parent runs "
            "first in even pairs; each value is the run's median over its rounds",
            "claimed": args.claim,
            "workloads": {},
        },
    }
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        tmp = Path(tmp)
        sides = {"parent": tmp / "parent", "change": tmp / "change"}
        for path in sides.values():
            path.mkdir()
        _snapshot_parent(parent_rev, sides["parent"])
        _snapshot_working_tree(sides["change"])
        for workload, pairs in plan:
            results = {"pairs": 0, "seeds": [], "first": [], "parent": [], "change": []}
            for p in range(pairs):
                seed = args.first_seed + p
                order = ("parent", "change") if p % 2 == 0 else ("change", "parent")
                for side in order:
                    results[side].append(_run(sides[side], workload, seed, args.seconds))
                    print(f"{workload} pair {p} seed {seed} {side}: {json.dumps(results[side][-1])}", file=sys.stderr)
                results["pairs"] += 1
                results["seeds"].append(seed)
                results["first"].append(order[0])
                out["end_to_end"]["workloads"][workload] = _workload_entry(results, declared)
                args.out.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
