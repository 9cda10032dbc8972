"""Benchmark a change against its parent commit in alternating pairs.

    python3 scripts/bench_pairs.py --out BENCH_<pr>.json --first-seed S \
        --pairs small-n=4 one-large-cluster=4 many-small-clusters=10 \
        [--acceptance N] [--parent REV] [--seconds 35] \
        [--claim WORKLOAD:METRIC] [--change TEXT]

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
which the change is better, the median ratio, and `within_bound`: whether
the change's median is no worse than the parent's by more than the metric's
BENCHMARK.json bound, in its `better` direction; plus the seeds, the order
within each pair, correctness counts, the host (its cores, its Python and
whether the runs can cache bytecode), and the code lines of each
snapshot's src/lrvlab (code_lines.count) as code_lines.parent and
code_lines.change.  With --claim, end_to_end.claim_met
says whether the claimed metric improved on the claimed workload: the change
is better in at least nine tenths of the pairs (ties count for neither) and
its median beats the parent's by more than the distance between the
parent's quartiles.  The output is rewritten after every pair, so an
interrupted run keeps what it measured.  At the end, the claim's verdict and
every metric that is not within its bound are printed on standard error.

With --acceptance N (alone, or after the workloads), each side also runs
the whole process `python3 -m lrvlab.cli run --config
configs/acceptance.json` from its snapshot with PYTHONPATH=src, in N
alternating pairs in the same order.  The output's acceptance_run holds each
side's wall times in seconds (median, quartiles and runs), the pairs in which
the change is faster, the median ratio, and reports_identical: whether every
pair's report.csv and report.json are byte-identical across the two sides.
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
import time
from pathlib import Path

from code_lines import count  # scripts/code_lines.py, beside this script

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


def _run_acceptance(side: Path, out: Path) -> float:
    """Wall seconds of one whole `lrvlab run` of configs/acceptance.json
    from the snapshot side, whose reports go to out (emptied first)."""
    shutil.rmtree(out, ignore_errors=True)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, ["src", os.environ.get("PYTHONPATH")])))
    argv = [sys.executable, "-m", "lrvlab.cli", "run", "--config", "configs/acceptance.json", "--out", str(out)]
    start = time.perf_counter()
    proc = subprocess.run(argv, cwd=side, env=env, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    seconds = time.perf_counter() - start
    if proc.returncode != 0:
        raise SystemExit(f"{side.name} acceptance run failed: {proc.stderr.strip()[-2000:]}")
    return seconds


def same_reports(a: Path, b: Path) -> bool:
    """Whether the report directories a and b hold byte-identical report.csv
    and report.json (a missing report is not identical)."""
    return all(
        (a / name).is_file() and (b / name).is_file() and (a / name).read_bytes() == (b / name).read_bytes()
        for name in ("report.csv", "report.json")
    )


def _summary(runs: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(runs, n=4) if len(runs) > 1 else (runs[0],) * 3
    return {"median": statistics.median(runs), "q1": q1, "q3": q3, "runs": runs}


def _compare(parent_runs: list[float], change_runs: list[float], better: str) -> dict:
    """Both sides' summaries, the pairs in which the change is better (ties
    count for neither) and the ratio of the medians."""
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (c - p) < 0 for p, c in zip(parent_runs, change_runs))
    parent, change = _summary(parent_runs), _summary(change_runs)
    return {
        "better": better,
        "parent": parent,
        "change": change,
        "change_better_in_pairs": f"{wins}/{len(parent_runs)}",
        "median_ratio": change["median"] / parent["median"] if parent["median"] else None,
    }


def _acceptance_entry(results: dict) -> dict:
    """acceptance_run from results {"first", "parent", "change", "identical"}:
    per pair, the side that ran first, each side's seconds, and whether the
    two sides' reports were byte-identical."""
    entry = {
        "command": "python3 -m lrvlab.cli run --config configs/acceptance.json --out DIR, whole process, "
        "PYTHONPATH=src, run from a snapshot of each side",
        "unit": "s",
        "pairs": len(results["identical"]),
        "first": results["first"],
    }
    entry.update(_compare(results["parent"], results["change"], "lower"))
    entry["reports_identical"] = all(results["identical"])
    return entry


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
        metric = metrics[name] = {"unit": m["unit"], **_compare(sides["parent"], sides["change"], m["better"])}
        sign = 1.0 if m["better"] == "lower" else -1.0
        parent, change = metric["parent"]["median"], metric["change"]["median"]
        limit = parent * (1.0 + sign * m["bound"])  # the worst median within the bound
        metric["within_bound"] = change <= limit if sign > 0 else change >= limit
    entry["metrics"] = metrics
    return entry


def claim_met(out: dict) -> bool | None:
    """Whether the claimed WORKLOAD:METRIC of out improved (see the module
    docstring); None without a claim or before its workload has run."""
    claim = out["end_to_end"]["claimed"]
    workload, _, name = (claim or "").partition(":")
    entry = out["end_to_end"]["workloads"].get(workload)
    if entry is None:
        return None
    metric = entry["metrics"][name]
    wins, pairs = map(int, metric["change_better_in_pairs"].split("/"))
    parent, change = metric["parent"], metric["change"]
    sign = 1.0 if metric["better"] == "lower" else -1.0
    gain = sign * (parent["median"] - change["median"])
    return 10 * wins >= 9 * pairs and gain > parent["q3"] - parent["q1"]


def out_of_bound(out: dict) -> list[str]:
    """One line per workload and metric whose change median is not within
    its bound."""
    lines = []
    for workload, entry in out["end_to_end"]["workloads"].items():
        for name, metric in entry["metrics"].items():
            if not metric["within_bound"]:
                lines.append(
                    f"{workload} {name}: change median {metric['change']['median']!r} against parent "
                    f"{metric['parent']['median']!r} (ratio {metric['median_ratio']!r}, {metric['better']} is better)"
                )
    return lines


def host(environ=os.environ) -> dict:
    """The host's cores and Python, and bytecode_cached: whether the runs,
    which inherit environ, can write bytecode.  Under PYTHONDONTWRITEBYTECODE
    (any non-empty value) every round compiles src/lrvlab afresh inside
    setup_s, so BENCH files that differ in it cannot be compared."""
    return {
        "cores": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "bytecode_cached": not environ.get("PYTHONDONTWRITEBYTECODE"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--first-seed", type=int, default=None, help="needed with --pairs")
    parser.add_argument("--pairs", nargs="+", default=[], metavar="WORKLOAD=N")
    parser.add_argument("--acceptance", type=int, default=0, metavar="N",
                        help="pairs of whole acceptance runs (configs/acceptance.json)")
    parser.add_argument("--parent", default="HEAD")
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--claim", default=None, metavar="WORKLOAD:METRIC")
    parser.add_argument("--change", default="", help="one line describing the change")
    args = parser.parse_args(argv)
    plan = [(w, int(n)) for w, n in (p.split("=", 1) for p in args.pairs)]
    if not plan and args.acceptance < 1:
        parser.error("give --pairs, --acceptance N (N >= 1), or both")
    if plan and args.first_seed is None:
        parser.error("--pairs needs --first-seed")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    if args.claim is not None:
        workload, _, name = args.claim.partition(":")
        if workload not in dict(plan) or name not in {m["name"] for m in declared}:
            parser.error(f"--claim {args.claim!r} names no planned workload and declared metric")
    parent_rev = _git("rev-parse", args.parent).decode().strip()
    out = {
        "change": args.change,
        "parent": parent_rev,
        "host": host(),
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
        out["code_lines"] = {side: count(path / "src" / "lrvlab") for side, path in sides.items()}
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
                out["end_to_end"]["claim_met"] = claim_met(out)
                args.out.write_text(json.dumps(out, indent=1) + "\n")
        results = {"first": [], "parent": [], "change": [], "identical": []}
        for p in range(args.acceptance):
            order = ("parent", "change") if p % 2 == 0 else ("change", "parent")
            for side in order:
                results[side].append(_run_acceptance(sides[side], tmp / f"{side}_reports"))
                print(f"acceptance pair {p} {side}: {results[side][-1]:.3f} s", file=sys.stderr)
            results["first"].append(order[0])
            results["identical"].append(same_reports(tmp / "parent_reports", tmp / "change_reports"))
            out["acceptance_run"] = _acceptance_entry(results)
            args.out.write_text(json.dumps(out, indent=1) + "\n")
    if args.claim is not None:
        print(f"claim {args.claim}: claim_met = {out['end_to_end']['claim_met']}", file=sys.stderr)
    for line in out_of_bound(out):
        print(f"out of bound: {line}", file=sys.stderr)
    if args.acceptance and not out["acceptance_run"]["reports_identical"]:
        print("acceptance run: the two sides' reports differ", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
