"""Command-line interface.

    lrvlab run --config sweep.json --out results/ [--seed N] [--threads K]
               [--format csv|json]
    lrvlab spectral --sizes 3,4 --deltas 0.2,-0.1
    lrvlab stats --graph graph.json

The run command's seed precedence is: --seed flag, then the config file's
master_seed.  The environment is not read.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from .cluster_model import block_model, build_structure, long_run_variance
from .errors import InvalidInputError, load_json
from .graphs import graph_from_dict, graph_stats
from .harness import load_config, run_sweep, summarize


# Built once per process: a build costs ~0.5 ms, and the first ~2.5 ms, since
# argparse's gettext lookups import locale.  That first build stays on the
# first call rather than moving into the import.
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lrvlab",
        description="Monte Carlo laboratory for long-run variance under cluster dependence",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a config-driven experiment sweep")
    run_p.add_argument("--config", required=True, help="path to a JSON config")
    run_p.add_argument("--out", required=True, help="output directory")
    run_p.add_argument("--seed", type=int, default=None, help="override the master seed")
    run_p.add_argument(
        "--threads", type=int, default=1,
        help="worker threads, shared by the cells and their replication chunks",
    )
    run_p.add_argument(
        "--format", choices=("csv", "json"), default=None,
        help="restrict output to one format (default: both)",
    )
    run_p.set_defaults(handler=_cmd_run)

    spectral_p = sub.add_parser("spectral", help="print closed-form block spectra")
    spectral_p.add_argument("--sizes", required=True, help="comma-separated cluster sizes")
    spectral_p.add_argument("--deltas", required=True, help="comma-separated per-cluster deltas")
    spectral_p.set_defaults(handler=_cmd_spectral)

    stats_p = sub.add_parser("stats", help="print dependency-graph statistics")
    stats_p.add_argument("--graph", required=True, help='path to {"n":..., "edges":[[i,j],...]}')
    stats_p.set_defaults(handler=_cmd_stats)
    return parser


def _cmd_run(args) -> int:
    master_seed, entries = load_config(args.config)
    if args.seed is not None:
        master_seed = args.seed
    report = run_sweep(entries, master_seed, threads=args.threads)
    os.makedirs(args.out, exist_ok=True)
    written = []
    for fmt in ("csv", "json"):
        if args.format is not None and fmt != args.format:
            continue
        path = os.path.join(args.out, f"report.{fmt}")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(summarize(report, format=fmt))
        written.append(path)
    errors = [c for c in report.cells if c.error is not None]
    print(f"cells: {len(report.cells)} ({len(errors)} failed), seed: {master_seed}")
    for cell in errors:
        print(f"  failed {cell.design_id} n={cell.n}: {cell.error}")
    for path in written:
        print(f"wrote {path}")
    return 0


def _cmd_spectral(args) -> int:
    try:
        sizes = [int(s) for s in args.sizes.split(",") if s != ""]
        deltas = [float(d) for d in args.deltas.split(",") if d != ""]
    except ValueError as exc:
        raise InvalidInputError(f"bad --sizes/--deltas: {exc}") from exc
    cs = build_structure(sizes)
    model = block_model(cs, deltas)
    for m, (k, d) in enumerate(zip(cs.sizes, model.deltas)):
        parts = [f"{float(model.top[m])!r} (x1)"]
        if k > 1:
            parts.append(f"{float(model.base[m])!r} (x{k - 1})")
        print(f"block {m}: size {k}, delta {d!r} -> eigenvalues {', '.join(parts)}")
    print(f"n: {cs.n}  n_star: {cs.n_star}  M: {cs.M}  h: {cs.heterogeneity!r}")
    print(f"long-run variance: {long_run_variance(model)!r}")
    print(f"log det: {sum(model.log_det.tolist())!r}")
    return 0


def _cmd_stats(args) -> int:
    g = graph_from_dict(load_json(args.graph))
    stats = graph_stats(g)
    print(f"nodes: {g.n}")
    print(f"edges: {len(g.edges)}")
    print(f"d_max: {stats.d_max}")
    print(f"d_avg: {stats.d_avg!r}")
    marker = "exact" if stats.clique_exact else "greedy lower bound"
    print(f"clique_number: {stats.clique_number} ({marker})")
    print(f"sparsity_ratio: {stats.sparsity_ratio!r}")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, OSError, MemoryError) as exc:
        print(f"lrvlab: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
