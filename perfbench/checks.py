"""Checks of an `lrvlab run` report against values computed apart from lrvlab.

Only numpy and scipy are used here. Every Monte Carlo metric of a workload
cell is compared with its exact value under the cell's Gaussian model, within
a band of a few standard errors; the standard errors are exact too, so a
report cannot pass by also inflating its own `se`.

- Estimator means: the estimators are Gaussian quadratic forms, so their
  means and variances have closed forms in the block sizes and correlations.
- Contiguity: E[LR^s] under N(0, I) is the Gaussian Renyi moment
  prod_lambda lambda^(-s/2) (s/lambda + 1 - s)^(-1/2) over the eigenvalues of
  Sigma, which gives `mean_lr` (s = 1), `moment_1pe` (s = 1 + epsilon) and
  their variances (s = 2 and s = 2 + 2 epsilon).
- Rejection rates: counts are binomial with an exact rate: alpha at mu = 0;
  1 - Phi(z_{1-alpha} - c) for the oracle z-test and 2 alpha Phi(c) for the
  sign test at drift c; a noncentral t tail for the cluster t-test.
- Graph estimator: with the true cluster graph it must equal the cluster
  estimator row by row, and with the empty graph the sample variance. The
  rows are redrawn here from the documented stream contract (Philox keyed
  (cell seed, replication), u = ((w >> 11) + 1/2) 2^-53, inverse normal CDF,
  within-cluster mixing) and both estimators are evaluated with numpy.

The closed forms cover the designs `workloads.py` generates: equal cluster
sizes for the cluster t-test, the oracle bound for the z-test, and numeric
means for the estimator and graph cells.
"""

from __future__ import annotations

import json
import math

import numpy as np
from scipy import stats
from scipy.special import ndtr, ndtri

# Two-sided band half-width in standard errors for approximately normal means.
Z_BAND = 6.0
# Tail probability on each side of a binomial band.
BINOM_TAIL = 1e-9
# Relative tolerance for values that must agree up to rounding.
EXACT_RTOL = 1e-9


# ---------------------------------------------------------------------------
# The design of a cell, resolved without lrvlab


def cell_list(config: dict):
    """(entry, n, cell seed) for every cell, in the order lrvlab runs them."""
    cells = []
    for entry in config["experiments"]:
        for n in entry["n_grid"]:
            cells.append((entry, n, config["master_seed"] + len(cells)))
    return cells


def block_sizes(structure: dict, n: int) -> np.ndarray:
    pattern = structure["pattern"]
    if pattern == "single":
        return np.array([n])
    if pattern == "pairs":
        return np.full(n // 2, 2)
    if pattern == "equal":
        m = structure["clusters"]
        return np.full(m, n // m)
    raise ValueError(f"pattern {pattern!r} is not used by the benchmark")


def block_deltas(spec: dict, sizes: np.ndarray) -> np.ndarray:
    n = int(sizes.sum())
    value = float(spec["value"])
    scheme = spec["scheme"]
    if scheme == "constant":
        d = np.full(sizes.size, value)
    elif scheme == "delta-over-n":
        d = np.full(sizes.size, value / n)
    elif scheme == "dbar-over-nstar":
        n_star = int(sizes[sizes >= 2].sum())
        d = np.full(sizes.size, value / n_star if n_star else 0.0)
    elif scheme == "common-variance":
        d = (value - 1.0) / (sizes - 1.0)
    else:
        raise ValueError(f"delta scheme {scheme!r} is not used by the benchmark")
    return np.where(sizes >= 2, d, 0.0)


class Design:
    """Block sizes k, correlations delta and the derived exact quantities."""

    def __init__(self, entry: dict, n: int):
        design = entry["design"]
        self.n = n
        self.k = block_sizes(design["structure"], n).astype(np.float64)
        self.delta = block_deltas(design["deltas"], self.k.astype(int))
        self.top = 1.0 + (self.k - 1.0) * self.delta  # eigenvalue on the ones direction
        self.base = 1.0 - self.delta  # eigenvalue, multiplicity k - 1
        self.v = self.k * self.top  # Var of each block sum
        self.lrv = float(self.v.sum()) / n  # sigma_LR^2

    def mu(self, entry) -> float:
        """The mean of a design with one numeric mu entry."""
        (raw,) = entry["design"].get("mu", [0.0])
        return float(raw)

    def tr_sigma_sq(self) -> float:
        return float(np.sum(self.top**2 + (self.k - 1.0) * self.base**2))

    def estimator_moments(self, name: str, mu: float):
        """Exact (mean, variance) of one replication of an LRV estimator."""
        n, k, v = self.n, self.k, self.v
        V = float(v.sum())
        if name == "second_moment":
            return 1.0 + mu * mu, (2.0 * self.tr_sigma_sq() + 4.0 * mu * mu * V) / n**2
        if name == "sample_variance":
            tr_psps = self.tr_sigma_sq() - 2.0 * float(np.sum(k * self.top**2)) / n + V * V / n**2
            return 1.0 - V / n**2, 2.0 * tr_psps / n**2
        if name == "cluster":
            # Block sums of the centered data have covariance
            # G = diag(v) - (v k' + k v')/n + V k k'/n^2, a diagonal plus rank 2.
            diag_u = -2.0 * v * k / n + V * k * k / n**2
            w = np.stack([v, k], axis=1)
            c = np.array([[0.0, -1.0 / n], [-1.0 / n, V / n**2]])
            gram = w.T @ w
            frob_u = float(np.trace(c @ gram @ c @ gram))
            frob = float(np.sum(v * v) + 2.0 * np.sum(v * diag_u) + frob_u)
            mean = float(np.sum(v) + np.sum(diag_u)) / n
            return mean, 2.0 * frob / n**2
        raise ValueError(f"estimator {name!r} has no closed form here")

    def log_renyi(self, s: float) -> float:
        """log E[LR^s] under N(0, I) for LR = dN(0, Sigma)/dN(0, I); inf if infinite."""
        total = 0.0
        for lam, mult in ((self.top, 1.0), (self.base, self.k - 1.0)):
            inner = s / lam + 1.0 - s
            if np.any((inner <= 0.0) & (mult > 0)):
                return math.inf
            total += float(np.sum(mult * (-0.5 * s * np.log(lam) - 0.5 * np.log(inner))))
        return total


# ---------------------------------------------------------------------------
# Band tests


def _z_check(failures, label, value, expected, se):
    if not (se > 0.0 and math.isfinite(se)):
        failures.append(f"{label}: no finite standard error for the band")
        return
    if not abs(value - expected) <= Z_BAND * se:
        failures.append(
            f"{label}: {value!r} is {(value - expected) / se:+.1f} SE from exact {expected!r}"
        )


def _binom_check(failures, label, rate, reps, p, cap=None):
    if not math.isfinite(rate):
        failures.append(f"{label}: rate {rate!r}")
        return
    count = round(rate * reps)
    lo = stats.binom.ppf(BINOM_TAIL, reps, p)
    hi = stats.binom.isf(BINOM_TAIL, reps, p)
    if abs(count - rate * reps) > 1e-6 or not lo <= count <= hi:
        failures.append(
            f"{label}: rate {rate!r} outside the binomial band [{lo / reps}, {hi / reps}] of {p!r}"
        )
    if cap is not None and count > stats.binom.isf(BINOM_TAIL, reps, cap):
        failures.append(f"{label}: rate {rate!r} exceeds the cap {cap!r} plus its band")


def _close(failures, label, value, expected):
    if not math.isclose(value, expected, rel_tol=EXACT_RTOL, abs_tol=EXACT_RTOL):
        failures.append(f"{label}: {value!r} differs from {expected!r}")


# ---------------------------------------------------------------------------
# Per-kind checks


def _check_estimators(failures, metrics, entry, design, reps):
    mu = design.mu(entry)
    for name in entry["design"]["estimators"]:
        mean, var = design.estimator_moments(name, mu)
        got = metrics.get(f"{name}_mean")
        bias = metrics.get(f"{name}_bias")
        if got is None or bias is None:
            failures.append(f"{name}: mean or bias missing")
            continue
        _z_check(failures, f"{name}_mean", got, mean, math.sqrt(var / reps))
        _close(failures, f"{name}_bias", bias, got - design.lrv)


def _check_contiguity(failures, metrics, entry, design, reps):
    s = 1.0 + float(entry.get("epsilon", 0.1))
    for name, order in (("mean_lr", 1.0), ("moment_1pe", s)):
        got = metrics.get(name)
        if got is None:
            failures.append(f"{name} missing")
            continue
        mean = math.exp(design.log_renyi(order))
        var = math.exp(design.log_renyi(2.0 * order)) - mean * mean
        _z_check(failures, name, got, mean, math.sqrt(var / reps))


def _check_tests(failures, metrics, entry, design, reps):
    d = entry["design"]
    alpha = float(entry.get("alpha", 0.05))
    z_crit = float(ndtri(1.0 - alpha))
    m = design.k.size
    for raw in d["mu"]:
        if isinstance(raw, dict):
            c = float(raw["drift"])
            label = f"drift{c!r}"
        else:
            c = float(raw) * math.sqrt(design.n) / math.sqrt(design.lrv)
            label = repr(float(raw))
        for name in d["tests"]:
            key = f"{name}_reject[mu={label}]"
            rate = metrics.get(key)
            if rate is None:
                failures.append(f"{key} missing")
                continue
            cap = None
            if name == "sign":
                p = 2.0 * alpha * float(ndtr(c))
                cap = 2.0 * alpha
            elif name == "z":
                p = float(ndtr(c - z_crit))
            elif name == "cluster_t":
                # Per-cluster normalized sums are iid N(c sqrt(v/M), v) under
                # common variance v, so V' is noncentral t(M - 1, c).
                t_crit = float(stats.t.ppf(1.0 - alpha, m - 1))
                p = float(stats.nct.sf(t_crit, m - 1, c)) if c else alpha
            else:
                failures.append(f"{key}: unknown test")
                continue
            _binom_check(failures, key, rate, reps, p, cap)


def reference_rows(design: Design, mu: float, seed: int, reps: int) -> np.ndarray:
    """The cell's data rows, redrawn from the stream contract with numpy."""
    mask = (1 << 64) - 1
    n = design.n
    raw = np.empty((reps, n), dtype=np.uint64)
    for r in range(reps):
        key = np.array([seed & mask, r & mask], dtype=np.uint64)
        raw[r] = np.random.Philox(key=key).random_raw(n)
    g = ndtri(((raw >> np.uint64(11)) + 0.5) * 2.0**-53)
    sizes = design.k.astype(np.intp)
    starts = np.concatenate(([0], np.cumsum(sizes)[:-1]))
    means = np.repeat(np.add.reduceat(g, starts, axis=1) / sizes, sizes, axis=1)
    a = np.repeat(np.sqrt(design.base), sizes)
    b = np.repeat(np.sqrt(design.top), sizes)
    return mu + a * (g - means) + b * means


def _check_graphs(failures, metrics, entry, design, reps, seed):
    mu = design.mu(entry)
    x = None
    for spec in entry["design"]["graphs"]:
        gid = spec["id"]
        got_mean = metrics.get(f"graph[{gid}]_mean")
        got_rmse = metrics.get(f"graph[{gid}]_rmse")
        if got_mean is None or got_rmse is None:
            failures.append(f"graph[{gid}] metrics missing")
            continue
        kind = {"cluster": "cluster", "empty": "sample_variance"}[spec["kind"]]
        mean, var = design.estimator_moments(kind, mu)
        _z_check(failures, f"graph[{gid}]_mean", got_mean, mean, math.sqrt(var / reps))
        if x is None:
            x = reference_rows(design, mu, seed, reps)
            dev = x - x.mean(axis=1, keepdims=True)
            starts = np.concatenate(([0], np.cumsum(design.k.astype(np.intp))[:-1]))
            rows = {
                "cluster": np.sum(np.add.reduceat(dev, starts, axis=1) ** 2, axis=1) / design.n,
                "sample_variance": np.sum(dev * dev, axis=1) / design.n,
            }
        est = rows[kind]
        _close(failures, f"graph[{gid}]_mean vs {kind} rows", got_mean, float(np.mean(est)))
        rmse = math.sqrt(float(np.mean((est - design.lrv) ** 2)))
        _close(failures, f"graph[{gid}]_rmse vs {kind} rows", got_rmse, rmse)


def _check_cell(report_cell: dict, entry: dict, n: int, seed: int) -> list[str]:
    failures = []
    if report_cell.get("error") is not None:
        return [f"quarantined: {report_cell['error']}"]
    expected_id = entry["design"]["id"]
    if (report_cell.get("design_id"), report_cell.get("n"), report_cell.get("seed")) != (
        expected_id,
        n,
        seed,
    ):
        return [f"cell is {report_cell.get('design_id')} n={report_cell.get('n')}, expected {expected_id} n={n}"]
    design = Design(entry, n)
    reps = int(entry["replications"])
    sizes = design.k
    multi = sizes[sizes >= 2]
    n_star = float(multi.sum())
    h = float(np.sum((multi / n_star) ** 2)) if n_star else 0.0
    if report_cell.get("M") != sizes.size or report_cell.get("n_star") != n_star:
        failures.append(f"M/n_star {report_cell.get('M')}/{report_cell.get('n_star')} != {sizes.size}/{n_star:g}")
    _close(failures, "h", float(report_cell.get("h", math.nan)), h)
    if report_cell.get("reps") != reps:
        failures.append(f"reps {report_cell.get('reps')} != {reps}")
    metrics = {m["metric"]: float(m["value"]) for m in report_cell.get("metrics", [])}
    kind = entry["experiment"]
    if kind == "estimator_consistency":
        _check_estimators(failures, metrics, entry, design, reps)
    elif kind == "contiguity":
        _check_contiguity(failures, metrics, entry, design, reps)
    elif kind == "test_size_power":
        _check_tests(failures, metrics, entry, design, reps)
    elif kind == "graph_estimation":
        _check_graphs(failures, metrics, entry, design, reps, seed)
    else:
        failures.append(f"unknown experiment kind {kind!r}")
    return failures


def check_report(config: dict, report: dict) -> list[list[str]]:
    """Failure messages per cell, in cell order; an empty list means the cell passed."""
    cells = cell_list(config)
    got = report.get("cells") if isinstance(report, dict) else None
    if not isinstance(got, list) or len(got) != len(cells):
        return [["report does not hold one entry per cell"] for _ in cells]
    return [_check_cell(rc, *cell) for rc, cell in zip(got, cells)]


def _split_report(report_json: bytes, report_csv: bytes, keys):
    """(head, per-cell parts) of a report's two files, or None if unparsable."""
    try:
        # Floats stay text, so a change in their last digit is seen even
        # where it would round to the same double.
        obj = json.loads(report_json.decode("utf-8"), parse_float=str)
        lines = report_csv.decode("utf-8").splitlines()
    except ValueError:
        return None
    cells = obj.pop("cells", None) if isinstance(obj, dict) else None
    if not isinstance(cells, list) or len(cells) != len(keys):
        return None
    index = {key: i for i, key in enumerate(keys)}
    head = [obj, lines[:1]]
    parts = [[cell] for cell in cells]
    for line in lines[1:]:
        fields = line.split(",")
        i = index.get(tuple(fields[1:3]))
        (head if i is None else parts[i]).append(line)
    return head, parts


def differing_cells(a: tuple[bytes, bytes], b: tuple[bytes, bytes], keys) -> set[int]:
    """Indices of the cells whose entries differ between two (json, csv) reports.

    keys holds (design_id, n as text) per cell. Identical bytes give the
    empty set; a difference that cannot be pinned to a cell (unparsable
    files, top-level fields, the CSV header, formatting) fails every cell.
    """
    if a == b:
        return set()
    everything = set(range(len(keys)))
    sa, sb = _split_report(*a, keys), _split_report(*b, keys)
    if sa is None or sb is None or sa[0] != sb[0]:
        return everything
    return {i for i in everything if sa[1][i] != sb[1][i]} or everything


def cell_keys(config: dict):
    """(design_id, n as text) of every cell, as the CSV report spells them."""
    return [(entry["design"]["id"], str(n)) for entry, n, _ in cell_list(config)]
