"""Exact Gaussian sampling for block-equicorrelation models: O(n) draws of
the data and O(M) draws of its per-block sufficient statistics.

Random streams are counter-based (Philox) and keyed by the pair
(master_seed, replication_id), so any replication can be regenerated in
isolation and concurrent replications never share state.  Standard normals are
produced by a fixed, documented transform: each 64-bit word w becomes the
uniform u = ((w >> 11) + 0.5) * 2**-53, strictly inside (0, 1), and the normal
is the inverse standard-normal CDF of u.  Determinism across platforms and
batch sizes is the point; both steps are elementwise.

Batched rows (raw_rows and the row samplers built on it) come from one Philox
generator per call that is re-keyed for each replication: its key is set to
the replication's pair and its counter and buffer are reset, which is exactly
the state a freshly keyed generator starts in.  Row r therefore equals the
per-replication stream derive_stream(master_seed, ids[r]) word for word,
without paying for a new generator (and its entropy read) per replication.

Within a cluster of size k with parameter delta, a draw is mixed from iid
normals g_1..g_k with mean gbar as

    X_i = mu_bar + sqrt(1 - delta) (g_i - gbar) + sqrt(1 + (k-1) delta) gbar

which has Var(X_i) = 1 and Cov(X_i, X_j) = delta exactly: the centered part
contributes (1 - delta)(delta_ij - 1/k) and the gbar part (1 + (k-1) delta)/k,
summing to delta_ij (1 - delta) + delta.  This works for negative delta all
the way down to the positive-definiteness boundary, where an additive
"common shock" construction would not.  The two square roots are those of
the block's eigenvalues, which the model carries (BlockEquicorrModel.base and
.top); models are validated on construction, so none is checked here.  The
data paths (sample, sample_rows) draw n words per replication and serve the
graph estimator, the scalar API and the oracle tests.

Every other statistic the lab computes depends on a draw only through the
block sums S1_m and the residual masses T (see block_stats), and those have
an exact law of their own: S1_m ~ N(k mu_bar, k (1 + (k-1) delta)), and the
residual mass of a block is (1 - delta) chi^2(k-1), independent of S1_m.
Independent chi-squares with one scale add up, so the blocks of size >= 2
that share a delta form one residual group g with nu_g = sum (k_m - 1); the
model owns that grouping (BlockEquicorrModel.residual_groups and
residual_params).  standard_block_rows is the one draw of these statistics:
from M + G + 1 words per replication, word m < M gives a standard normal
Z_m = ndtri(u), word M + g a chi-square C_g = 2 gammaincinv(nu_g / 2, u), and
the last word is the randomization uniform.  block_stat_rows scales it to the
model, S1_m = k mu_bar + sqrt(k top_m) Z_m and
T_g = (1 - delta_g) C_g; likelihood.lr_diagnostics scales it to null N(0, I)
data, S1_m = sqrt(k) Z_m and T_g = C_g.  Pairs thus cost one gammaincinv per
replication, not n/2, and one large cluster costs three words instead of n.
"""

from __future__ import annotations

import numpy as np
from scipy.special import gammaincinv, ndtri

from .cluster_model import DENSE_N_CAP, BlockEquicorrModel
from .errors import FactorizationError, InvalidInputError

_U64_MASK = (1 << 64) - 1
_INV_2_53 = 2.0 ** -53

# Scalars drawn per Monte Carlo chunk; fixed so chunk boundaries (and hence
# floating-point reduction order) never depend on the worker count.
_CHUNK_SCALARS = 1 << 22


class RandomStream:
    """A deterministic stream of uniforms/normals keyed by (master_seed, replication_id).

    The output is a pure function of the key pair and the draw index; distinct
    pairs give statistically independent streams.
    """

    def __init__(self, master_seed: int, replication_id: int):
        self.master_seed = int(master_seed)
        self.replication_id = int(replication_id)
        key = np.array(
            [self.master_seed & _U64_MASK, self.replication_id & _U64_MASK],
            dtype=np.uint64,
        )
        self._bits = np.random.Philox(key=key)

    def raw(self, count: int) -> np.ndarray:
        """count raw 64-bit words from the counter-based generator."""
        return self._bits.random_raw(int(count))

    def uniforms(self, count: int) -> np.ndarray:
        """Uniforms in the open interval (0, 1), 53-bit resolution."""
        return _to_uniform(self.raw(count))

    def normals(self, count: int) -> np.ndarray:
        """Standard normals via the inverse-CDF transform."""
        return ndtri(self.uniforms(count))


def _to_uniform(raw: np.ndarray) -> np.ndarray:
    return ((raw >> np.uint64(11)) + np.float64(0.5)) * _INV_2_53


def derive_stream(master_seed: int, replication_id: int) -> RandomStream:
    """The stream owned by one replication of one experiment."""
    return RandomStream(master_seed, replication_id)


def raw_rows(master_seed: int, replication_ids, width: int) -> np.ndarray:
    """The first `width` raw words of each replication's stream, one row each.

    Row r equals derive_stream(master_seed, ids[r]).raw(width) bit for bit.
    The generator is local to the call, so concurrent calls share no state.
    """
    ids = list(replication_ids)
    width = int(width)
    out = np.empty((len(ids), width), dtype=np.uint64)
    key = np.array([int(master_seed) & _U64_MASK, 0], dtype=np.uint64)
    # The state of a Philox generator that has just been keyed: zero counter,
    # empty buffer (buffer_pos == 4 forces a refill on the first draw).
    state = {
        "bit_generator": "Philox",
        "state": {"counter": np.zeros(4, dtype=np.uint64), "key": key},
        "buffer": np.zeros(4, dtype=np.uint64),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    bits = np.random.Philox(key=key)
    for r, rep in enumerate(ids):
        key[1] = int(rep) & _U64_MASK
        bits.state = state
        out[r] = bits.random_raw(width)
    return out


def _chunks(reps: int, width: int):
    """(lo, hi) replication ranges of about _CHUNK_SCALARS scalars at `width`
    per row.

    The boundaries depend only on the arguments and _CHUNK_SCALARS (read at
    call time, so tests can narrow it), never on the worker count.
    """
    size = max(1, _CHUNK_SCALARS // max(1, width))
    for lo in range(0, reps, size):
        yield lo, min(lo + size, reps)


def _mix_rows(g: np.ndarray, model: BlockEquicorrModel, mu_bar: float) -> np.ndarray:
    """Apply the within-cluster mixing to each row of an iid-normal matrix.

    Row-independent: row r of the output depends only on row r of g, so a
    one-row call is bit-identical to the same row inside any batch.
    """
    if not np.any(model.deltas_array):
        # Identity covariance: the mixing formula collapses to X = mu_bar + g,
        # and taking the shortcut keeps that collapse exact.
        return mu_bar + g
    cs = model.structure
    sizes = cs.sizes_array
    means = np.repeat(np.add.reduceat(g, cs.starts, axis=-1) / sizes, sizes, axis=-1)
    a = np.repeat(np.sqrt(model.base), sizes)
    b = np.repeat(np.sqrt(model.top), sizes)
    return mu_bar + a * (g - means) + b * means


def sample(model: BlockEquicorrModel, mu_bar: float, stream: RandomStream) -> np.ndarray:
    """One exact draw from N(mu_bar * 1, Sigma(model)), consuming n normals."""
    n = model.structure.n
    g = stream.normals(n)
    return _mix_rows(g[np.newaxis, :], model, float(mu_bar))[0]


def sample_rows(
    model: BlockEquicorrModel,
    mu_bar: float,
    master_seed: int,
    replication_ids,
) -> np.ndarray:
    """Stack the draws of many replications into a (len(ids), n) matrix.

    Row r equals sample(model, mu_bar, derive_stream(master_seed, ids[r]))
    bit-for-bit; this entry point just amortizes the inverse-CDF transform and
    the mixing over the batch.
    """
    raw = raw_rows(master_seed, replication_ids, model.structure.n)
    return _mix_rows(ndtri(_to_uniform(raw)), model, float(mu_bar))


def block_stat_words(model: BlockEquicorrModel) -> int:
    """Raw words standard_block_rows(model, ...) draws per replication: M + G + 1."""
    return model.structure.M + model.residual_params[1].size + 1


def standard_block_rows(model: BlockEquicorrModel, master_seed: int, replication_ids):
    """The standard draw behind block_stat_rows, one replication per row.

    Returns (Z, C, u) with shapes (B, M), (B, G) and (B,): standard normals
    per block, chi^2(nu_g) draws per residual group of the model, and a
    uniform.  Each replication consumes M + G + 1 words of its own stream
    (see the module docstring), so row r depends only on (master_seed, ids[r]).
    """
    _, nu = model.residual_params
    m, g = model.structure.M, nu.size
    u = _to_uniform(raw_rows(master_seed, replication_ids, m + g + 1))
    return ndtri(u[:, :m]), 2.0 * gammaincinv(0.5 * nu, u[:, m : m + g]), u[:, m + g]


def block_stat_rows(
    model: BlockEquicorrModel,
    mu_bar: float,
    master_seed: int,
    replication_ids,
):
    """Block sums, residual masses and a randomization uniform per replication.

    Returns (S1, T, u) with shapes (B, M), (B, G) and (B,), distributed
    exactly as block_stats of a draw from N(mu_bar 1, Sigma(model)) over the
    model's residual groups, plus an independent uniform: the standard draw
    of standard_block_rows, scaled to the model.
    """
    z, c, u = standard_block_rows(model, master_seed, replication_ids)
    sizes = model.structure.sizes_array
    group_deltas, _ = model.residual_params
    return sizes * float(mu_bar) + np.sqrt(sizes * model.top) * z, (1.0 - group_deltas) * c, u


def sample_dense(mean, sigma, stream: RandomStream) -> np.ndarray:
    """Exact Gaussian draw via a dense Cholesky factor (oracle path).

    mean is a length-n vector, sigma an SPD matrix with n <= DENSE_N_CAP.
    Raises FactorizationError when sigma is not SPD.
    """
    sigma = np.asarray(sigma, dtype=np.float64)
    mean = np.asarray(mean, dtype=np.float64)
    if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1]:
        raise InvalidInputError("sigma must be a square matrix")
    n = sigma.shape[0]
    if n > DENSE_N_CAP:
        raise InvalidInputError(f"dense operations are capped at n = {DENSE_N_CAP}")
    if mean.shape != (n,):
        raise InvalidInputError(f"mean must be a vector of length {n}")
    try:
        lower = np.linalg.cholesky(sigma)
    except np.linalg.LinAlgError as exc:
        raise FactorizationError(f"sigma is not positive definite: {exc}") from exc
    return mean + lower @ stream.normals(n)
