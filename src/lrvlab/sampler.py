"""Exact Gaussian sampling for block-equicorrelation models: O(n) draws of
the data and O(M) draws of its per-block sufficient statistics.

Random streams are counter-based (Philox) and keyed by the pair
(master_seed, replication_id), so any replication can be regenerated in
isolation and concurrent replications never share state.  Standard normals are
produced by a fixed, documented transform: each 64-bit word w becomes the
uniform u = ((w >> 11) + 0.5) * 2**-53, strictly inside (0, 1), and the normal
is the inverse standard-normal CDF of u.  Determinism across platforms and
batch sizes is the point; both steps are elementwise.

Batched rows (raw_rows and the row samplers built on it) take one of two
paths, and on both row r equals the per-replication stream
derive_stream(master_seed, ids[r]) word for word:

- Rows of at most _VECTOR_WIDTH = 96 words evaluate Philox4x64-10 with numpy,
  one lane per (replication, 4-word block): the key is (master_seed, id) mod
  2**64, block j is the image of the counter (j + 1, 0, 0, 0), each of the
  ten rounds takes the high words of its products from 32-bit limbs, and the
  key is bumped between rounds.  Lanes run _PHILOX_LANES at a time into one
  preallocated output, so the temporaries stay small, and numpy releases the
  GIL, so threads overlap.
- Wider rows come from one numpy Philox generator per call that is re-keyed
  for each replication: its key is set to the replication's pair and its
  counter and buffer are reset, which is exactly the state a freshly keyed
  generator starts in.  This avoids a new generator (and its entropy read)
  per replication, but runs a Python step per replication.

The vectorized path costs per word and the loop per replication, so they
break even near _VECTOR_WIDTH words; BENCH_10.json records the timings.

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

# Philox4x64-10 as numpy.random.Philox computes it (Salmon et al., SC 2011):
# the round multipliers and the Weyl increments that bump the key between
# rounds.
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_LO32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)

# raw_rows evaluates Philox with numpy across replications for rows of at most
# this many words, and re-keys numpy's generator per replication for wider
# ones; the two paths break even near this width (see the module docstring).
_VECTOR_WIDTH = 96

# Lanes (one replication's 4-word block each) per vectorized sub-batch: every
# temporary array is then 64 KiB, small enough to stay in cache and to be
# reused from the heap instead of mapped afresh.
_PHILOX_LANES = 1 << 13

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
    Rows of at most _VECTOR_WIDTH words come from _philox_rows, wider ones
    from one numpy generator re-keyed per replication.  Either way all state
    is local to the call, so concurrent calls share none.
    """
    width = int(width)
    if width <= _VECTOR_WIDTH:
        return _philox_rows(master_seed, replication_ids, width)
    ids = list(replication_ids)
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


def _key_words(replication_ids) -> np.ndarray:
    """The replication ids mod 2**64, as uint64 key words."""
    if isinstance(replication_ids, range):
        r = replication_ids
        steps = np.arange(len(r), dtype=np.uint64) * np.uint64(r.step & _U64_MASK)
        return np.uint64(r.start & _U64_MASK) + steps
    return np.array([int(rep) & _U64_MASK for rep in replication_ids], dtype=np.uint64)


def _mulhilo(a: int, b: np.ndarray):
    """(hi, lo): the two 64-bit halves of each 128-bit product a * b.

    hi is assembled from 32-bit limbs; no partial sum exceeds 64 bits.
    """
    a0, a1 = np.uint64(a & 0xFFFFFFFF), np.uint64(a >> 32)
    b0, b1 = b & _LO32, b >> _SHIFT32
    t = a1 * b0 + ((a0 * b0) >> _SHIFT32)
    w = a0 * b1 + (t & _LO32)
    return a1 * b1 + (t >> _SHIFT32) + (w >> _SHIFT32), np.uint64(a) * b


def _philox_blocks(seed: int, reps: np.ndarray, blocks: int) -> np.ndarray:
    """The first `blocks` 4-word Philox4x64-10 blocks under each key
    (seed, reps[r]), as a (len(reps), 4 * blocks) array.

    One lane per (replication, block).  numpy's generator increments its
    counter before it generates, so block j is the image of the counter
    (j + 1, 0, 0, 0).
    """
    zero = np.zeros(1, dtype=np.uint64)
    x0, x1, x2, x3 = np.arange(1, blocks + 1, dtype=np.uint64), zero, zero, zero
    k0, k1 = seed, reps[:, np.newaxis]
    for i in range(10):
        if i:
            k0 = (k0 + _PHILOX_W[0]) & _U64_MASK
            k1 = k1 + np.uint64(_PHILOX_W[1])
        hi0, lo0 = _mulhilo(_PHILOX_M[0], x0)
        hi1, lo1 = _mulhilo(_PHILOX_M[1], x2)
        x0, x1, x2, x3 = hi1 ^ x1 ^ np.uint64(k0), lo1, hi0 ^ x3 ^ k1, lo0
    return np.stack((x0, x1, x2, x3), axis=-1).reshape(reps.size, 4 * blocks)


def _philox_rows(master_seed: int, replication_ids, width: int) -> np.ndarray:
    """raw_rows evaluated lane-parallel, _PHILOX_LANES lanes at a time, into
    one preallocated output (read at call time, so tests can narrow it)."""
    reps = _key_words(replication_ids)
    out = np.empty((reps.size, width), dtype=np.uint64)
    blocks = -(-width // 4)
    step = max(1, _PHILOX_LANES // max(1, blocks))
    seed = int(master_seed) & _U64_MASK
    for lo in range(0, reps.size, step):
        out[lo : lo + step] = _philox_blocks(seed, reps[lo : lo + step], blocks)[:, :width]
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
